import numpy as np
import pytest

from minimaxpi import async_pi
from minimaxpi.aggregation import (AggregationProbabilities, RepresentativeSets,
                                   build_aggregate)
from minimaxpi.async_pi import (AlgoState, Kind, Operation, _apply, _converged, build_G,
                                check_minmax_nonexpansive, delayed,
                                fairness_ok, initial_state, max_eval_step,
                                max_improve_step, min_eval_step,
                                min_improve_step, partitioned, q_state_diff,
                                q_zero_state, random_fair, round_robin, run,
                                run_extended, solve_G_fixed_point,
                                verify_uniform_contraction)
from minimaxpi.core import (PolicyPair, SeparatedProblem, ValueTable,
                            WeightedSpace, certify, value_iterate)
from minimaxpi.errors import MaxStepsExceeded
from minimaxpi.matrix_game import min_simplex_max_linear
from minimaxpi.models import (ColumnMaxTable, MinimaxControlModel, default_beta,
                              markov_game_to_control,
                              minimax_control_to_problem, separate_markov_game,
                              separated_model_to_problem,
                              shapley_value_iteration, stage_matrix)

from helpers import (closure_problem, random_control_model, random_markov_game,
                     random_separated_model, scalar_problem)


@pytest.fixture
def explicit_problem():
    rng = np.random.default_rng(0)
    return separated_model_to_problem(random_separated_model(rng, 3, 4))


@pytest.fixture
def markov_sep():
    rng = np.random.default_rng(1)
    return separate_markov_game(random_markov_game(rng, 3, 2, 3, alpha=0.9))


class TestSteps:
    def test_min_eval_equals_policy_operator_when_guards_match(self, explicit_problem):
        problem = explicit_problem
        rng = np.random.default_rng(2)
        j2 = problem.random_table2(rng)
        state = initial_state(problem)
        state = AlgoState(state.j1, state.v1, j2, j2, state.policies, 0)
        stepped = min_eval_step(problem, state)
        direct = problem.t1_policy(state.policies.mu, j2)
        assert np.allclose(stepped.j1.values, direct.values, atol=0)
        assert stepped.v1.diff_norm(state.v1) == 0.0  # untouched

    def test_single_state_scaled_readout(self):
        game_like = separate_markov_game(
            random_markov_game(np.random.default_rng(3), 1, 1, 1, alpha=0.5),
            beta=1.25)
        state = initial_state(game_like)
        v2 = ColumnMaxTable(game_like.space2, (np.array([[3.0]]),))
        j2 = ColumnMaxTable(game_like.space2, (np.array([[5.0]]),))
        state = AlgoState(state.j1, state.v1, j2, v2, state.policies, 0)
        stepped = min_eval_step(game_like, state)
        assert stepped.j1.values[0] == pytest.approx(4.0)

    def test_min_improve_picks_first_min(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(1), space2=WeightedSpace.unit(1),
            actions1=((0, 1),), actions2=((0,),),
            eval1=lambda x, u, j2: 3.0 if u == 0 else 7.0,
            eval2=lambda x, v, j1: 0.0,
            alpha=0.0)
        state = min_improve_step(problem, initial_state(problem))
        assert state.j1.values[0] == 3.0
        assert state.v1.values[0] == 3.0
        assert state.policies.mu[0] == 0

    def test_min_improve_matches_grid_oracle(self, markov_sep):
        problem = markov_sep
        rng = np.random.default_rng(4)
        state = initial_state(problem)
        j2 = problem.random_table2(rng)
        v2 = problem.random_table2(rng)
        state = AlgoState(state.j1, state.v1, j2, v2, state.policies, 0)
        stepped = min_improve_step(problem, state)
        merged = v2.pointwise_max(j2)
        step = 1e-3
        for x in range(problem.space1.size):
            best = min(merged.value_at(x, np.array([a, 1.0 - a]))
                       for a in np.arange(0.0, 1.0 + step / 2, step))
            assert stepped.j1.values[x] == pytest.approx(
                best / problem.beta.beta, abs=1e-3)

    def test_max_improve_matches_column_scan(self, markov_sep):
        problem = markov_sep
        rng = np.random.default_rng(5)
        state = initial_state(problem)
        j1 = problem.random_table1(rng)
        v1 = problem.random_table1(rng)
        mu = rng.dirichlet(np.ones(problem.n), problem.space1.size)
        state = AlgoState(j1, v1, state.j2, state.v2,
                          PolicyPair(mu, state.policies.nu), 0)
        stepped = max_improve_step(problem, state)
        m1 = np.minimum(j1.values, v1.values)
        for x in range(problem.space2.size):
            mat = stage_matrix(problem.game, x, m1, problem.game.alpha * problem.beta.beta)
            scores = mu[x] @ mat
            assert stepped.policies.nu[x] == int(np.argmax(scores))
            assert np.allclose(stepped.j2.cols[x], mat, atol=1e-12)
            assert np.allclose(stepped.v2.cols[x], mat, atol=1e-12)

    def test_max_eval_keeps_single_column(self, markov_sep):
        """An evaluated bundle is the policy's column of the stage matrix,
        repeated across the table's fixed width."""
        problem = markov_sep
        state = max_improve_step(problem, initial_state(problem))
        state = min_improve_step(problem, state)
        stepped = max_eval_step(problem, state)
        m1 = np.minimum(state.j1.values, state.v1.values)
        for x in range(problem.space2.size):
            mat = stage_matrix(problem.game, x, m1, problem.game.alpha * problem.beta.beta)
            column = mat[:, state.policies.nu[x]]
            assert all(np.array_equal(c, column) for c in stepped.j2.cols[x].T)
        assert stepped.j2.cols.shape == (problem.space2.size, problem.n, problem.m)
        assert stepped.v2 is state.v2

    def test_min_eval_matches_per_state_formula(self, markov_sep):
        problem = markov_sep
        rng = np.random.default_rng(14)
        state = initial_state(problem)
        state = AlgoState(state.j1, state.v1, problem.random_table2(rng),
                          problem.random_table2(rng),
                          problem.random_policies(rng), 0)
        stepped = min_eval_step(problem, state)
        for x in range(problem.space1.size):
            merged = np.hstack((state.v2.cols[x], state.j2.cols[x]))
            expect = float(np.max(state.policies.mu[x] @ merged)) / problem.beta.beta
            assert stepped.j1.values[x] == pytest.approx(expect, abs=1e-14)

    def test_subset_updates_leave_rest(self, explicit_problem):
        problem = explicit_problem
        rng = np.random.default_rng(6)
        state = initial_state(problem)
        state = AlgoState(problem.random_table1(rng), state.v1,
                          problem.random_table2(rng), state.v2,
                          state.policies, 0)
        sub = np.array([1])
        stepped = min_eval_step(problem, state, sub)
        mask = np.ones(problem.space1.size, dtype=bool)
        mask[sub] = False
        assert np.all(stepped.j1.values[mask] == state.j1.values[mask])

    def test_improvement_coupling_on_subset(self, explicit_problem):
        problem = explicit_problem
        rng = np.random.default_rng(7)
        state = initial_state(problem)
        state = AlgoState(problem.random_table1(rng), problem.random_table1(rng),
                          problem.random_table2(rng), problem.random_table2(rng),
                          state.policies, 0)
        sub = np.array([0, 2])
        stepped = min_improve_step(problem, state, sub)
        assert np.all(stepped.j1.values[sub] == stepped.v1.values[sub])
        stepped2 = max_improve_step(problem, state, np.array([1, 3]))
        assert np.all(stepped2.j2.values[[1, 3]] == stepped2.v2.values[[1, 3]])


class TestRun:
    def test_round_robin_scalar_instance(self):
        problem = scalar_problem()
        state, trace = run(problem, round_robin(), tol=1e-10, trace_out=[])
        assert state.j1.values[0] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert state.j2.values[0] == pytest.approx(4.0 / 3.0, abs=1e-8)
        assert len(trace) == state.t

    def test_fixed_point_init_terminates_immediately(self):
        problem = scalar_problem()
        exact = value_iterate(problem, tol=1e-13)
        fixed = AlgoState(exact.j1, exact.j1, exact.j2, exact.j2,
                          problem.first_policies(), 0)
        state, trace = run(problem, round_robin(), init=fixed, tol=1e-8, trace_out=[])
        assert state.t == 0
        assert trace == []

    def test_seeded_schedules_agree(self, markov_sep):
        problem = markov_sep
        tol = 1e-9
        finals = []
        for seed in range(10):
            state, _ = run(problem, random_fair(seed), tol=tol)
            finals.append(state.j1.values)
        oracle = value_iterate(problem, tol=1e-12)
        for a in finals:
            assert np.max(np.abs(a - oracle.j1.values)) <= 10 * tol
        for a in finals:
            for b in finals:
                assert np.max(np.abs(a - b)) <= 2 * 10 * tol

    def test_conservatism_along_trajectory(self, explicit_problem):
        problem = explicit_problem
        state = initial_state(problem)
        ops = round_robin(3).ops(problem)
        for _ in range(40):
            op = next(ops)
            merged = state.v2.pointwise_max(state.j2)
            assert np.all(merged.values >= state.j2.values - 1e-15)
            floor = state.v1.pointwise_min(state.j1)
            assert np.all(floor.values <= state.j1.values + 1e-15)
            state = _apply(problem, state, op, state)

    def test_unfair_schedule_exhausts_budget(self, explicit_problem):
        from minimaxpi.async_pi import Schedule
        import itertools as it

        def ops(problem):
            sub = np.arange(problem.space1.size)
            return it.repeat(Operation(Kind.MIN_EVAL, sub))

        lopsided = Schedule("min-eval-only", ops, 10**9, 4)
        with pytest.raises(MaxStepsExceeded):
            run(explicit_problem, lopsided, tol=1e-10, max_steps=500)

    def test_bounded_staleness_converges_to_same_point(self, markov_sep):
        problem = markov_sep
        tol = 1e-9
        base, _ = run(problem, round_robin(), tol=tol)
        for bound in (1, 3, 5):
            state, _ = run(problem, delayed(round_robin(), bound), tol=tol, seed=7)
            assert np.max(np.abs(state.j1.values - base.j1.values)) <= 2 * 10 * tol

    def test_partitioned_blocks_converge(self, markov_sep):
        problem = markov_sep
        state, trace = run(problem, partitioned(2), tol=1e-9, trace_out=[])
        oracle = value_iterate(problem, tol=1e-12)
        assert np.max(np.abs(state.j1.values - oracle.j1.values)) <= 1e-7
        labels = {row.subset for row in trace}
        assert {"b0", "b1"} <= labels


def block_cases():
    rng = np.random.default_rng(15)
    model = random_separated_model(rng, 7, 6)
    tabular = separated_model_to_problem(model)
    phi = AggregationProbabilities(rng.dirichlet(np.ones(3), 7),
                                   rng.dirichlet(np.ones(4), 6))
    return {
        "tabular": tabular,
        "closure": closure_problem(model, tabular.alpha),
        "aggregate": build_aggregate(tabular, RepresentativeSets(
            np.array([0, 3, 6]), np.array([0, 2, 4, 5])), phi),
        "markov": separate_markov_game(random_markov_game(rng, 5, 2, 3, alpha=0.9)),
    }


def entries(table):
    """Per-state entries: plain values, or column bundles."""
    return table.cols if isinstance(table, ColumnMaxTable) else table.values


def assert_same_state(a, b):
    for name in ("j1", "v1", "j2", "v2"):
        left, right = entries(getattr(a, name)), entries(getattr(b, name))
        assert len(left) == len(right)
        assert all(np.array_equal(x, y) for x, y in zip(left, right)), name
    assert np.array_equal(a.policies.mu, b.policies.mu)
    assert np.array_equal(a.policies.nu, b.policies.nu)


@pytest.mark.parametrize("name", ["tabular", "closure", "aggregate", "markov"])
def test_disjoint_blocks_compose_to_one_full_operation(name):
    """Same-kind operations on the blocks of a partition, each reading the
    phase-start state (block-Jacobi) or the state the previous block left
    (in turn), end bit-identical to one full-space operation.  This is why
    a block-parallel sweep is the round-robin schedule."""
    problem = block_cases()[name]
    rng = np.random.default_rng(16)
    for _ in range(5):
        start = AlgoState(problem.random_table1(rng), problem.random_table1(rng),
                          problem.random_table2(rng), problem.random_table2(rng),
                          problem.random_policies(rng))
        for kind in Kind:
            size = (problem.space1 if kind.side == 1 else problem.space2).size
            cuts = np.sort(rng.choice(np.arange(1, size), int(rng.integers(1, size)),
                                      replace=False))
            blocks = np.split(rng.permutation(size), cuts)
            full = _apply(problem, start, Operation(kind, np.arange(size)), start)
            for jacobi in (True, False):
                state = start
                for block in blocks:
                    state = _apply(problem, state, Operation(kind, block),
                                   start if jacobi else state)
                assert_same_state(state, full)


class TestStopCheck:
    """The stop gate: the certificate's bound on J1 alone."""

    def test_plain_tables_gate_j1_alone(self, explicit_problem):
        problem, tol = explicit_problem, 1e-8
        exact = value_iterate(problem, tol=1e-14)
        _, mu = problem.t1_greedy(exact.j2)
        _, nu = problem.t2_greedy(exact.j1)
        state = AlgoState(exact.j1, exact.j1, exact.j2, exact.j2, PolicyPair(mu, nu), 0)
        assert _converged(problem, state, tol)
        # the move shifts T1(T2 J1) by at most alpha**2 * 2 tol, so
        # r >= 2 tol (1 - alpha**2) and the bound r / (1 - alpha**2) >= 2 tol
        moved = AlgoState(exact.j1.with_updates([1], [exact.j1.values[1] + 2 * tol]),
                          exact.j1, exact.j2, exact.j2, PolicyPair(mu, nu), 0)
        assert not _converged(problem, moved, tol)

    def test_bundle_section_of_converged_envelope_passes(self, markov_sep):
        problem, tol = markov_sep, 1e-8
        solved, _ = run(problem, round_robin(), tol=1e-13)
        j1 = solved.j1
        v2, nu = problem.t2_greedy(j1, solved.policies.mu)
        j2 = ColumnMaxTable(problem.space2, tuple(c[:, [k]] for c, k in zip(v2.cols, nu)))
        _, mu = problem.t1_greedy(v2.pointwise_max(j2))
        state = AlgoState(j1, j1, j2, v2, PolicyPair(mu, nu), 0)
        assert all(c.shape == (problem.n, 1) for c in state.j2.cols)
        thr = tol * min(1.0, (1.0 - problem.alpha) / problem.alpha)
        assert j2.diff_norm(v2) > thr   # the section never matches its envelope
        assert _converged(problem, state, tol)


class TestCertificate:
    """``certify``'s bound on async's J1 against the actual weighted error,
    with the fixed point from an independent solver iterated to 1e-13."""

    @staticmethod
    def assert_bound_covers_error(problem, exact_j1):
        for tol in (1e-3, 1e-5, 1e-7):
            state, _ = run(problem, round_robin(), tol=tol)
            _, bound = certify(problem, state.j1)
            err = float(np.max(np.abs(state.j1.values - exact_j1) / problem.space1.weights))
            assert bound <= tol
            assert err <= bound + 1e-11   # the references' own error is below 1e-11

    @pytest.mark.parametrize("terminating", [False, True])
    def test_stochastic_games_against_shapley_vi(self, terminating):
        rng = np.random.default_rng(21 + terminating)
        for states in (1, 3, 5):
            game = random_markov_game(rng, states, 3, 3, terminating=terminating)
            problem = separate_markov_game(game)
            exact = shapley_value_iteration(game, tol=1e-13).values
            self.assert_bound_covers_error(problem, exact / problem.beta.beta)

    def test_control_problems_against_value_iteration(self):
        rng = np.random.default_rng(23)
        problems = [minimax_control_to_problem(random_control_model(rng, 5, stochastic=s))
                    for s in (False, True)]
        model = random_control_model(rng, 5, alpha=0.8, stochastic=True)
        weighted = WeightedSpace(5, rng.uniform(0.95, 1.05, 5))
        problems += [
            minimax_control_to_problem(MinimaxControlModel(weighted, model.outcomes, 0.8)),
            separated_model_to_problem(random_separated_model(rng, 5, 4))]
        for problem in problems:
            exact = value_iterate(problem, tol=1e-13).j1.values
            self.assert_bound_covers_error(problem, exact)


class TestSchedules:
    def test_declared_fairness_horizons(self, explicit_problem):
        assert fairness_ok(round_robin(3), explicit_problem)
        assert fairness_ok(random_fair(0, 3), explicit_problem)
        assert fairness_ok(partitioned(2, 2), explicit_problem)

    def test_trace_is_deterministic(self, markov_sep):
        a = run(markov_sep, random_fair(3), tol=1e-9, seed=5, trace_out=[])[1]
        b = run(markov_sep, random_fair(3), tol=1e-9, seed=5, trace_out=[])[1]
        assert a and a == b

    def test_untraced_run_computes_no_probe(self, markov_sep, monkeypatch):
        calls = []
        probe = async_pi._probe_diff
        monkeypatch.setattr(async_pi, "_probe_diff", lambda a, b: calls.append(1) or probe(a, b))
        state, trace = run(markov_sep, random_fair(3), tol=1e-9, seed=5)
        assert trace == [] and calls == []
        _, trace = run(markov_sep, random_fair(3), tol=1e-9, seed=5, trace_out=[])
        assert len(calls) == len(trace) == state.t


class TestExtendedOperator:
    def test_fixed_point_of_G(self, explicit_problem):
        problem = explicit_problem
        exact = value_iterate(problem, tol=1e-13)

        def per_action(evaluate, actions, opposite, pad):
            rows = np.full((len(actions), max(map(len, actions))), pad)
            for x, acts in enumerate(actions):
                rows[x, :len(acts)] = [evaluate(x, a, opposite) for a in acts]
            return rows

        q1 = per_action(problem.eval1, problem.actions1, exact.j2.values, np.inf)
        q2 = per_action(problem.eval2, problem.actions2, exact.j1.values, -np.inf)
        from minimaxpi.async_pi import QState
        fixed = QState(exact.j1, exact.j2, q1, q2)
        rng = np.random.default_rng(8)
        pol = problem.random_policies(rng)
        out = build_G(problem, pol)(fixed)
        assert q_state_diff(problem, out, fixed) <= 1e-9

    def test_singleton_actions_reduce_to_half_stages(self):
        problem = scalar_problem()
        pol = problem.first_policies()
        qs = q_zero_state(problem)
        out = build_G(problem, pol)(qs)
        assert out.v1.values[0] == pytest.approx(0.0)   # T1 of zero guard
        assert out.v2.values[0] == pytest.approx(1.0)   # T2 of zero guard
        assert out.q1[0][0] == out.v1.values[0]
        assert out.q2[0][0] == out.v2.values[0]

    def test_constant_problem_fixed_in_one_application(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(2), space2=WeightedSpace.unit(2),
            actions1=((0,), (0, 1)), actions2=((0,), (0,)),
            eval1=lambda x, u, j2: 2.0 + float(u),
            eval2=lambda x, v, j1: -1.0,
            alpha=0.0)
        pol = problem.first_policies()
        apply = build_G(problem, pol)
        once = apply(q_zero_state(problem))
        twice = apply(once)
        assert q_state_diff(problem, once, twice) <= 1e-15

    def test_uniform_contraction_zero_modulus(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(2), space2=WeightedSpace.unit(2),
            actions1=((0, 1), (0,)), actions2=((0,), (0, 1)),
            eval1=lambda x, u, j2: float(x + u),
            eval2=lambda x, v, j1: float(x - v),
            alpha=0.0)
        assert verify_uniform_contraction(problem, 100, 0) == 0.0

    def test_uniform_contraction_scalar_slope(self):
        assert verify_uniform_contraction(scalar_problem(), 200, 1) <= 0.5 + 1e-12

    def test_uniform_contraction_game_reduction(self):
        rng = np.random.default_rng(9)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
        beta = default_beta(0.9)
        problem = minimax_control_to_problem(markov_game_to_control(game), beta)
        ratio = verify_uniform_contraction(problem, 300, 2)
        assert ratio <= np.sqrt(0.9) + 1e-10

    def test_fixed_points_policy_independent(self, explicit_problem):
        rng = np.random.default_rng(10)
        points = [solve_G_fixed_point(explicit_problem,
                                      explicit_problem.random_policies(rng))
                  for _ in range(3)]
        for a in points:
            for b in points:
                assert q_state_diff(explicit_problem, a, b) <= 1e-8


class TestReducedSpaceEquivalence:
    def test_serial_run_matches_extended_trajectory(self):
        rng = np.random.default_rng(11)
        problem = separated_model_to_problem(random_separated_model(rng, 2, 2))
        steps = 200
        import itertools as it
        ops = list(it.islice(round_robin(2).ops(problem), steps))
        extended = run_extended(problem, iter(ops), steps)
        state = initial_state(problem)
        for k, op in enumerate(ops):
            state = _apply(problem, state, op, state)
            qs, pol = extended[k + 1]
            qhat1 = np.array([qs.q1[x][pol.mu[x]]
                              for x in range(problem.space1.size)])
            qhat2 = np.array([qs.q2[x][pol.nu[x]]
                              for x in range(problem.space2.size)])
            assert np.max(np.abs(state.j1.values - qhat1)) <= 1e-12
            assert np.max(np.abs(state.j2.values - qhat2)) <= 1e-12
            assert np.max(np.abs(state.v1.values - qs.v1.values)) <= 1e-12
            assert np.max(np.abs(state.v2.values - qs.v2.values)) <= 1e-12
            assert np.all(state.policies.mu == pol.mu)
            assert np.all(state.policies.nu == pol.nu)


class TestMinMaxNonexpansive:
    def test_equal_quadruple(self):
        space = WeightedSpace.unit(3)
        v = ValueTable(space, np.array([1.0, -2.0, 0.5]))
        assert v.pointwise_min(v).diff_norm(v.pointwise_min(v)) == 0.0

    def test_single_state_arithmetic(self):
        lhs = abs(min(5.0, 1.0) - min(0.0, 0.0))
        rhs = max(abs(5.0 - 0.0), abs(1.0 - 0.0))
        assert lhs == 1.0 <= rhs == 5.0

    def test_large_sample(self):
        assert bool(check_minmax_nonexpansive(10**4, 12))
