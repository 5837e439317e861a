import itertools
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from minimaxpi import async_pi, cli
from minimaxpi.aggregation import (AggregationProbabilities, RepresentativeSets,
                                   build_aggregate)
from minimaxpi.async_pi import (Kind, Operation, TraceRow, _converged, delayed, partitioned,
                                random_fair, round_robin, run)
from minimaxpi.core import (PolicyPair, SeparatedProblem, ValueTable,
                            WeightedSpace, certify, policy_pair_value, value_iterate)
from minimaxpi.errors import MaxStepsExceeded
from minimaxpi.matrix_game import min_simplex_max_linear
from minimaxpi.models import (ColumnMaxTable, DiscountedMarkovGame, MinimaxControlModel,
                              minimax_control_to_problem, separate_markov_game,
                              separated_model_to_problem,
                              shapley_value_iteration, split_beta, stage_matrix)
from minimaxpi.problem_io import load_problem

from helpers import (bench_file, bench_payload, closure_problem, highs_game_values,
                     random_control_model, random_markov_game, random_separated_model,
                     scalar_problem, swept_j1)
from instruments import (QState, StepState, action_counts, apply_step, build_G,
                         check_minmax_nonexpansive, fairness_ok, initial_step_state,
                         markov_game_to_control, pointwise_max, pointwise_min, q_state_diff,
                         q_zero_state, random_policies, random_table1, random_table2,
                         run_extended, score_at, side_of, solve_G_fixed_point, update_policy,
                         value_at, verify_uniform_contraction, with_updates)


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
        j2 = random_table2(problem, rng)
        state = initial_step_state(problem)
        state = StepState(state.j1, state.v1, j2, j2, state.policies, 0)
        full1 = np.arange(problem.space1.size)
        stepped = apply_step(problem, state, Operation(Kind.MIN_EVAL, full1), state)
        direct = problem.t1_policy(state.policies.mu, j2)
        assert np.allclose(stepped.j1.values, direct.values, atol=0)
        assert stepped.v1.diff_norm(state.v1) == 0.0  # untouched

    def test_single_state_scaled_readout(self):
        game_like = separate_markov_game(
            random_markov_game(np.random.default_rng(3), 1, 1, 1, alpha=0.5),
            beta=1.25)
        state = initial_step_state(game_like)
        v2 = ColumnMaxTable(game_like.space2, (np.array([[3.0]]),))
        j2 = ColumnMaxTable(game_like.space2, (np.array([[5.0]]),))
        state = StepState(state.j1, state.v1, j2, v2, state.policies, 0)
        stepped = apply_step(game_like, state, Operation(Kind.MIN_EVAL, np.arange(1)), state)
        assert stepped.j1.values[0] == pytest.approx(4.0)

    def test_min_improve_picks_first_min(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(1), space2=WeightedSpace.unit(1),
            actions1=((0, 1),), actions2=((0,),),
            eval1=lambda x, u, j2: 3.0 if u == 0 else 7.0,
            eval2=lambda x, v, j1: 0.0,
            alpha=0.0)
        state = initial_step_state(problem)
        state = apply_step(problem, state, Operation(Kind.MIN_IMPROVE, np.arange(1)), state)
        assert state.j1.values[0] == 3.0
        assert state.v1.values[0] == 3.0
        assert state.policies.mu[0] == 0

    def test_min_improve_matches_grid_oracle(self, markov_sep):
        problem = markov_sep
        rng = np.random.default_rng(4)
        state = initial_step_state(problem)
        j2 = random_table2(problem, rng)
        v2 = random_table2(problem, rng)
        state = StepState(state.j1, state.v1, j2, v2, state.policies, 0)
        full1 = np.arange(problem.space1.size)
        stepped = apply_step(problem, state, Operation(Kind.MIN_IMPROVE, full1), state)
        merged = pointwise_max(v2, j2)
        step = 1e-3
        for x in range(problem.space1.size):
            best = min(value_at(merged, x, np.array([a, 1.0 - a]))
                       for a in np.arange(0.0, 1.0 + step / 2, step))
            assert stepped.j1.values[x] == pytest.approx(
                best / problem.beta, abs=1e-3)

    def test_max_improve_matches_column_scan(self, markov_sep):
        problem = markov_sep
        rng = np.random.default_rng(5)
        state = initial_step_state(problem)
        j1 = random_table1(problem, rng)
        v1 = random_table1(problem, rng)
        mu = rng.dirichlet(np.ones(problem.n), problem.space1.size)
        state = StepState(j1, v1, state.j2, state.v2,
                          PolicyPair(mu, state.policies.nu), 0)
        full2 = np.arange(problem.space2.size)
        stepped = apply_step(problem, state, Operation(Kind.MAX_IMPROVE, full2), state)
        m1 = np.minimum(j1.values, v1.values)
        for x in range(problem.space2.size):
            mat = stage_matrix(problem.game, x, m1, problem.game.alpha * problem.beta)
            scores = mu[x] @ mat
            assert stepped.policies.nu[x] == int(np.argmax(scores))
            assert np.allclose(stepped.j2.cols[x], mat, atol=1e-12)
            assert np.allclose(stepped.v2.cols[x], mat, atol=1e-12)

    def test_max_eval_keeps_single_column(self, markov_sep):
        """An evaluated bundle is the policy's column of the stage matrix,
        repeated across the table's fixed width."""
        problem = markov_sep
        full1, full2 = np.arange(problem.space1.size), np.arange(problem.space2.size)
        state = initial_step_state(problem)
        state = apply_step(problem, state, Operation(Kind.MAX_IMPROVE, full2), state)
        state = apply_step(problem, state, Operation(Kind.MIN_IMPROVE, full1), state)
        stepped = apply_step(problem, state, Operation(Kind.MAX_EVAL, full2), state)
        m1 = np.minimum(state.j1.values, state.v1.values)
        for x in range(problem.space2.size):
            mat = stage_matrix(problem.game, x, m1, problem.game.alpha * problem.beta)
            column = mat[:, state.policies.nu[x]]
            assert all(np.array_equal(c, column) for c in stepped.j2.cols[x].T)
        assert stepped.j2.cols.shape == (problem.space2.size, problem.n, problem.m)
        assert stepped.v2 is state.v2

    def test_min_eval_matches_per_state_formula(self, markov_sep):
        problem = markov_sep
        rng = np.random.default_rng(14)
        state = initial_step_state(problem)
        state = StepState(state.j1, state.v1, random_table2(problem, rng),
                          random_table2(problem, rng),
                          random_policies(problem, rng), 0)
        full1 = np.arange(problem.space1.size)
        stepped = apply_step(problem, state, Operation(Kind.MIN_EVAL, full1), state)
        for x in range(problem.space1.size):
            merged = np.hstack((state.v2.cols[x], state.j2.cols[x]))
            expect = float(np.max(state.policies.mu[x] @ merged)) / problem.beta
            assert stepped.j1.values[x] == pytest.approx(expect, abs=1e-14)

    def test_subset_updates_leave_rest(self, explicit_problem):
        problem = explicit_problem
        rng = np.random.default_rng(6)
        state = initial_step_state(problem)
        state = StepState(random_table1(problem, rng), state.v1,
                          random_table2(problem, rng), state.v2,
                          state.policies, 0)
        sub = np.array([1])
        stepped = apply_step(problem, state, Operation(Kind.MIN_EVAL, sub), state)
        mask = np.ones(problem.space1.size, dtype=bool)
        mask[sub] = False
        assert np.all(stepped.j1.values[mask] == state.j1.values[mask])

    def test_improvement_coupling_on_subset(self, explicit_problem):
        problem = explicit_problem
        rng = np.random.default_rng(7)
        state = initial_step_state(problem)
        state = StepState(random_table1(problem, rng), random_table1(problem, rng),
                          random_table2(problem, rng), random_table2(problem, rng),
                          state.policies, 0)
        sub = np.array([0, 2])
        stepped = apply_step(problem, state, Operation(Kind.MIN_IMPROVE, sub), state)
        assert np.all(stepped.j1.values[sub] == stepped.v1.values[sub])
        stepped2 = apply_step(problem, state, Operation(Kind.MAX_IMPROVE, np.array([1, 3])),
                          state)
        assert np.all(stepped2.j2.values[[1, 3]] == stepped2.v2.values[[1, 3]])


class TestRun:
    def test_round_robin_scalar_instance(self):
        problem = scalar_problem()
        state, trace = run(problem, round_robin(), tol=1e-10, trace_out=[])
        assert state.j1.values[0] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert state.j2.values[0] == pytest.approx(4.0 / 3.0, abs=1e-8)
        assert len(trace) == state.t

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
        state = initial_step_state(problem)
        ops = round_robin(3).ops(problem)
        for _ in range(40):
            op = next(ops)
            merged = pointwise_max(state.v2, state.j2)
            assert np.all(merged.values >= state.j2.values - 1e-15)
            floor = pointwise_min(state.v1, state.j1)
            assert np.all(floor.values <= state.j1.values + 1e-15)
            state = apply_step(problem, state, op, state)

    def test_unfair_schedule_exhausts_budget(self, explicit_problem):
        from minimaxpi.async_pi import Schedule

        def cycle(problem):
            return [Operation(Kind.MIN_EVAL, np.arange(problem.space1.size))] * 4

        lopsided = Schedule("min-eval-only", cycle)
        with pytest.raises(MaxStepsExceeded) as exc:
            run(explicit_problem, lopsided, tol=1e-10, max_steps=500, trace_out=[])
        # all but the first step are skipped, yet each counts and traces
        assert exc.value.state.t == len(exc.value.trace) == 500
        assert [row.step for row in exc.value.trace] == list(range(1, 501))
        with pytest.raises(MaxStepsExceeded) as exc:
            run(explicit_problem, lopsided, tol=1e-10, max_steps=500)
        assert exc.value.state.t == 500 and exc.value.trace == []

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
        start = StepState(random_table1(problem, rng), random_table1(problem, rng),
                          random_table2(problem, rng), random_table2(problem, rng),
                          random_policies(problem, rng))
        for kind in Kind:
            size = (problem.space1 if side_of(kind) == 1 else problem.space2).size
            cuts = np.sort(rng.choice(np.arange(1, size), int(rng.integers(1, size)),
                                      replace=False))
            blocks = np.split(rng.permutation(size), cuts)
            full = apply_step(problem, start, Operation(kind, np.arange(size)), start)
            for jacobi in (True, False):
                state = start
                for block in blocks:
                    state = apply_step(problem, state, Operation(kind, block),
                                   start if jacobi else state)
                assert_same_state(state, full)


def count_applies(monkeypatch):
    """The operations of every ``_apply`` call the executor makes."""
    calls, apply = [], async_pi._apply
    monkeypatch.setattr(async_pi, "_apply", lambda *a: calls.append(a[2]) or apply(*a))
    return calls


def reference_run(problem, schedule, tol, seed, max_steps=20000, steps=None):
    """The executor without its skip, on the functional step: ``apply_step``
    on every step, with the same seeded delay draws, staleness ring and
    probe, stopping on the same certificates: ``certify(G1)`` after each
    improvement that leaves V1 at T1(T2 G1) on every state, and at a period
    end ``_converged``, unless no check is owed and guard2 is T2 of guard1:
    then the check is owed to guard1's certificate, and a debt that
    certificate has not paid by the next period end is checked there.
    ``steps``, if given, receives each step's (read state, new state)."""
    state = initial_step_state(problem)
    rng = np.random.default_rng(seed)
    ring = deque([state], maxlen=schedule.staleness + 1)
    rows, owed, period = [], None, schedule.period(problem)
    for step, op in enumerate(itertools.islice(schedule.ops(problem), max_steps), 1):
        read = state
        if schedule.staleness > 0:
            read = ring[max(0, len(ring) - 1 - int(rng.integers(0, schedule.staleness + 1)))]
        new = apply_step(problem, state, op, read)
        if steps is not None:
            steps.append((read, new))
        rows.append(TraceRow(step, op.kind.value, op.label,
                             state.j1.diff_bound(new.j1) if side_of(op.kind) == 1 else 0.0,
                             state.j2.diff_bound(new.j2) if side_of(op.kind) == 2 else 0.0))
        state, done = new, None
        ring.append(state)
        prov, base = state.prov1, state.guard2_source
        if op.kind is Kind.MIN_IMPROVE and prov.cover.all():
            if owed is not None and np.array_equal(prov.source.values, owed.values):
                owed = None
            estimate, bound, _ = certify(problem, prov.source)
            if bound <= tol:
                done = replace(state, j1=estimate)
        if done is None and step % period == 0:
            if (owed is None and base is not None
                    and np.array_equal(base.values, state.guard1.values)):
                owed = state.guard1
            else:
                owed, estimate = None, _converged(problem, state.j1, tol)
                done = None if estimate is None else replace(state, j1=estimate)
        if done:
            return replace(done, t=step), rows
    raise AssertionError("reference run did not converge")


class FreshCopies(async_pi.Schedule):
    """A schedule that yields every operation as a new object."""

    def ops(self, problem):
        return (Operation(op.kind, op.subset.copy(), op.label) for op in super().ops(problem))


def fresh_copies(schedule):
    """``schedule`` with every operation yielded as a new object."""
    return FreshCopies(**{**vars(schedule), "name": "fresh:" + schedule.name})


def straddling(problem):
    """Each kind on the two halves of its side and on a window across
    them, improving once and evaluating twice on each."""
    cycle = []
    for improve, evaluate, space in ((Kind.MIN_IMPROVE, Kind.MIN_EVAL, problem.space1),
                                     (Kind.MAX_IMPROVE, Kind.MAX_EVAL, problem.space2)):
        half = space.size // 2
        for label, part in (("lo", np.arange(half)), ("hi", np.arange(half, space.size)),
                            ("mid", np.arange(space.size // 4, space.size // 4 + half))):
            cycle += [Operation(improve, part, label)] + [Operation(evaluate, part, label)] * 2
    return cycle


# reads delayed past the opposite side's last write
LATE_READS = "delayed:B=5,straddling"

REPLAY_SCHEDULES = {
    "round_robin:k=0": round_robin(0),
    "round_robin:k=1": round_robin(1),
    "round_robin:k=10": round_robin(10),
    "random": random_fair(4),
    "partitioned": partitioned(),
    **{f"delayed:B={b},{name}": delayed(inner, b) for b in (1, 3)
       for name, inner in (("partitioned", partitioned()), ("random", random_fair(4)))},
    # runs past the first chunk of delay draws on every case
    "delayed:B=2,partitioned:p=8": delayed(partitioned(8), 2),
    LATE_READS: delayed(async_pi.Schedule("straddling", straddling, seed=3), 5),
}


def five_cases():
    """``block_cases`` and a stochastic control reduction."""
    cases = block_cases()
    cases["control"] = minimax_control_to_problem(random_control_model(
        np.random.default_rng(17), states=4, alpha=0.7, max_u=3, max_v=3, stochastic=True))
    return cases


KINDS = ["tabular", "closure", "aggregate", "markov", "control"]
EXPLICIT_KINDS = ["tabular", "closure", "aggregate", "control"]


def count_late_reads(monkeypatch):
    """Per ``_apply`` call, whether its read lands before the opposite
    side's guard last moved: the read's ``version`` below the live side's."""
    late, apply = [], async_pi._apply

    def applying(problem, iterate, op, read):
        other = iterate.two if side_of(op.kind) == 1 else iterate.one
        late.append(read.version < other.version)
        apply(problem, iterate, op, read)

    monkeypatch.setattr(async_pi, "_apply", applying)
    return late


@pytest.mark.parametrize("name", KINDS)
def test_skipped_evaluations_change_nothing(name, monkeypatch):
    """``run`` skips evaluations whose inputs are unchanged; a loop that
    applies every step ends bit-identical: tables, policies, ``t`` and
    trace rows.  A schedule of fresh operation objects skips nothing.  The
    loop draws one delay per step, ``run`` a chunk at a time."""
    problem = five_cases()[name]
    applied, late = count_applies(monkeypatch), count_late_reads(monkeypatch)
    for label, schedule in REPLAY_SCHEDULES.items():
        expected, rows = reference_run(problem, schedule, 1e-8, seed=9)
        for copies in (False, True):
            applied.clear()
            late.clear()
            state, trace = run(problem, fresh_copies(schedule) if copies else schedule,
                               tol=1e-8, seed=9, trace_out=[])
            if label == LATE_READS:
                assert sum(late) > 10, label
            assert_same_state(state, expected)
            assert state.t == expected.t == len(rows), label
            assert list(map(repr, trace)) == list(map(repr, rows)), label
            if label == "delayed:B=2,partitioned:p=8":
                assert state.t > async_pi._DELAY_CHUNK
            if copies or label == "round_robin:k=0" or (
                    label == "round_robin:k=1" and not problem.evals_repeat_improvements):
                assert len(applied) == state.t, label
            else:
                assert len(applied) < state.t, label


@pytest.mark.parametrize("name", KINDS)
def test_free_certificates_are_certify_bit_for_bit(name, monkeypatch):
    """Every certificate a run reads off its own improvements is
    ``certify(G1)``'s, estimate, bound and r, under full-space phases, block
    phases and stale reads."""
    problem = five_cases()[name]
    seen, own = [], async_pi._own_certificate

    def recording(problem, iterate):
        found = own(problem, iterate)
        if found is not None:
            seen.append((iterate.one.origin, found))
        return found

    monkeypatch.setattr(async_pi, "_own_certificate", recording)
    for schedule in (round_robin(), partitioned(), delayed(round_robin(), 2)):
        seen.clear()
        run(problem, schedule, tol=1e-10, seed=5)
        assert len(seen) >= 3, schedule.name
        for source, (estimate, bound, r, _) in seen:
            expected, expected_bound, expected_r = certify(problem, source)
            assert np.array_equal(estimate.values, expected.values), schedule.name
            assert bound == expected_bound, schedule.name
            assert r == expected_r, schedule.name


@pytest.mark.parametrize("name", KINDS)
def test_declared_kernels_repeat_improvements(name):
    """A kind that declares ``evals_repeat_improvements`` evaluates, at the
    picks of an improvement, the improvement's values bit for bit, on either
    side and any subset.  The Markov game does not declare it: its MaxEval
    keeps one column of the improvement's matrix."""
    problem = five_cases()[name]
    assert problem.evals_repeat_improvements == (name != "markov")
    rng = np.random.default_rng(21)
    for _ in range(20):
        m1, m2 = random_table1(problem, rng), random_table2(problem, rng)
        policies = random_policies(problem, rng)
        s1, s2 = (rng.choice(space.size, int(rng.integers(1, space.size + 1)), replace=False)
                  for space in (problem.space1, problem.space2))
        values, picks = problem.min_improve(s1, m2)
        mu = update_policy(policies.mu, s1, picks)
        repeated1 = np.array_equal(problem.min_eval_values(s1, mu, m2), values)
        entries, picks = problem.max_improve(s2, m1, mu)
        nu = update_policy(policies.nu, s2, picks)
        repeated2 = np.array_equal(problem.max_eval_entries(s2, nu, m1), entries)
        if problem.evals_repeat_improvements:
            assert repeated1 and repeated2
        else:
            assert not repeated2


@pytest.mark.parametrize("name", EXPLICIT_KINDS)
def test_round_robin_certifies_itself(name, monkeypatch):
    """On an explicit kind a round-robin run applies no evaluation (each
    repeats the improvement before it) and calls ``certify`` never: each
    period end leaves its check to the certificate its next improvement
    completes."""
    problem = five_cases()[name]
    applied = count_applies(monkeypatch)
    calls = []
    monkeypatch.setattr(async_pi, "certify", lambda *a: calls.append(a) or certify(*a))
    for k in (1, 10):
        applied.clear()
        done, _ = run(problem, round_robin(k), tol=1e-10)
        assert calls == [], k
        assert {op.kind for op in applied} == {Kind.MIN_IMPROVE, Kind.MAX_IMPROVE}, k
        assert done.t % (2 * k + 2) == 1 and len(applied) == 2 * (done.t // (2 * k + 2)) + 1
        oracle = value_iterate(problem, tol=1e-13)
        assert np.max(np.abs(done.j1.values - oracle.j1.values)) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_partitioned_period_is_the_cycle_its_split_makes(seed, monkeypatch):
    """``partitioned:p=8`` splits a 6-state game's spaces into 6 blocks
    each, and its period is that cycle: 2 sides x 6 blocks x (1 + k).  So
    every period end ends a maximizer phase, and the run, delayed or not,
    is stopped by its own certificates without calling ``certify``."""
    payload = bench_payload("game_payload", 6, 3, 3, 0.9, True, seed=seed)
    problem = separate_markov_game(DiscountedMarkovGame(
        payload["payoffs"], payload["transitions"], payload["alpha"]))
    calls = []
    monkeypatch.setattr(async_pi, "certify", lambda *a: calls.append(a) or certify(*a))
    for schedule in (partitioned(8), delayed(partitioned(8), 2)):
        cycle = schedule.cycle(problem)
        assert schedule.period(problem) == len(cycle) == 2 * 6 * 11, schedule.name
        assert {op.label for op in cycle} == {f"b{i}" for i in range(6)}
        run(problem, schedule, tol=1e-8)
        assert calls == [], schedule.name


@pytest.fixture(scope="module")
def bench_explicit(tmp_path_factory):
    """The benchmark's separated and control generators at their sizes."""
    directory = tmp_path_factory.mktemp("bench")
    sep = load_problem(bench_file(directory, "separated_payload", 250, 250, 3, 0.9))
    control = load_problem(bench_file(directory, "control_payload", 100, 3, 3, 0.9))
    return {"sep": separated_model_to_problem(sep.model),
            "control": minimax_control_to_problem(control.model)}


def test_the_delay_ring_stops_at_the_step_budget(markov_sep, monkeypatch):
    """A delay of at least the steps taken reads the start state, so the
    ring holds at most the budget's states plus one, however large B is.
    Cutting the delays to the budget changes no step: a 50-step run traces
    the first 50 rows of a 200-step run."""
    depths, ring = [], async_pi.deque
    monkeypatch.setattr(async_pi, "deque",
                        lambda items, maxlen: depths.append(maxlen) or ring(items, maxlen=maxlen))
    rows = {}
    for steps in (50, 200):
        with pytest.raises(MaxStepsExceeded) as info:
            run(markov_sep, delayed(round_robin(), 10**6), max_steps=steps, trace_out=[])
        rows[steps] = info.value.trace
    assert depths == [51, 201]
    assert rows[200][:50] == rows[50]


@pytest.mark.parametrize("name", ["sep", "control"])
def test_delays_up_to_k_read_nothing_stale(name, bench_explicit):
    """Under a ``round_robin`` or ``partitioned`` inner on an explicit kind,
    the k evaluations after each improvement are skipped, so with k >= B the
    B+1 states a delayed read can reach are one state: the delayed run is
    the undelayed one, J1 bits, steps and trace rows.  With k < B a read
    can land before the last improvement, and here it does."""
    problem = bench_explicit[name]
    blocks8, blocks4 = (lambda k: partitioned(8, k)), (lambda k: partitioned(4, k))
    for inner, staleness, ks in ((blocks8, 3, (3, 10)), (round_robin, 5, (5,)),
                                 (blocks4, 2, (2,))):
        for k in ks:
            plain, plain_rows = run(problem, inner(k), trace_out=[])
            late, late_rows = run(problem, delayed(inner(k), staleness), trace_out=[])
            assert late.j1.values.tobytes() == plain.j1.values.tobytes(), (staleness, k)
            assert (late.t, late_rows) == (plain.t, plain_rows), (staleness, k)
    plain, late = run(problem, blocks8(2))[0], run(problem, delayed(blocks8(2), 3))[0]
    assert late.t != plain.t


def test_unpaid_debt_is_checked_at_the_next_period_end(monkeypatch):
    """Each period end of this schedule finds guard2 exactly T2(guard1), so
    one with no check owed leaves its check to guard1's certificate.  None
    comes: a max improvement between the minimizer's two blocks reads a new
    guard1, so V1 never derives from one table.  The next period end finds
    the debt unpaid and checks its own state, so ``_converged`` runs at
    steps 8, 16, ..., and the run stops at the first of those checks that
    certifies, as a loop that checks there."""
    problem = block_cases()["tabular"]
    b0, b1 = np.array_split(np.arange(problem.space1.size), 2)
    all2 = np.arange(problem.space2.size)
    cycle = [Operation(Kind.MIN_IMPROVE, b0), Operation(Kind.MAX_IMPROVE, all2),
             Operation(Kind.MIN_IMPROVE, b1), Operation(Kind.MAX_IMPROVE, all2)]
    schedule = async_pi.Schedule("interleaved", lambda p: cycle)
    checked, trace, tol = [], [], 1e-10   # the step of each check: rows traced by then
    monkeypatch.setattr(async_pi, "_converged",
                        lambda *a: checked.append(len(trace)) or _converged(*a))
    done, _ = run(problem, schedule, tol=tol, trace_out=trace)
    state = initial_step_state(problem)
    for step, op in enumerate(itertools.cycle(cycle), 1):
        state = apply_step(problem, state, op, state)
        if step % 8 == 0 and (estimate := _converged(problem, state.j1, tol)) is not None:
            break
    assert checked == list(range(8, step + 1, 8))
    assert done.t == len(trace) == step
    assert_same_state(done, replace(state, j1=estimate))


@pytest.mark.parametrize("name", ["tabular", "markov"])
def test_kept_guards_match_fresh_ones(name, monkeypatch):
    """After every step of a delayed run, each guard the iterate keeps is
    what the functional step's state gives, bit for bit: V alone where J is
    tight on every state, else ``np.minimum``, ``np.maximum`` or the two
    bundles side by side; so is every guard a step reads, stale or not,
    and every source it reads.  Each of them also equals the guard built
    afresh from its two tables; a guard2 that is V2's bundles alone need
    only hold every column of the fresh concatenation (the same readings
    through fewer LP lines), and such guards occur on the Markov game
    alone.  Every read is frozen, in memory that no live table shares, and
    one whose version is the opposite side's is what that side hands out
    now.  The random schedule interleaves the sides and reads past the
    opposite side's guard moves; the partitioned one does not."""
    problem = block_cases()[name]
    taken, checked, trimmed, apply = [], [], [], async_pi._apply

    class Counted(async_pi.Schedule):
        def ops(self, problem):
            for op in super().ops(problem):
                taken.append(op)
                yield op

    def same_guard(view, guard):
        return (view.guard is not None and type(view.guard) is type(guard)
                and np.array_equal(entries(view.guard), entries(guard)))

    def fresh(guard, v, j, combine):
        """Assert ``guard`` is ``combine(V, J)`` built afresh, or V2's
        bundles alone holding its every column; count the latter."""
        built, kept = entries(combine(v, j)), entries(guard)
        if isinstance(guard, ColumnMaxTable) and kept.shape != built.shape:
            trimmed.append(1)
            assert (built[..., None] == kept[:, :, None, :]).all(axis=1).any(axis=-1).all()
        else:
            assert np.array_equal(kept, built)

    def recording(problem, iterate, op, read):
        apply(problem, iterate, op, read)
        was, now = steps[len(taken) - 1]
        one, two = iterate.one, iterate.two
        other = two if side_of(op.kind) == 1 else one
        assert isinstance(read, async_pi._Read)   # what a side sent nothing writes
        for side in (one, two):
            for live in (side.j, side.v, side.g):
                assert not np.shares_memory(entries(read.guard), entries(live))
        assert read.version <= other.version
        if read.version == other.version:   # the guard has not moved since
            assert read.source is other.source and same_guard(read, other.guard)
        assert same_guard(one, now.guard1) and same_guard(two, now.guard2)
        fresh(one.guard, one.v, one.j, pointwise_min)
        fresh(two.guard, two.v, two.j, pointwise_max)
        assert (one.guard is one.v) == bool(now.prov1.tight.all())
        assert (two.guard is two.v) == bool(now.prov2.tight.all())
        assert (one.n_tight, one.n_cover) == (now.prov1.tight.sum(), now.prov1.cover.sum())
        assert (two.n_tight, two.n_cover) == (now.prov2.tight.sum(), now.prov2.cover.sum())
        source = now.guard2_source
        assert (two.source is None) == (source is None)
        assert source is None or np.array_equal(two.source.values, source.values)
        if side_of(op.kind) == 1:
            assert same_guard(read, was.guard2)
            fresh(read.guard, was.v2, was.j2, pointwise_max)
            late = was.guard2_source
            assert (read.source is None) == (late is None)
            assert late is None or np.array_equal(read.source.values, late.values)
        else:
            assert same_guard(read, was.guard1)
            fresh(read.guard, was.v1, was.j1, pointwise_min)
        checked.append(read.version < other.version)

    monkeypatch.setattr(async_pi, "_apply", recording)
    for inner in (partitioned(), random_fair(4)):
        schedule = delayed(inner, 3)
        steps, checked[:], trimmed[:] = [], [], []
        expected, _ = reference_run(problem, schedule, 1e-8, seed=9, steps=steps)
        taken.clear()
        done, _ = run(problem, Counted(**vars(schedule)), tol=1e-8, seed=9)
        assert done.t == expected.t and checked, inner.name
        assert any(checked) == (inner.seed is not None), inner.name
        assert (len(trimmed) > 0) == (name == "markov"), inner.name


def test_long_delays_read_frozen_copies(monkeypatch):
    """Under delays of 20 over 20-state blocks, steps read the opposite
    side as it stood several writes back.  The run still ends where the
    functional step's does, trace included."""
    problem = separated_model_to_problem(random_separated_model(np.random.default_rng(5), 40, 40))
    schedule = delayed(partitioned(20), 20)
    late = count_late_reads(monkeypatch)
    expected, rows = reference_run(problem, schedule, 1e-8, seed=9)
    state, trace = run(problem, schedule, tol=1e-8, seed=9, trace_out=[])
    assert_same_state(state, expected)
    assert state.t == expected.t == len(rows)
    assert list(map(repr, trace)) == list(map(repr, rows))
    assert sum(late) > 10


def test_evaluations_whose_guards_have_not_moved_are_skipped(monkeypatch, tmp_path):
    """The counterexample game under ``delayed:B=4,inner=random:seed=3``, as
    ``solve --algo async`` runs it.  ``run`` applies no evaluation whose
    subset array, read version and own version are those its side's last
    applied evaluation had (or its last improvement, where evaluations
    repeat improvements): neither guard the kernel reads has moved.  The
    run still ends where the functional step applying every step does,
    trace included."""
    path = str(tmp_path / "counterexample.json")
    assert cli.main(["counterexample", "--out", path]) == 0
    loaded = load_problem(path)
    problem = separate_markov_game(loaded.model, split_beta(loaded.model, loaded.beta))
    schedule = cli.parse_schedule("delayed:B=4,inner=random:seed=3")
    memo, applied, apply = {}, [], async_pi._apply

    def applying(problem, iterate, op, read):
        side = side_of(op.kind)
        own = iterate.one if side == 1 else iterate.two
        evaluates = op.kind in (Kind.MIN_EVAL, Kind.MAX_EVAL)
        if evaluates and side in memo:
            subset, *versions = memo[side]
            assert subset is not op.subset or versions != [read.version, own.version]
        apply(problem, iterate, op, read)
        applied.append(op)
        if evaluates or problem.evals_repeat_improvements:
            memo[side] = (op.subset, read.version, own.version)

    monkeypatch.setattr(async_pi, "_apply", applying)
    expected, rows = reference_run(problem, schedule, 1e-8, seed=0)
    state, trace = run(problem, schedule, tol=1e-8, seed=0, trace_out=[])
    assert_same_state(state, expected)
    assert state.t == expected.t == len(rows) > len(applied)
    assert list(map(repr, trace)) == list(map(repr, rows))


class TestStopCheck:
    """The stop gate: the certificate's bound on J1 alone."""

    def test_plain_tables_gate_j1_alone(self, explicit_problem):
        problem, tol = explicit_problem, 1e-8
        exact = value_iterate(problem, tol=1e-14)
        assert _converged(problem, exact.j1, tol) is not None
        # a move m at one state moves T1(T2 J1) by 0 to alpha**2 m, so the
        # step's span and r are at least m (1 - alpha**2): the sup bound is
        # >= m and the span bound (g = alpha**2 here) >= alpha**2 m / 2
        m = 3 * tol / problem.alpha ** 2
        moved = with_updates(exact.j1, [1], [exact.j1.values[1] + m])
        assert _converged(problem, moved, tol) is None

    @pytest.mark.parametrize("name", ["explicit_problem", "markov_sep"])
    def test_run_answers_with_the_estimate_it_certified(self, name, request):
        problem, tol = request.getfixturevalue(name), 1e-8
        assert problem.shift() is not None
        done, _ = run(problem, round_robin(), tol=tol)
        # replay to the stopping step: an improvement that left V1 = T1(T2 G1)
        state = initial_step_state(problem)
        for op in itertools.islice(round_robin().ops(problem), done.t):
            state = apply_step(problem, state, op, state)
        assert op.kind is Kind.MIN_IMPROVE and state.prov1.cover.all()
        estimate, bound, _ = certify(problem, state.prov1.source)
        assert bound <= tol and not np.array_equal(estimate.values, state.j1.values)
        assert np.array_equal(done.j1.values, estimate.values)
        assert done.t == state.t and done.j2.diff_bound(state.j2) == 0.0
        assert _converged(problem, state.j1, tol) is not None
        assert _converged(problem, problem.zero1(), tol) is None

    def test_bundle_section_of_converged_envelope_passes(self, markov_sep):
        """On a game J2 is an evaluated section that never matches V2, so
        the check reads J1 alone, and a converged one passes."""
        problem, tol = markov_sep, 1e-8
        solved, _ = run(problem, round_robin(), tol=1e-13)
        v2, nu = problem.t2_greedy(solved.j1, solved.policies.mu)
        j2 = ColumnMaxTable(problem.space2, tuple(c[:, [k]] for c, k in zip(v2.cols, nu)))
        assert all(c.shape == (problem.n, 1) for c in j2.cols)
        thr = tol * min(1.0, (1.0 - problem.alpha) / problem.alpha)
        assert j2.diff_norm(v2) > thr   # the section never matches its envelope
        assert _converged(problem, solved.j1, tol) is not None


class TestCertificate:
    """The bound async and both value iterations report against the actual
    weighted error of the table they return, and pair evaluation's error
    against its tol.  References come from outside the stop rules:
    HiGHS-certified sweeps for games, a fixed count of greedy sweeps for
    the rest, a dense linear solve for a fixed pair.  Each error may
    exceed the bound by the reference's own error, below 1e-11."""

    TOLS = (1e-3, 1e-5, 1e-7)

    def assert_bounds_cover_errors(self, problem, exact_j1):
        def err(values):
            return float(np.max(np.abs(values - exact_j1) / problem.space1.weights))
        for tol in self.TOLS:
            state, _ = run(problem, round_robin(), tol=tol)
            assert err(state.j1.values) <= tol + 1e-11
            result = value_iterate(problem, tol=tol)
            assert result.error_bound <= tol
            assert err(result.j1.values) <= result.error_bound + 1e-11

    @pytest.mark.parametrize("terminating", [False, True])
    def test_stochastic_games_against_highs(self, terminating):
        rng = np.random.default_rng(21 + terminating)
        games = [random_markov_game(rng, states, 3, 3, terminating=terminating)
                 for states in (1, 3, 5)]
        if terminating:   # one state and move, mass 0.99: the sup bound is nearly attained
            games.append(DiscountedMarkovGame([[[1.0]]], [[[[0.99]]]], 0.9, terminating=True))
        for game in games:
            problem = separate_markov_game(game)
            # terminating rows lose mass: the sup-bound fallback
            assert (problem.shift() is None) == terminating
            exact = highs_game_values(game)
            self.assert_bounds_cover_errors(problem, exact / problem.beta)
            for tol in self.TOLS:
                result = shapley_value_iteration(game, tol=tol)
                assert result.error_bound <= tol
                assert np.max(np.abs(result.j1.values - exact)) <= result.error_bound + 1e-11

    def test_control_problems_against_plain_sweeps(self):
        rng = np.random.default_rng(23)
        problems = [minimax_control_to_problem(random_control_model(rng, 5, stochastic=s))
                    for s in (False, True)]
        model = random_control_model(rng, 5, alpha=0.8, stochastic=True)
        weighted = WeightedSpace(5, rng.uniform(0.95, 1.05, 5))
        # two absorbing states at costs 1 and 0: the midpoint misses by
        # exactly its bound, so a bound any smaller fails here
        apart = MinimaxControlModel(WeightedSpace.unit(2),
                                    [[[[[1.0, 1.0, 0]]]], [[[[1.0, 0.0, 1]]]]], 0.9)
        problems += [
            minimax_control_to_problem(MinimaxControlModel(weighted, model.outcomes, 0.8)),
            minimax_control_to_problem(apart),
            separated_model_to_problem(random_separated_model(rng, 5, 4))]
        for problem in problems:
            assert problem.shift() is not None
            self.assert_bounds_cover_errors(problem, swept_j1(problem))

    @staticmethod
    def dense_pair_j1(problem, pair):
        """J1 of a fixed policy pair from one dense solve of its joint
        linear system, built from the stage arrays at the picks."""
        blocks = []
        for stage, picks, opposite in ((problem.stage1, pair.mu, problem.space2.size),
                                       (problem.stage2, pair.nu, problem.space1.size)):
            states = np.arange(picks.size)
            p, g, n = (a[states, picks] for a in (stage.prob, stage.cost, stage.next))
            moves = np.zeros((picks.size, opposite))
            np.add.at(moves, (np.repeat(states, n.shape[1]), n.ravel()), stage.scale * p.ravel())
            blocks.append(((p * g).sum(axis=1), moves))
        (c1, p1), (c2, p2) = blocks
        system = np.block([[np.eye(len(c1)), -p1], [-p2, np.eye(len(c2))]])
        return np.linalg.solve(system, np.concatenate([c1, c2]))[:len(c1)]

    def test_pair_value_against_dense_solve(self):
        rng = np.random.default_rng(24)
        problems = [separated_model_to_problem(random_separated_model(rng, 6, 5)),
                    minimax_control_to_problem(random_control_model(rng, 5)),
                    minimax_control_to_problem(random_control_model(rng, 5, stochastic=True))]
        pairs = [random_policies(problem, rng) for problem in problems]
        # a slow stochastic instance, where stopping on the raw residual
        # missed by up to 19 tol
        slow = minimax_control_to_problem(
            random_control_model(np.random.default_rng(0), 4, alpha=0.95, stochastic=True))
        problems.append(slow)
        pairs.append(random_policies(slow, np.random.default_rng(1)))
        for problem, pair in zip(problems, pairs):
            exact = self.dense_pair_j1(problem, pair)
            for tol in self.TOLS:
                j1 = policy_pair_value(problem, pair, tol=tol)
                assert np.max(np.abs(j1.values - exact) / problem.space1.weights) <= tol


class TestSchedules:
    def test_declared_fairness_horizons(self, explicit_problem):
        assert fairness_ok(round_robin(3), explicit_problem)
        assert fairness_ok(random_fair(0, 3), explicit_problem)
        assert fairness_ok(partitioned(2, 2), explicit_problem)
        assert fairness_ok(delayed(partitioned(8), 2), explicit_problem)

    def test_unfair_cycles(self, explicit_problem):
        """A cycle that leaves out a kind, or a state of one, is unfair,
        shuffled or not."""
        problem = explicit_problem
        all1, all2 = np.arange(problem.space1.size), np.arange(problem.space2.size)
        fair = [Operation(Kind.MIN_IMPROVE, all1), Operation(Kind.MIN_EVAL, all1),
                Operation(Kind.MAX_IMPROVE, all2), Operation(Kind.MAX_EVAL, all2)]
        assert fairness_ok(async_pi.Schedule("fair", lambda p: fair), problem)
        for unfair in ([Operation(Kind.MIN_EVAL, all1)] * 4, fair[:3],
                       fair[:3] + [Operation(Kind.MAX_EVAL, all2[1:])]):
            for seed in (None, 0):
                assert not fairness_ok(async_pi.Schedule("unfair", lambda p: unfair, seed),
                                       problem)

    def test_operation_subsets_are_distinct_states(self):
        """A subset names each state at most once, as ``run`` counts the
        tight and covered states by the entries a step writes."""
        assert list(Operation(Kind.MIN_EVAL, [2, 0, 1]).subset) == [2, 0, 1]
        for bad in ([1, 1], [0, 2, 0], [0, -1], []):
            with pytest.raises(ValueError, match="operation subsets must be"):
                Operation(Kind.MIN_EVAL, bad)

    def test_trace_is_deterministic(self, markov_sep):
        a = run(markov_sep, random_fair(3), tol=1e-9, seed=5, trace_out=[])[1]
        b = run(markov_sep, random_fair(3), tol=1e-9, seed=5, trace_out=[])[1]
        assert a and a == b

    def test_untraced_run_computes_no_probe(self, markov_sep, monkeypatch):
        """The probe runs once per applied step, and never without a trace."""
        calls, applied = [], count_applies(monkeypatch)
        probe = async_pi._probe_diff
        monkeypatch.setattr(async_pi, "_probe_diff", lambda *a: calls.append(1) or probe(*a))
        state, trace = run(markov_sep, random_fair(3), tol=1e-9, seed=5)
        assert trace == [] and calls == []
        applied.clear()
        _, trace = run(markov_sep, random_fair(3), tol=1e-9, seed=5, trace_out=[])
        assert len(calls) == len(applied) < len(trace) == state.t


class TestExtendedOperator:
    def test_fixed_point_of_G(self, explicit_problem):
        problem = explicit_problem
        exact = value_iterate(problem, tol=1e-13)

        def per_action(side, opposite, pad):
            counts = action_counts(problem, side)
            rows = np.full((counts.size, counts.max()), pad)
            for x, count in enumerate(counts):
                rows[x, :count] = [score_at(problem, side, x, a, opposite) for a in range(count)]
            return rows

        j2 = problem.t2_greedy(exact.j1)[0]
        q1 = per_action(1, j2.values, np.inf)
        q2 = per_action(2, exact.j1.values, -np.inf)
        fixed = QState(exact.j1, j2, q1, q2)
        rng = np.random.default_rng(8)
        pol = random_policies(problem, rng)
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
        beta = 1.0 / np.sqrt(0.9)
        problem = minimax_control_to_problem(markov_game_to_control(game), beta)
        ratio = verify_uniform_contraction(problem, 300, 2)
        assert ratio <= np.sqrt(0.9) + 1e-10

    def test_fixed_points_policy_independent(self, explicit_problem):
        rng = np.random.default_rng(10)
        points = [solve_G_fixed_point(explicit_problem,
                                      random_policies(explicit_problem, rng))
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
        state = initial_step_state(problem)
        for k, op in enumerate(ops):
            state = apply_step(problem, state, op, state)
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
        assert pointwise_min(v, v).diff_norm(pointwise_min(v, v)) == 0.0

    def test_single_state_arithmetic(self):
        lhs = abs(min(5.0, 1.0) - min(0.0, 0.0))
        rhs = max(abs(5.0 - 0.0), abs(1.0 - 0.0))
        assert lhs == 1.0 <= rhs == 5.0

    def test_large_sample(self):
        assert bool(check_minmax_nonexpansive(10**4, 12))
