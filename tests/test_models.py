import numpy as np
import pytest

from minimaxpi.async_pi import round_robin, run
from minimaxpi.core import check_monotone, estimate_modulus, value_iterate
from minimaxpi.errors import InvalidBeta, NonContractive
from minimaxpi.models import (BetaScaling, ColumnMaxTable, DiscountedMarkovGame,
                              MinimaxControlModel, default_beta, markov_H,
                              markov_game_to_control, minimax_control_to_problem,
                              separate_markov_game, separated_model_to_problem,
                              shapley_value_iteration, stage_matrix)
from minimaxpi.core import ValueTable, WeightedSpace
from minimaxpi.matrix_game import min_simplex_max_linear

from helpers import (random_control_model, random_markov_game,
                     random_separated_model)


def one_state_game(payoff, alpha=0.5):
    A = np.array([[[payoff]]], dtype=float)
    Q = np.ones((1, 1, 1, 1))
    return DiscountedMarkovGame(A, Q, alpha)


class TestMarkovH:
    def test_self_loop_arithmetic(self):
        game = one_state_game(1.0, alpha=0.5)
        val = markov_H(game, 0, [1.0], [1.0], np.array([2.0]))
        assert val == pytest.approx(2.0)

    def test_no_continuation_term(self):
        rng = np.random.default_rng(0)
        game = random_markov_game(rng, 2, 2, 2, alpha=0.7)
        u, v = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        val = markov_H(game, 1, u, v, np.zeros(2))
        assert val == pytest.approx(float(u @ game.payoffs[1] @ v), abs=1e-14)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(1)
        game = random_markov_game(rng, 2, 3, 2, alpha=0.9)
        u, v = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))
        j = rng.uniform(-2, 2, 2)
        for x in range(2):
            expect = sum(
                u[i] * v[k] * (game.payoffs[x, i, k]
                               + game.alpha * sum(game.transitions[x, i, k, y] * j[y]
                                                  for y in range(2)))
                for i in range(3) for k in range(2))
            assert markov_H(game, x, u, v, j) == pytest.approx(expect, abs=1e-12)


class TestBetaScaling:
    def test_rejects_beta_below_one(self):
        with pytest.raises(InvalidBeta):
            BetaScaling(0.9)

    def test_rejects_product_above_one(self):
        with pytest.raises(InvalidBeta):
            separate_markov_game(one_state_game(1.0, alpha=0.9), beta=1.2)

    def test_default_is_symmetric(self):
        beta = default_beta(0.81)
        assert beta.beta == pytest.approx(1.0 / 0.9)


class TestSeparateMarkovGame:
    def test_single_state_geometric_series(self):
        c, alpha = 1.5, 0.5
        game = one_state_game(c, alpha)
        sep = separate_markov_game(game)  # beta = 1/sqrt(alpha)
        result = value_iterate(sep, tol=1e-12)
        expect_game = c / (1.0 - alpha)
        assert sep.original_values(result.j1)[0] == pytest.approx(expect_game, abs=1e-9)
        assert result.j1.values[0] == pytest.approx(expect_game / sep.beta.beta, abs=1e-9)

    def test_zero_game(self):
        sep = separate_markov_game(one_state_game(0.0))
        result = value_iterate(sep, tol=1e-12)
        assert abs(result.j1.values[0]) <= 1e-12
        assert result.j2.norm() <= 1e-12

    def test_scaling_identity_vs_stage_value_iteration(self):
        rng = np.random.default_rng(5)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
        oracle = shapley_value_iteration(game, tol=1e-12)
        sep = separate_markov_game(game)
        result = value_iterate(sep, tol=1e-10)
        assert np.max(np.abs(sep.original_values(result.j1) - oracle.values)) <= 1e-6

    def test_modulus_certification(self):
        rng = np.random.default_rng(6)
        for terminating in (False, True):
            game = random_markov_game(rng, 3, 2, 2, alpha=0.9,
                                      terminating=terminating)
            sep = separate_markov_game(game)
            bound = max(1.0 / sep.beta.beta, game.alpha * sep.beta.beta)
            assert estimate_modulus(sep, 100, 7) <= bound + 1e-10

    def test_monotone(self):
        rng = np.random.default_rng(8)
        sep = separate_markov_game(random_markov_game(rng, 3, 2, 2))
        assert bool(check_monotone(sep, 100, 9))

    def test_stage_operator_contracts_at_the_discount(self):
        # sampling oracle on the unsplit fixed-policy stage operator
        rng = np.random.default_rng(30)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
        worst = 0.0
        for _ in range(200):
            j_a = rng.uniform(-2, 2, 3)
            j_b = rng.uniform(-2, 2, 3)
            dist = float(np.max(np.abs(j_a - j_b)))
            if dist < 1e-12:
                continue
            mu = rng.dirichlet(np.ones(2), 3)
            nu = rng.dirichlet(np.ones(2), 3)
            moved = max(
                abs(markov_H(game, x, mu[x], nu[x], j_a)
                    - markov_H(game, x, mu[x], nu[x], j_b))
                for x in range(3))
            worst = max(worst, moved / dist)
        assert worst <= 0.9 + 1e-10

    def test_joint_linear_solve_matches_iteration(self):
        rng = np.random.default_rng(31)
        sep = separate_markov_game(random_markov_game(rng, 3, 2, 3, alpha=0.9))
        pol = sep.random_policies(rng)
        j1, j2 = sep.joint_policy_fixed_point(pol)
        i1, i2 = sep.zero1(), sep.zero2()
        for _ in range(2000):
            i1, i2 = sep.t1_policy(pol.mu, i2), sep.t2_policy(pol.nu, i1)
        assert j1.diff_norm(i1) <= 1e-10
        assert j2.diff_norm(i2) <= 1e-10


class TestMarkovKernels:
    """The four batched kernels of the reformulated game against per-state
    formulas, exactly, on random subsets in random order."""

    # at 4x4 the guard max[V2, J2] has 8 lines, above the enumeration
    # budget, so min_improve goes through the simplex
    @pytest.mark.parametrize("shape", [(1, 2, 2), (4, 2, 3), (10, 3, 3), (6, 4, 4)])
    def test_batched_kernels_match_per_state_formulas(self, shape):
        rng = np.random.default_rng(sum(shape))
        problem = separate_markov_game(random_markov_game(rng, *shape, alpha=0.9))
        game, beta = problem.game, problem.beta.beta
        for _ in range(20):
            subset = rng.permutation(game.state_count)[:int(rng.integers(1, game.state_count + 1))]
            pol = problem.random_policies(rng)
            m1 = problem.random_table1(rng)
            m2 = problem.random_table2(rng)
            mats = [stage_matrix(game, x, m1.values, game.alpha * beta) for x in subset]
            assert np.array_equal(
                problem.min_eval_values(subset, pol.mu, m2),
                [m2.value_at(x, pol.mu[x]) / beta for x in subset])
            guard = m2.pointwise_max(problem.t2_policy(pol.nu, m1))
            for table in (m2, guard):
                values, picks = problem.min_improve(subset, table)
                for i, x in enumerate(subset):
                    val, u = min_simplex_max_linear(table.cols[x].T)
                    assert values[i] == val / beta and np.array_equal(picks[i], u)
            entries = problem.max_eval_entries(subset, pol.nu, m1)
            for entry, mat, x in zip(entries, mats, subset):
                assert np.array_equal(entry, mat[:, [pol.nu[x]]])
            for mu in (pol.mu, None):
                entries, picks = problem.max_improve(subset, m1, mu)
                for entry, pick, mat, x in zip(entries, picks, mats, subset):
                    weight = np.full(problem.n, 1.0 / problem.n) if mu is None else mu[x]
                    assert np.array_equal(entry, mat)
                    assert pick == np.argmax(weight @ mat)

    def test_full_operators_are_the_kernels_over_every_state(self):
        rng = np.random.default_rng(41)
        problem = separate_markov_game(random_markov_game(rng, 5, 3, 2, alpha=0.9))
        pol = problem.random_policies(rng)
        j1, j2 = problem.random_table1(rng), problem.random_table2(rng)
        every = np.arange(5)
        assert isinstance(problem.t1_policy(pol.mu, j2), ValueTable)
        assert np.array_equal(problem.t1_policy(pol.mu, j2).values,
                              problem.min_eval_values(every, pol.mu, j2))
        for a, b in zip(problem.t2_policy(pol.nu, j1).cols,
                        problem.max_eval_entries(every, pol.nu, j1)):
            assert np.array_equal(a, b)
        greedy, nu = problem.t2_greedy(j1, pol.mu)
        entries, picks = problem.max_improve(every, j1, pol.mu)
        assert isinstance(greedy, ColumnMaxTable) and np.array_equal(nu, picks)
        for a, b in zip(greedy.cols, entries):
            assert np.array_equal(a, b)

    def test_max_picks_stable_at_an_equalizing_strategy(self):
        # rock-paper-scissors stages plus noise: every stage game has a mixed
        # saddle, and the minimizer's equalizing strategy leaves the maximizer
        # indifferent among the columns of its support
        rng = np.random.default_rng(3)
        noise = random_markov_game(rng, 10, 3, 3, alpha=0.9)
        cycle = np.eye(3)[[1, 2, 0]] - np.eye(3)[[2, 0, 1]]
        game = DiscountedMarkovGame(noise.payoffs + cycle, noise.transitions, 0.9)
        problem = separate_markov_game(game)
        solved, _ = run(problem, round_robin(), tol=1e-12)
        every = np.arange(10)
        _, mu = problem.t1_greedy(problem.t2_greedy(solved.j1)[0])
        _, picks = problem.max_improve(every, solved.j1, mu)
        for _ in range(200):
            x = int(rng.integers(10))
            ulp = np.nextafter(solved.j1.values[x], rng.choice([-np.inf, np.inf]))
            moved = solved.j1.with_updates([x], [ulp])
            assert np.array_equal(problem.max_improve(every, moved, mu)[1], picks)


class TestSeparatedModel:
    def test_zero_costs(self):
        rng = np.random.default_rng(10)
        model = random_separated_model(rng, 3, 3)
        zeroed = type(model)(model.space1, model.space2, model.next1,
                             tuple(np.zeros_like(c) for c in model.cost1),
                             model.next2,
                             tuple(np.zeros_like(c) for c in model.cost2),
                             model.alpha)
        result = value_iterate(separated_model_to_problem(zeroed), tol=1e-12)
        assert result.j1.norm() <= 1e-12 and result.j2.norm() <= 1e-12

    def test_two_state_chain(self):
        model = random_separated_model(np.random.default_rng(0), 1, 1)
        chain = type(model)(model.space1, model.space2,
                            (np.array([0]),), (np.array([1.0]),),
                            (np.array([0]),), (np.array([2.0]),), 0.5)
        result = value_iterate(separated_model_to_problem(chain), tol=1e-12)
        assert result.j1.values[0] == pytest.approx(8.0 / 3.0, abs=1e-10)
        assert result.j2.values[0] == pytest.approx(10.0 / 3.0, abs=1e-10)

    def test_ties_pick_the_first_move(self):
        model = random_separated_model(np.random.default_rng(0), 1, 1)
        tied = type(model)(model.space1, model.space2,
                           (np.array([0, 0, 0]),), (np.array([2.0, 1.0, 1.0]),),
                           (np.array([0, 0]),), (np.array([3.0, 3.0]),), 0.5)
        problem = separated_model_to_problem(tied)
        _, mu = problem.t1_greedy(problem.zero2())
        _, nu = problem.t2_greedy(problem.zero1())
        assert mu[0] == 1 and nu[0] == 0

    def test_horizon_truncation_oracle(self):
        rng = np.random.default_rng(11)
        model = random_separated_model(rng, 3, 4, alpha=0.8)
        problem = separated_model_to_problem(model)
        result = value_iterate(problem, tol=1e-10)
        # finite-horizon recursion, long horizon, explicit loops
        j1 = np.zeros(3)
        j2 = np.zeros(4)
        for _ in range(200):
            n1 = np.array([min(model.cost1[x][a] + model.alpha * j2[model.next1[x][a]]
                               for a in range(model.next1[x].size)) for x in range(3)])
            n2 = np.array([max(model.cost2[x][a] + model.alpha * j1[model.next2[x][a]]
                               for a in range(model.next2[x].size)) for x in range(4)])
            j1, j2 = n1, n2
        assert np.max(np.abs(result.j1.values - j1)) <= 1e-6
        assert np.max(np.abs(result.j2.values - j2)) <= 1e-6


class TestMinimaxControl:
    def test_forced_geometric_series(self):
        model = MinimaxControlModel(
            WeightedSpace.unit(1), ((([[1.0, 1.0, 0]],),),), 0.5)
        beta = default_beta(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        result = value_iterate(problem, tol=1e-12)
        assert beta.beta * result.j1.values[0] == pytest.approx(2.0, abs=1e-9)

    def test_deterministic_equals_point_mass(self):
        rng = np.random.default_rng(12)
        det = random_control_model(rng, 3, max_u=2, max_v=2, stochastic=False)
        result_det = value_iterate(minimax_control_to_problem(det, 1.02), tol=1e-11)
        # same model re-expressed with split point masses
        outcomes = tuple(
            tuple(tuple([[0.5, cell[0][1], cell[0][2]],
                         [0.5, cell[0][1], cell[0][2]]] for cell in per_v)
                  for per_v in per_u)
            for per_u in det.outcomes)
        split = MinimaxControlModel(det.space, outcomes, det.alpha)
        result_split = value_iterate(minimax_control_to_problem(split, 1.02), tol=1e-11)
        assert result_det.j1.diff_norm(result_split.j1) <= 1e-9

    def test_direct_minmax_vi_oracle(self):
        rng = np.random.default_rng(13)
        model = random_control_model(rng, 4, alpha=0.9, max_u=2, max_v=2,
                                     stochastic=True)
        beta = default_beta(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        result = value_iterate(problem, tol=1e-10)
        j = np.zeros(4)
        for _ in range(400):
            new = np.empty(4)
            for x in range(4):
                new[x] = min(
                    max(float(arr[:, 0] @ (arr[:, 1]
                                           + model.alpha * j[arr[:, 2].astype(int)]))
                        for arr in per_u)
                    for per_u in model.outcomes[x])
            j = new
        assert np.max(np.abs(beta.beta * result.j1.values - j)) <= 1e-6

    def test_tabular_arrays_match_outcome_lists(self):
        rng = np.random.default_rng(18)
        model = random_control_model(rng, 5, alpha=0.9, max_u=3, max_v=3,
                                     stochastic=True)
        beta = default_beta(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        j1, j2 = problem.random_table1(rng), problem.random_table2(rng)
        pair = 0
        for x, per_u in enumerate(model.outcomes):
            assert problem.actions1[x] == tuple(range(len(per_u)))
            for u, per_v in enumerate(per_u):
                assert problem.eval1(x, u, j2.values) == pytest.approx(
                    j2.values[pair] / beta.beta, rel=1e-15)
                assert problem.actions2[pair] == tuple(range(len(per_v)))
                for v, arr in enumerate(per_v):
                    nxt = arr[:, 2].astype(int)
                    expect = arr[:, 0] @ (arr[:, 1]
                                          + model.alpha * beta.beta * j1.values[nxt])
                    assert problem.eval2(pair, v, j1.values) == pytest.approx(
                        expect, rel=1e-14, abs=1e-15)
                pair += 1
        assert pair == problem.space2.size

    def test_modulus_certification(self):
        rng = np.random.default_rng(14)
        model = random_control_model(rng, 3, alpha=0.9)
        beta = default_beta(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        bound = max(1.0 / beta.beta, model.alpha * beta.beta)
        assert estimate_modulus(problem, 150, 15) <= bound + 1e-10

    def test_game_reduction_is_monotone(self):
        rng = np.random.default_rng(16)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9, terminating=True)
        problem = minimax_control_to_problem(markov_game_to_control(game),
                                             default_beta(game.alpha))
        assert bool(check_monotone(problem, 200, 17))


class TestValidation:
    def test_nonstochastic_rows_rejected(self):
        A = np.zeros((1, 1, 1))
        Q = np.full((1, 1, 1, 1), 0.9)
        with pytest.raises(ValueError):
            DiscountedMarkovGame(A, Q, 0.5)
        game = DiscountedMarkovGame(A, Q, 0.5, terminating=True)
        assert game.contraction_factor() == pytest.approx(0.45)

    def test_weighted_screen_can_fail(self):
        A = np.zeros((2, 1, 1))
        Q = np.zeros((2, 1, 1, 2))
        Q[0, 0, 0, 1] = 1.0
        Q[1, 0, 0, 0] = 1.0
        game = DiscountedMarkovGame(A, Q, 0.9, terminating=True,
                                    weights=np.array([1.0, 10.0]))
        assert game.contraction_factor() > 1.0
        with pytest.raises(NonContractive):
            separate_markov_game(game, 1.05)

    @pytest.mark.parametrize("weights", [[-1.0, 1.0], [1.0, 1.0, 3.0], [1.0, 0.0]])
    def test_game_weights_checked_at_construction(self, weights):
        with pytest.raises(ValueError):
            DiscountedMarkovGame(np.zeros((2, 2, 2)), np.full((2, 2, 2, 2), 0.5), 0.9,
                                 weights=np.array(weights))

    def test_game_space_built_once(self):
        game = DiscountedMarkovGame(np.zeros((2, 2, 2)), np.full((2, 2, 2, 2), 0.5), 0.9,
                                    weights=np.array([1.0, 2.0]))
        assert game.space is game.space
        assert np.array_equal(game.space.weights, [1.0, 2.0])

    def test_column_bundle_norms(self):
        space = WeightedSpace.unit(1)
        a = ColumnMaxTable(space, (np.array([[1.0, -1.0], [-1.0, 1.0]]),))
        b = ColumnMaxTable(space, (np.array([[0.0], [0.0]]),))
        # max of the two pennies columns is |u1 - u2|, peaking at the vertices
        assert a.diff_norm(b) == pytest.approx(1.0, abs=1e-9)
        assert a.value_at(0, np.array([0.5, 0.5])) == pytest.approx(0.0)
        assert a.value_at(0, np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestColumnBundles:
    """The fixed-shape bundle array: a narrower bundle is stored with a
    column repeated, so repeating columns may change no reading."""

    def test_repeated_columns_change_no_reading(self):
        rng = np.random.default_rng(42)
        s, n, m = 6, 3, 3
        problem = separate_markov_game(random_markov_game(rng, s, n, m, alpha=0.9))
        every = np.arange(s)
        for _ in range(10):
            lo, hi = problem.random_ordered_table2(rng)
            other = problem.random_table2(rng)
            # every column once, in a per-state order, then two repeats
            order = np.concatenate((rng.permuted(np.tile(np.arange(m), (s, 1)), axis=1),
                                    rng.integers(0, m, (s, 2))), axis=1)
            wide = ColumnMaxTable(problem.space2,
                                  np.take_along_axis(lo.cols, order[:, None, :], axis=2))
            spread = np.ptp(np.concatenate((lo.cols, hi.cols, other.cols), axis=2))
            slack = 1e-12 * spread
            for x in every:
                u = rng.dirichlet(np.ones(n))
                assert wide.value_at(x, u) == lo.value_at(x, u)
            wide_values, _ = problem.min_improve(every, wide)
            values, _ = problem.min_improve(every, lo)
            assert np.max(np.abs(wide_values - values)) <= slack
            assert abs(wide.diff_norm(other) - lo.diff_norm(other)) <= slack
            assert wide.diff_norm(lo) <= slack
            assert wide.le(hi, slack)[0] and lo.le(hi, slack)[0]
            assert wide.le(lo, slack)[0] and lo.le(wide, slack)[0]

    @pytest.mark.parametrize("cols", [
        np.array([[[1.0, np.nan]], [[0.0, 0.0]]]),
        np.zeros((3, 2, 2)),
        np.zeros((2, 2)),
        np.zeros((2, 2, 0)),
        (np.zeros((2, 1)), np.zeros((2, 2))),
    ], ids=["non-finite", "state-count", "2-D", "zero-width", "ragged"])
    def test_malformed_bundles_rejected(self, cols):
        with pytest.raises(ValueError):
            ColumnMaxTable(WeightedSpace.unit(2), cols)
