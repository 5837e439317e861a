import numpy as np
import pytest

from minimaxpi import async_pi
from minimaxpi.async_pi import round_robin, run
from minimaxpi.core import value_iterate
from minimaxpi.errors import InputFieldError, InvalidBeta, NonContractive
from minimaxpi.models import (ColumnMaxTable, DiscountedMarkovGame, MinimaxControlModel,
                              minimax_control_to_problem, separate_markov_game,
                              separated_model_to_problem, shapley_value_iteration,
                              split_beta, stage_matrix)
from minimaxpi.core import ValueTable, WeightedSpace
from minimaxpi.matrix_game import min_simplex_max_linear

from helpers import (random_control_model, random_markov_game,
                     random_separated_model)
from instruments import (action_counts, check_monotone, estimate_modulus, le,
                         markov_game_to_control, pointwise_max, random_ordered_table2,
                         random_policies, random_table1, random_table2, score_at, value_at,
                         with_updates)


def one_state_game(payoff, alpha=0.5):
    A = np.array([[[payoff]]], dtype=float)
    Q = np.ones((1, 1, 1, 1))
    return DiscountedMarkovGame(A, Q, alpha)


class TestMarkovH:
    def test_self_loop_arithmetic(self):
        game = one_state_game(1.0, alpha=0.5)
        val = np.array([1.0]) @ stage_matrix(game, 0, np.array([2.0])) @ np.array([1.0])
        assert val == pytest.approx(2.0)

    def test_no_continuation_term(self):
        rng = np.random.default_rng(0)
        game = random_markov_game(rng, 2, 2, 2, alpha=0.7)
        u, v = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        val = u @ stage_matrix(game, 1, np.zeros(2)) @ v
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
            assert u @ stage_matrix(game, x, j) @ v == pytest.approx(expect, abs=1e-12)


def weighted_pair(alpha=0.81, weights=(1.0, 1.2)):
    """One game and one control model of the same dynamics: state 0 moves to
    state 1 at cost 1, state 1 stays at cost 0.  Their weighted modulus is
    alpha * weights[1] / weights[0]."""
    transitions = np.zeros((2, 1, 1, 2))
    transitions[..., 1] = 1.0
    game = DiscountedMarkovGame(np.array([[[1.0]], [[0.0]]]), transitions, alpha,
                                weights=list(weights))
    control = MinimaxControlModel(WeightedSpace(2, list(weights)),
                                  ((([[1.0, 1.0, 1]],),), (([[1.0, 0.0, 1]],),)), alpha)
    return game, control


class TestBetaScaling:
    def test_rejects_beta_below_one(self):
        with pytest.raises(InvalidBeta):
            split_beta(one_state_game(1.0), 0.9)

    def test_rejects_product_above_one(self):
        with pytest.raises(InvalidBeta):
            separate_markov_game(one_state_game(1.0, alpha=0.9), beta=1.2)

    def test_default_is_symmetric(self):
        assert split_beta(one_state_game(1.0, alpha=0.81)) == pytest.approx(1.0 / 0.9)

    @pytest.mark.parametrize("kind", ["game", "control"])
    @pytest.mark.parametrize("beta, message", [
        (1.0, "beta must exceed 1, got 1.0"),
        (0.5, "beta must exceed 1, got 0.5"),
        (2.0, "alpha*beta = 1.000000 must be below 1"),
        (2.5, "alpha*beta = 1.250000 must be below 1")])
    def test_refuses_a_split_outside_its_range(self, kind, beta, message):
        """beta <= 1 or alpha*beta >= 1, from the function or either builder."""
        game, control = weighted_pair(alpha=0.5)
        model, build = ((game, separate_markov_game) if kind == "game"
                        else (control, minimax_control_to_problem))
        for refuse in (split_beta, build):
            with pytest.raises(InvalidBeta) as info:
                refuse(model, beta)
            assert str(info.value) == message

    def test_games_and_control_share_the_default_split(self):
        """Weighted modulus 0.81 x 1.2 = 0.972 >= sqrt(0.81): the symmetric
        split would put the second half-stage at 0.9 x 1.2 > 1, so both
        kinds split at 1/sqrt(0.972), both half-stages at sqrt(0.972)."""
        game, control = weighted_pair()
        assert control.contraction_factor() == game.contraction_factor() == 0.81 * 1.2
        assert split_beta(control) == split_beta(game) == 1.0 / np.sqrt(0.81 * 1.2)
        for problem in (separate_markov_game(game), minimax_control_to_problem(control)):
            assert problem.alpha == pytest.approx(np.sqrt(0.81 * 1.2), abs=1e-15)
        # a random weighted game and its control reduction agree too
        rng = np.random.default_rng(40)
        game = random_markov_game(rng, 4, 2, 3, alpha=0.9)
        game = DiscountedMarkovGame(game.payoffs, game.transitions, 0.9,
                                    weights=rng.uniform(0.9, 1.1, 4))
        assert np.sqrt(0.9) <= game.contraction_factor() < 1.0
        control = markov_game_to_control(game)
        assert control.contraction_factor() == pytest.approx(game.contraction_factor(),
                                                             rel=1e-14)
        assert split_beta(control) == pytest.approx(split_beta(game), rel=1e-14)


class TestSeparateMarkovGame:
    def test_single_state_geometric_series(self):
        c, alpha = 1.5, 0.5
        game = one_state_game(c, alpha)
        sep = separate_markov_game(game)  # beta = 1/sqrt(alpha)
        result = value_iterate(sep, tol=1e-12)
        expect_game = c / (1.0 - alpha)
        assert sep.beta * result.j1.values[0] == pytest.approx(expect_game, abs=1e-9)
        assert result.j1.values[0] == pytest.approx(expect_game / sep.beta, abs=1e-9)

    def test_zero_game(self):
        sep = separate_markov_game(one_state_game(0.0))
        result = value_iterate(sep, tol=1e-12)
        assert abs(result.j1.values[0]) <= 1e-12
        assert np.max(np.abs(sep.t2_greedy(result.j1)[0].cols)) <= 1e-12

    def test_scaling_identity_vs_stage_value_iteration(self):
        rng = np.random.default_rng(5)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
        oracle = shapley_value_iteration(game, tol=1e-12)
        sep = separate_markov_game(game)
        result = value_iterate(sep, tol=1e-10)
        assert np.max(np.abs(sep.beta * result.j1.values - oracle.j1.values)) <= 1e-6

    def test_modulus_certification(self):
        rng = np.random.default_rng(6)
        for terminating in (False, True):
            game = random_markov_game(rng, 3, 2, 2, alpha=0.9,
                                      terminating=terminating)
            sep = separate_markov_game(game)
            bound = max(1.0 / sep.beta, game.alpha * sep.beta)
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
                abs(mu[x] @ stage_matrix(game, x, j_a) @ nu[x]
                    - mu[x] @ stage_matrix(game, x, j_b) @ nu[x])
                for x in range(3))
            worst = max(worst, moved / dist)
        assert worst <= 0.9 + 1e-10

    def test_joint_linear_solve_matches_iteration(self):
        rng = np.random.default_rng(31)
        sep = separate_markov_game(random_markov_game(rng, 3, 2, 3, alpha=0.9))
        pol = random_policies(sep, rng)
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
        game, beta = problem.game, problem.beta
        for _ in range(20):
            subset = rng.permutation(game.state_count)[:int(rng.integers(1, game.state_count + 1))]
            pol = random_policies(problem, rng)
            m1 = random_table1(problem, rng)
            m2 = random_table2(problem, rng)
            mats = [stage_matrix(game, x, m1.values, game.alpha * beta) for x in subset]
            assert np.array_equal(
                problem.min_eval_values(subset, pol.mu, m2),
                [value_at(m2, x, pol.mu[x]) / beta for x in subset])
            guard = pointwise_max(m2, problem.t2_policy(pol.nu, m1))
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
        pol = random_policies(problem, rng)
        j1, j2 = random_table1(problem, rng), random_table2(problem, rng)
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
            moved = with_updates(solved.j1, [x], [ulp])
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
        problem = separated_model_to_problem(zeroed)
        result = value_iterate(problem, tol=1e-12)
        assert result.j1.norm() <= 1e-12 and problem.t2_greedy(result.j1)[0].norm() <= 1e-12

    def test_two_state_chain(self):
        model = random_separated_model(np.random.default_rng(0), 1, 1)
        chain = type(model)(model.space1, model.space2,
                            (np.array([0]),), (np.array([1.0]),),
                            (np.array([0]),), (np.array([2.0]),), 0.5)
        problem = separated_model_to_problem(chain)
        result = value_iterate(problem, tol=1e-12)
        assert result.j1.values[0] == pytest.approx(8.0 / 3.0, abs=1e-10)
        assert problem.t2_greedy(result.j1)[0].values[0] == pytest.approx(10.0 / 3.0, abs=1e-10)

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
        assert np.max(np.abs(problem.t2_greedy(result.j1)[0].values - j2)) <= 1e-6


class TestMinimaxControl:
    def test_forced_geometric_series(self):
        model = MinimaxControlModel(
            WeightedSpace.unit(1), ((([[1.0, 1.0, 0]],),),), 0.5)
        beta = 1.0 / np.sqrt(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        result = value_iterate(problem, tol=1e-12)
        assert beta * result.j1.values[0] == pytest.approx(2.0, abs=1e-9)

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
        beta = 1.0 / np.sqrt(model.alpha)
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
        assert np.max(np.abs(beta * result.j1.values - j)) <= 1e-6

    def test_tabular_arrays_match_outcome_lists(self):
        rng = np.random.default_rng(18)
        model = random_control_model(rng, 5, alpha=0.9, max_u=3, max_v=3,
                                     stochastic=True)
        beta = 1.0 / np.sqrt(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        j1, j2 = random_table1(problem, rng), random_table2(problem, rng)
        pair = 0
        counts1, counts2 = action_counts(problem, 1), action_counts(problem, 2)
        for x, per_u in enumerate(model.outcomes):
            assert counts1[x] == len(per_u)
            for u, per_v in enumerate(per_u):
                assert score_at(problem, 1, x, u, j2.values) == pytest.approx(
                    j2.values[pair] / beta, rel=1e-15)
                assert counts2[pair] == len(per_v)
                for v, arr in enumerate(per_v):
                    nxt = arr[:, 2].astype(int)
                    expect = arr[:, 0] @ (arr[:, 1]
                                          + model.alpha * beta * j1.values[nxt])
                    assert score_at(problem, 2, pair, v, j1.values) == pytest.approx(
                        expect, rel=1e-14, abs=1e-15)
                pair += 1
        assert pair == problem.space2.size

    def test_modulus_certification(self):
        rng = np.random.default_rng(14)
        model = random_control_model(rng, 3, alpha=0.9)
        beta = 1.0 / np.sqrt(model.alpha)
        problem = minimax_control_to_problem(model, beta)
        bound = max(1.0 / beta, model.alpha * beta)
        assert estimate_modulus(problem, 150, 15) <= bound + 1e-10

    def test_game_reduction_is_monotone(self):
        rng = np.random.default_rng(16)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9, terminating=True)
        problem = minimax_control_to_problem(markov_game_to_control(game))
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

    @pytest.mark.parametrize("payoffs, transitions, weights, field, message", [
        (np.zeros((2, 2)), np.ones((2, 2, 2)), None, "payoffs",
         "payoffs must be [state][row][col]"),
        (np.zeros((2, 2, 2)), np.full((2, 2, 2, 3), 0.5), [-1.0, 1.0], "transitions",
         "transitions must be [state][row][col][next]"),
        (np.zeros((2, 2, 2)), np.full((2, 2, 2, 2), 0.5), [1.0, -1.0], "weights",
         "norm weights must be finite and strictly positive"),
        (np.zeros((2, 2, 2)), np.full((2, 2, 2, 2), 0.9), [1.0], "weights",
         "need one weight per state"),
    ], ids=["2d-payoffs", "transitions-shape-and-weights", "negative-weight",
            "too-few-weights-and-row-sums"])
    def test_game_fault_names_its_array(self, payoffs, transitions, weights, field, message):
        """Shapes first, then weights (the space's own message), then the rows."""
        with pytest.raises(InputFieldError) as info:
            DiscountedMarkovGame(payoffs, transitions, 0.9, weights=weights)
        assert (info.value.field, str(info.value)) == (field, message)

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
        assert value_at(a, 0, np.array([0.5, 0.5])) == pytest.approx(0.0)
        assert value_at(a, 0, np.array([1.0, 0.0])) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["values", "bundles"])
def test_updates_check_the_entries_they_write(kind, bad):
    """The executor's in-place write checks the kernel's output before it
    writes anything, so a non-finite entry for either table kind raises
    and leaves J, V, the guard and the policy as they were; a finite one
    is written, and the table the side was built from is never touched."""
    space = WeightedSpace.unit(3)
    if kind == "values":
        start, good, wrong = ValueTable(space, [1.0, 2.0, 3.0]), [4.0, 5.0], [4.0, bad]
        entries = start.values
    else:   # a one-column entry fills a bundle
        start = ColumnMaxTable(space, np.zeros((3, 2, 2)))
        good, wrong = np.ones((2, 2, 1)), np.array([[[1.0], [1.0]], [[1.0], [bad]]])
        entries = start.cols

    def tables(side):
        return [(t.cols if kind == "bundles" else t.values).copy()
                for t in (side.j, side.v, side.g)] + [side.policy.copy()]

    given = entries.copy()
    side = async_pi._Side(start, start, np.zeros(3, dtype=int), np.maximum)
    side.improved(np.array([0, 2]), np.asarray(good), np.ones(2, dtype=int), None, False)
    written = tables(side)
    assert all(np.array_equal(t[[0, 2]], np.broadcast_to(good, t[[0, 2]].shape))
               for t in written[:2])
    assert list(written[3]) == [1, 0, 1]
    with pytest.raises(ValueError, match="finite"):
        side.improved(np.array([0, 2]), np.asarray(wrong), np.ones(2, dtype=int), None, False)
    assert all(np.array_equal(a, b) for a, b in zip(tables(side), written))
    assert np.array_equal(entries, given)


class TestColumnBundles:
    """The fixed-shape bundle array: a narrower bundle is stored with a
    column repeated, so repeating columns may change no reading."""

    def test_repeated_columns_change_no_reading(self):
        rng = np.random.default_rng(42)
        s, n, m = 6, 3, 3
        problem = separate_markov_game(random_markov_game(rng, s, n, m, alpha=0.9))
        every = np.arange(s)
        for _ in range(10):
            lo, hi = random_ordered_table2(problem, rng)
            other = random_table2(problem, rng)
            # every column once, in a per-state order, then two repeats
            order = np.concatenate((rng.permuted(np.tile(np.arange(m), (s, 1)), axis=1),
                                    rng.integers(0, m, (s, 2))), axis=1)
            wide = ColumnMaxTable(problem.space2,
                                  np.take_along_axis(lo.cols, order[:, None, :], axis=2))
            spread = np.ptp(np.concatenate((lo.cols, hi.cols, other.cols), axis=2))
            slack = 1e-12 * spread
            for x in every:
                u = rng.dirichlet(np.ones(n))
                assert value_at(wide, x, u) == value_at(lo, x, u)
            wide_values, _ = problem.min_improve(every, wide)
            values, _ = problem.min_improve(every, lo)
            assert np.max(np.abs(wide_values - values)) <= slack
            assert abs(wide.diff_norm(other) - lo.diff_norm(other)) <= slack
            assert wide.diff_norm(lo) <= slack
            assert le(wide, hi, slack)[0] and le(lo, hi, slack)[0]
            assert le(wide, lo, slack)[0] and le(lo, wide, slack)[0]

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
