import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minimaxpi import matrix_game
from minimaxpi.errors import LPNumericalFailure
from minimaxpi.matrix_game import (_ENUM_BUDGET, _enumerate_min_max, _simplex_min_max,
                                   min_simplex_max_linear, solve_matrix_game)
from minimaxpi.models import separate_markov_game

from helpers import highs_min_max, random_markov_game


def saddle_certificates(M, sol, tol):
    M = np.asarray(M, dtype=float)
    assert float(np.max(sol.u_star @ M)) <= sol.value + tol
    assert float(np.min(M @ sol.v_star)) >= sol.value - tol
    assert abs(sol.u_star.sum() - 1.0) <= 1e-9
    assert abs(sol.v_star.sum() - 1.0) <= 1e-9
    assert np.min(sol.u_star) >= 0.0 and np.min(sol.v_star) >= 0.0


def game_value(M):
    return solve_matrix_game(M).value


def spread(M):
    return float(np.max(M) - np.min(M))


class TestSolveMatrixGame:
    def test_matching_pennies(self):
        sol = solve_matrix_game([[1, -1], [-1, 1]])
        assert sol.value == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(sol.u_star, [0.5, 0.5], atol=1e-9)
        assert np.allclose(sol.v_star, [0.5, 0.5], atol=1e-9)

    def test_single_entry(self):
        sol = solve_matrix_game([[2.5]])
        assert sol.value == 2.5
        assert np.allclose(sol.u_star, [1.0]) and np.allclose(sol.v_star, [1.0])

    def test_pure_saddle_by_support_enumeration(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        # oracle: scan all pure pairs for the saddle condition
        saddles = [(i, j) for i, j in itertools.product(range(2), range(2))
                   if M[i, j] == M[i, :].max() and M[i, j] == M[:, j].min()]
        assert saddles == [(0, 1)]
        sol = solve_matrix_game(M)
        assert sol.value == 2.0
        assert np.allclose(sol.u_star, [1.0, 0.0])
        assert np.allclose(sol.v_star, [0.0, 1.0])

    def test_duality_on_random_games(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            M = rng.uniform(-5, 5, (n, m))
            sol = solve_matrix_game(M)
            saddle_certificates(M, sol, 1e-8)
            best_reply = float(np.max(sol.u_star @ M))
            held = float(np.min(M @ sol.v_star))
            assert abs(best_reply - held) <= 1e-8

    def test_shift_and_scale_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            M = rng.uniform(-3, 3, (3, 3))
            base = solve_matrix_game(M)
            shifted = solve_matrix_game(M + 2.5)
            assert shifted.value == pytest.approx(base.value + 2.5, abs=1e-8)
            assert np.allclose(shifted.u_star, base.u_star, atol=1e-7)
            assert np.allclose(shifted.v_star, base.v_star, atol=1e-7)
            scaled = solve_matrix_game(3.0 * M)
            assert scaled.value == pytest.approx(3.0 * base.value, abs=1e-8)
            assert np.allclose(scaled.u_star, base.u_star, atol=1e-7)
            assert np.allclose(scaled.v_star, base.v_star, atol=1e-7)

    def test_batch_shapes(self):
        M = np.random.default_rng(2).uniform(-1, 1, (2, 3, 4, 5))
        sol = solve_matrix_game(M)
        assert sol.value.shape == (2, 3)
        assert sol.u_star.shape == (2, 3, 4) and sol.v_star.shape == (2, 3, 5)
        assert isinstance(solve_matrix_game(M[0, 0]).value, float)

    def test_pure_saddle_ties_pick_lowest_indices(self):
        sol = solve_matrix_game(np.zeros((3, 2)))
        assert np.array_equal(sol.u_star, [1.0, 0.0, 0.0])
        assert np.array_equal(sol.v_star, [1.0, 0.0])


class TestMinSimplexMaxLinear:
    def test_single_line_hits_vertex(self):
        value, u = min_simplex_max_linear([[3.0, 1.0]])
        assert value == 1.0
        assert np.allclose(u, [0.0, 1.0])

    def test_matching_pennies_columns(self):
        value, u = min_simplex_max_linear([[1.0, -1.0], [-1.0, 1.0]])
        assert value == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(u, [0.5, 0.5], atol=1e-9)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(2)
        lines = [(float(rng.uniform(-1, 1)), rng.uniform(-2, 2, 3)) for _ in range(3)]
        offsets = np.array([off for off, _ in lines])
        coeffs = np.array([cf for _, cf in lines])
        value, u = min_simplex_max_linear(coeffs + offsets[:, None])
        step = 1e-3
        best = np.inf
        for a in np.arange(0.0, 1.0 + step / 2, step):
            for b in np.arange(0.0, 1.0 - a + step / 2, step):
                point = np.array([a, b, 1.0 - a - b])
                best = min(best, float(np.max(offsets + coeffs @ point)))
        assert abs(value - best) <= 1e-3

    def test_reproduces_game_value_from_columns(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            M = rng.uniform(-2, 2, (3, 4))
            sol = solve_matrix_game(M)
            value, _ = min_simplex_max_linear(M.T)
            assert abs(value - sol.value) <= 1e-9

    def test_enumeration_fallback_agrees_with_simplex(self):
        # two independent methods on the same normalized instance: the
        # batched simplex and the vertex enumeration
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_lines, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            offsets = rng.uniform(-2, 2, n_lines)
            coeffs = rng.uniform(-3, 3, (n_lines, n)) + offsets[:, None]
            unit = (coeffs - coeffs.min()) / spread(coeffs)
            simplex, _ = _simplex_min_max(unit[None], np.ones(1))
            enumerated, _ = _enumerate_min_max(unit[None])
            assert abs(simplex[0] - enumerated[0]) <= 1e-9

    def test_ill_scaled_near_duplicate_lines(self):
        # regression: near-identical tiny coefficients force a microscopic
        # pivot whose noise amplification defeated the plain simplex
        coeffs = np.array([
            [5.0980627432384318e-01, -1.9606723173939699e-01],
            [6.9772438424653416e-06, 6.9772438422432970e-06],
            [8.8319863487987393e-01, -1.1812812717044197e-01],
        ])
        value, u = min_simplex_max_linear(coeffs)
        assert abs(value - highs_min_max(np.zeros(3), coeffs)) <= 1e-9
        assert abs(u.sum() - 1.0) <= 1e-9 and np.min(u) >= 0.0

    def test_repeated_and_constant_lines(self):
        # lines 0.5, 0.5 and u'[1, 1] - 1 = 0, offsets folded in
        value, u = min_simplex_max_linear([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        assert value == pytest.approx(0.5, abs=1e-12)
        assert abs(u.sum() - 1.0) <= 1e-9

    def test_pure_strategies_win_ties(self):
        # every strategy is optimal: the first pure one is reported
        value, u = min_simplex_max_linear(np.ones((4, 3)))
        assert value == 1.0 and np.array_equal(u, [1.0, 0.0, 0.0])

    def test_reported_value_is_attained(self):
        rng = np.random.default_rng(5)
        offsets, coeffs = rng.uniform(-1, 1, (40, 5)), rng.uniform(-1, 1, (40, 5, 3))
        values, u = min_simplex_max_linear(coeffs + offsets[..., None])
        attained = np.max(offsets + np.einsum("bln,bn->bl", coeffs, u), axis=1)
        assert np.max(np.abs(values - attained)) <= 1e-14
        assert np.all(u >= 0.0) and np.allclose(u.sum(axis=1), 1.0, atol=1e-15)


class TestSimplex:
    """Instances above the enumeration budget, which the batched simplex
    solves, against HiGHS."""

    def test_near_degenerate_instance(self):
        # regression: four lines over seven strategies, entries 1e-8 apart
        # from 0, on which the two-phase simplex reported 1.0; the optimum is
        # about 1/3, e.g. at (e_2 + e_4 + e_6)/3
        coeffs = np.array([[1, 1e-8, 1, 1, 0, .5, 0],
                           [1e-8, 1, 0, .5, 1e-8, .5, 1],
                           [1e-8, 0, 1e-8, .5, 1e-8, .5, 1],
                           [0, .5, 1e-8, 0, 1, 1, 1e-8]])
        assert comb(4 + 7, 7) - 1 > _ENUM_BUDGET
        value, u = min_simplex_max_linear(coeffs)
        assert abs(value - highs_min_max(np.zeros(4), coeffs)) <= 1e-9 * spread(coeffs)
        assert value == float(np.max(coeffs @ u))

    def test_near_degenerate_oracle_instance(self):
        # HiGHS at its default tolerances gives 0.4999999999999997 here; the
        # optimum is 0.500000333333...
        coeffs = np.array([[1, 1e-6, 0, 0, .5], [0, 1e-6, .5, .5, 0], [1, .5, 1, 1, .5],
                           [.5, 1, 0, 1, 1e-6], [1, 0, .5, 1e-6, .5],
                           [1e-6, 1e-6, .5, 0, 1], [1, 0, 1, .5, 1e-6]])
        assert comb(7 + 5, 5) - 1 > _ENUM_BUDGET
        oracle = highs_min_max(np.zeros(7), coeffs)
        assert abs(oracle - 0.500000333333) <= 1e-11
        value, _ = min_simplex_max_linear(coeffs)
        assert abs(value - oracle) <= 1e-9 * spread(coeffs)

    @pytest.mark.parametrize("M", [
        [[0, 0, 3, 3, 3], [3, 3, 3, 3, 3], [3, 3, 0, 1e-8, 0], [3, 3, 3, 3, 3], [3, 3, 3, 3, 3]],
        [[3, 0, 0, 0, 0], [1e-9, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1e-9, 0, 0, 0]],
    ], ids=["tiny-pivot", "tiny-entries"])
    def test_degenerate_games_agree_with_enumeration(self, M):
        """Regressions, both players' LPs of 5x5 games: on the first a pivot
        of 3e-9 left rounding that failed the certificate (gap 1.5e-8 x
        spread, so the game raised); on the second, column entries of 3e-10
        (normalized) could not pivot, and the simplex stopped 1.7e-10 x
        spread off.  Rebuilt tableaus and pivots down to 1e-13 give both to
        rounding."""
        M = np.array(M, dtype=float)
        assert comb(5 + 5, 5) - 1 > _ENUM_BUDGET
        for coeffs in (M.T, -M):
            unit = (coeffs - coeffs.min()) / spread(coeffs)
            simplex, _ = _simplex_min_max(unit[None], np.ones(1))
            enumerated, _ = _enumerate_min_max(unit[None])
            assert abs(simplex[0] - enumerated[0]) <= 1e-12
        assert abs(game_value(-M.T) + game_value(M)) <= 1e-12 * spread(M)

    def test_near_degenerate_sets_answer_or_raise(self):
        # every third instance takes its entries from {0, 1e-8, 1/2, 1}
        rng = np.random.default_rng(1)
        answered = raised = 0
        for draw in range(600):
            n_lines, n = rng.integers(4, 8, 2)
            if comb(n_lines + n, n) - 1 <= _ENUM_BUDGET:
                continue
            coeffs = (rng.choice([0.0, 1e-8, 0.5, 1.0], (n_lines, n)) if draw % 3 == 0
                      else rng.uniform(0, 1, (n_lines, n)))
            try:
                value, _ = min_simplex_max_linear(coeffs)
            except LPNumericalFailure:
                raised += 1
                continue
            answered += 1
            oracle = highs_min_max(np.zeros(n_lines), coeffs)
            assert abs(value - oracle) <= 1e-7 * spread(coeffs)
        # a solver that always raised would pass the loop above
        assert raised <= answered // 20


class TestOracle:
    """scipy HiGHS as the reference, from 2x2 to sizes past the enumeration
    budget (those go to the batched simplex)."""

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (3, 3), (4, 4), (4, 6),
                                     (5, 5), (6, 6), (8, 8)])
    def test_random_games(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        for _ in range(20):
            M = rng.uniform(-1, 1, (n, m))
            sol = solve_matrix_game(M)
            assert abs(sol.value - highs_min_max(np.zeros(m), M.T)) <= 1e-9 * spread(M)
            saddle_certificates(M, sol, 1e-9 * spread(M))

    def test_sizes_span_the_budget(self):
        assert comb(2 + 2, 2) - 1 <= _ENUM_BUDGET < comb(5 + 5, 5) - 1

    @pytest.mark.parametrize("n_lines,n", [(1, 3), (3, 2), (6, 3), (4, 4), (5, 5), (7, 4)])
    def test_bundle_instances(self, n_lines, n):
        rng = np.random.default_rng(100 * n_lines + n)
        for _ in range(20):
            offsets = rng.uniform(-1, 1, n_lines)
            coeffs = rng.uniform(-1, 1, (n_lines, n))
            value, u = min_simplex_max_linear(coeffs + offsets[:, None])
            scale = spread(coeffs + offsets[:, None])
            assert abs(value - highs_min_max(offsets, coeffs)) <= 1e-9 * scale
            assert value == pytest.approx(float(np.max(offsets + coeffs @ u)), abs=1e-12)


class TestBatching:
    def test_batch_equals_one_at_a_time(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            size = int(rng.integers(1, 12))
            # a mix of pure-saddle and mixed games, some shifted far away
            M = rng.uniform(-1, 1, (size, n, m)) * rng.choice([1.0, 1e-6, 1e6], (size, 1, 1))
            M += rng.choice([0.0, 3.0], (size, 1, 1))
            sol = solve_matrix_game(M)
            for k in range(size):
                one = solve_matrix_game(M[k])
                assert np.array_equal(one.value, sol.value[k])
                assert np.array_equal(one.u_star, sol.u_star[k])
                assert np.array_equal(one.v_star, sol.v_star[k])

    def test_lines_batch_equals_one_at_a_time(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_lines, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            size = int(rng.integers(1, 12))
            coeffs = rng.uniform(-1, 1, (size, n_lines, n))
            offsets = rng.uniform(-1, 1, (size, n_lines))
            lines = coeffs + offsets[..., None]
            values, u = min_simplex_max_linear(lines)
            order = rng.permutation(size)
            shuffled, _ = min_simplex_max_linear(lines[order])
            assert np.array_equal(shuffled, values[order])
            for k in range(size):
                value, pick = min_simplex_max_linear(lines[k])
                assert np.array_equal(value, values[k]) and np.array_equal(pick, u[k])

    def test_simplex_sizes_batch_too(self):
        M = np.random.default_rng(8).uniform(-1, 1, (3, 6, 6))
        sol = solve_matrix_game(M)
        for k in range(3):
            assert np.array_equal(solve_matrix_game(M[k]).value, sol.value[k])


class TestScaleInvariance:
    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1e6, 1e9])
    def test_rescaled_games(self, size, s):
        rng = np.random.default_rng(size)
        for _ in range(50):
            M = rng.uniform(-1, 1, (size, size))
            assert abs(game_value(s * M) / s - game_value(M)) <= 1e-9 * spread(M)

    def test_simplex_failure_names_the_instance(self, monkeypatch):
        def forbidden(coeffs):
            raise AssertionError("no silent enumeration above the budget")

        # a simplex that never pivots returns no strategy: its certificate
        # must fail loudly rather than return nan
        monkeypatch.setattr(matrix_game, "_ENTER_TOL", np.inf)
        monkeypatch.setattr(matrix_game, "_enumerate_min_max", forbidden)
        M = np.random.default_rng(9).uniform(-1, 1, (6, 6)) * 4.0
        with pytest.raises(LPNumericalFailure,
                           match=r"certificate.*6 lines over 6 strategies.*spread"):
            solve_matrix_game(M)


games = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-10, 10, allow_subnormal=False)))


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(games, st.floats(1e-9, 1e9), st.floats(-100, 100))
    # a tiny spread far from zero: the certificate must allow the rounding
    # of values of the payoffs' magnitude
    @example(np.array([[0.25, 0.0, -1.0, 1.0], [1.0, 1.0, 1.0, 0.25]]), 1e-9, 8.0)
    def test_affine_equivariance(self, M, a, b):
        expect = a * game_value(M) + b
        slack = 1e-9 * a * spread(M) + 1e-15 * (abs(b) + a * float(np.max(np.abs(M))))
        assert abs(game_value(a * M + b) - expect) <= slack

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(games)
    def test_skew_symmetry(self, M):
        assert abs(game_value(-M.T) + game_value(M)) <= 1e-12 * spread(M)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(games, st.data())
    def test_dominated_row_changes_nothing(self, M, data):
        n = M.shape[0]
        base = data.draw(st.integers(0, n - 1))
        where = data.draw(st.integers(0, n))
        excess = data.draw(arrays(np.float64, M.shape[1], elements=st.floats(0.5, 10)))
        # the minimizer never plays a row that costs more than another everywhere
        bigger = np.insert(M, where, M[base] + excess, axis=0)
        assert abs(game_value(bigger) - game_value(M)) <= 1e-12 * spread(bigger)


class TestBestResponse:
    def test_loop_oracle(self):
        # the maximizer's best pure reply to a mixed row strategy, as the
        # reformulated game's improvement step reads it
        rng = np.random.default_rng(5)
        problem = separate_markov_game(random_markov_game(rng, 1, 4, 5, alpha=0.9))
        p = rng.dirichlet(np.ones(4))
        u = p / p.sum()
        mats, picks = problem.max_improve(np.arange(1), problem.zero1(), u[None])
        M = mats[0]
        scores = [sum(u[i] * M[i, col] for i in range(4)) for col in range(5)]
        assert float(u @ M[:, picks[0]]) == pytest.approx(max(scores), abs=1e-12)
        assert picks[0] == int(np.argmax(scores))
