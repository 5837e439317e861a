import itertools

import numpy as np
import pytest

from minimaxpi import classic_pi, core
from minimaxpi.core import certify, value_iterate
from minimaxpi.classic_pi import (PIStatus, detect_cycle, find_oscillating_game,
                                  hoffman_karp, naive_separated_pi,
                                  pollatschek_avi_itzhak)
from minimaxpi.matrix_game import solve_matrix_game
from minimaxpi.models import (DiscountedMarkovGame, minimax_control_to_problem,
                              separate_markov_game, separated_model_to_problem,
                              shapley_value_iteration, stage_matrix)
from minimaxpi.problem_io import load_problem

from helpers import (bench_file, blind_to_cycles, random_control_model,
                     random_markov_game, random_separated_model)


def zero_game():
    return DiscountedMarkovGame(np.zeros((1, 2, 2)), np.ones((1, 2, 2, 1)), 0.5)


@pytest.fixture(scope="module")
def oscillating():
    return find_oscillating_game()


def hk_problems():
    """One half-stage problem of each kind HK runs on."""
    rng = np.random.default_rng
    return {
        "discounted": separate_markov_game(random_markov_game(rng(20), 4, 2, 2, alpha=0.9)),
        "terminating": separate_markov_game(
            random_markov_game(rng(21), 4, 2, 3, alpha=0.9, terminating=True)),
        "separated": separated_model_to_problem(random_separated_model(rng(22), 6, 5, 0.9)),
        "control": minimax_control_to_problem(
            random_control_model(rng(22), 6, 0.9, 3, 3, stochastic=True)),
    }


class TestHoffmanKarp:
    def test_zero_game_converges_immediately(self):
        result = hoffman_karp(separate_markov_game(zero_game()))
        assert result.status is PIStatus.CONVERGED
        assert result.iterations == 1
        assert np.allclose(result.values.values, 0.0)

    def test_symmetric_stage_game(self):
        game = DiscountedMarkovGame(
            np.array([[[1.0, -1.0], [-1.0, 1.0]]]), np.ones((1, 2, 2, 1)), 0.5)
        problem = separate_markov_game(game)
        result = hoffman_karp(problem, tol=1e-10)
        assert result.status is PIStatus.CONVERGED
        assert problem.beta * result.values.values[0] == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_stage_value_iteration(self):
        tol = 1e-9
        for seed, terminating in itertools.product(range(5), (False, True)):
            rng = np.random.default_rng(seed)
            game = random_markov_game(rng, 3, 2, 3, alpha=0.9, terminating=terminating)
            problem = separate_markov_game(game)
            result = hoffman_karp(problem, tol=tol)
            assert result.status is PIStatus.CONVERGED
            estimate, bound, _ = certify(problem, result.values)
            assert bound <= tol
            oracle = shapley_value_iteration(game, tol=1e-13).j1.values
            gap = np.max(np.abs(problem.beta * estimate.values - oracle))
            assert gap <= problem.beta * bound + 1e-13

    def test_floating_point_fixed_points_are_not_certified_at_zero(self):
        """hk and naive both end on exact floating-point fixed points of the
        sweep here (r is 0), a few ulps apart: each bound covers the sweep's
        rounding, so together they cover the gap."""
        problem = separated_model_to_problem(
            random_separated_model(np.random.default_rng(33), 6, 5, 0.9))
        a, bound_a, r_a = certify(problem, hoffman_karp(problem).values)
        b, bound_b, r_b = certify(problem, naive_separated_pi(problem).values[0])
        assert r_a == r_b == 0.0
        assert 0.0 < a.diff_norm(b) <= bound_a + bound_b

    def test_one_maximizer_sweep_per_composite_sweep(self, monkeypatch):
        """HK keeps only J1 of each evaluation, so no evaluation ends with a
        T2 sweep of its estimate: every ``t2_greedy`` call is the maximizer
        half of one composite sweep (HK's own or an evaluation's)."""
        calls = {"sweep": 0, "t2": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        sweep = counted("sweep", core._sweep)
        monkeypatch.setattr(core, "_sweep", sweep)
        monkeypatch.setattr(classic_pi, "_sweep", sweep)
        monkeypatch.setattr(core.HalfStageProblem, "t2_greedy",
                            counted("t2", core.HalfStageProblem.t2_greedy))
        for kind, problem in hk_problems().items():
            calls.update(sweep=0, t2=0)
            result = hoffman_karp(problem, tol=1e-9)
            assert result.status is PIStatus.CONVERGED, kind
            assert calls["t2"] == calls["sweep"] > result.iterations, kind

    def test_monotone_improvement(self, monkeypatch):
        """J1 after each evaluation is nonincreasing, up to the two
        evaluations' certified accuracy of tol/10 each, on every kind."""
        tol, evaluated = 1e-9, []

        def recording(*args, **kwargs):
            result = iterate(*args, **kwargs)
            evaluated.append(result.j1)
            return result

        iterate = classic_pi._iterate
        monkeypatch.setattr(classic_pi, "_iterate", recording)
        for kind, problem in hk_problems().items():
            evaluated.clear()
            result = hoffman_karp(problem, tol=tol)
            assert result.status is PIStatus.CONVERGED, kind
            assert len(evaluated) == result.iterations - 1 >= 2, kind
            weights = problem.space1.weights
            for before, after in zip(evaluated, evaluated[1:]):
                assert np.all(after.values - before.values <= 2 * tol / 10 * weights), kind


    def test_evaluations_have_a_budget_of_their_own(self, monkeypatch):
        """``max_iters`` counts iterations only: near discount 1 one
        evaluation takes more sweeps than the default iteration budget,
        and HK still converges, within tol of value iteration's answer."""
        problem = separated_model_to_problem(
            random_separated_model(np.random.default_rng(5), 10, 10, alpha=0.999))
        sweeps = []

        def recording(*args, **kwargs):
            result = iterate(*args, **kwargs)
            sweeps.append(result.iterations)
            return result

        iterate = classic_pi._iterate
        monkeypatch.setattr(classic_pi, "_iterate", recording)
        result = hoffman_karp(problem)
        assert result.status is PIStatus.CONVERGED
        assert max(sweeps) > 10**4 > result.iterations
        exact = value_iterate(problem)
        assert result.values.diff_norm(exact.j1) <= 1e-8 + exact.error_bound


class TestFindOscillatingGame:
    def test_reports_the_pinned_instance(self, oscillating):
        # the benchmark's counterexample requests run exactly this instance
        game, report = oscillating
        assert report["payoffs"] == [[0.0, -1.0], [-2.0, -1.0]]
        assert report["stage_discounts"] == [[0.8, 0.8], [0.2, 0.7]]
        assert report["cycle_length"] == 2
        assert report["cycling_values"] == pytest.approx([-10 / 3, 0.0], abs=1e-12)
        assert game.terminating and game.alpha == 0.9
        assert np.allclose(game.alpha * game.transitions[0, :, :, 0],
                           report["stage_discounts"], rtol=0, atol=1e-15)

    def test_the_instance_is_data_with_one_poa_run(self, monkeypatch):
        """The game is built from its two literals: one PoA run reports its
        cycle, and no search or naive run screens it."""
        calls = []
        for name in ("pollatschek_avi_itzhak", "naive_separated_pi"):
            solve = getattr(classic_pi, name)
            monkeypatch.setattr(classic_pi, name, lambda *a, _name=name, _solve=solve, **k:
                                calls.append(_name) or _solve(*a, **k))
        find_oscillating_game()
        assert calls == ["pollatschek_avi_itzhak"]


class TestPollatschekAviItzhak:
    def test_zero_game(self):
        result = pollatschek_avi_itzhak(zero_game())
        assert result.status is PIStatus.CONVERGED
        assert result.iterations == 1

    def test_cycles_on_constructed_instance(self, oscillating):
        game, report = oscillating
        result = pollatschek_avi_itzhak(game, tol=1e-9)
        assert result.status is PIStatus.CYCLED
        assert result.cycle_length == 2
        assert report["cycle_length"] == 2

    def test_cycle_confirmed_by_pair_enumeration(self, oscillating):
        game, _ = oscillating
        # oracle: enumerate all pure pairs, evaluate each exactly, and follow
        # the improvement map from the initial all-pairs iterate
        g = game.payoffs[0]
        p = game.alpha * game.transitions[0, :, :, 0]
        values = {(i, j): g[i, j] / (1.0 - p[i, j])
                  for i, j in itertools.product(range(2), range(2))}

        def improve(j_val):
            sol = solve_matrix_game(g + p * j_val)
            i = int(np.argmax(sol.u_star))
            k = int(np.argmax(sol.v_star))
            return i, k

        seen = []
        j_val = 0.0
        for _ in range(20):
            pair = improve(j_val)
            seen.append(pair)
            j_val = values[pair]
        assert seen[-1] == seen[-3] and seen[-1] != seen[-2]

    def test_no_convergence_within_budget(self, oscillating, monkeypatch):
        game, _ = oscillating
        first = pollatschek_avi_itzhak(game, tol=1e-9)
        assert first.status is PIStatus.CYCLED and first.cycle_length == 2
        lags = blind_to_cycles(monkeypatch)
        result = pollatschek_avi_itzhak(game, tol=1e-9, max_iters=10**4)
        assert result.status is PIStatus.MAX_ITERS
        assert result.iterations == len(result.residuals) == 10**4
        assert lags[-1] == first.cycle_length
        assert min(result.residuals) > 1e-9

    def test_converged_runs_match_oracle(self):
        converged = 0
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
            result = pollatschek_avi_itzhak(game, tol=1e-9, max_iters=200)
            if result.status is not PIStatus.CONVERGED:
                continue
            converged += 1
            oracle = shapley_value_iteration(game, tol=1e-11)
            assert np.max(np.abs(result.values.values - oracle.j1.values)) <= 1e-6
        assert converged >= 3

    def test_optimistic_matches_exact_in_the_limit(self):
        rng = np.random.default_rng(21)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.5)
        exact = pollatschek_avi_itzhak(game, tol=1e-9)
        optimistic = pollatschek_avi_itzhak(game, tol=1e-9, optimistic_k=200)
        assert exact.status is PIStatus.CONVERGED
        assert optimistic.status is PIStatus.CONVERGED
        assert np.max(np.abs(exact.values.values - optimistic.values.values)) <= 1e-6

    def test_converged_results_sit_near_the_stage_fixed_point(self):
        tol = 1e-9
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
            problem = separate_markov_game(game)
            hk = hoffman_karp(problem, tol=tol)
            assert hk.status is PIStatus.CONVERGED
            tables = [problem.beta * hk.values.values]
            poa = pollatschek_avi_itzhak(game, tol=tol, max_iters=300)
            if poa.status is PIStatus.CONVERGED:
                tables.append(poa.values.values)
            for j in tables:
                swept = np.array([
                    solve_matrix_game(stage_matrix(game, x, j)).value
                    for x in range(game.state_count)])
                assert np.max(np.abs(j - swept)) <= 10 * tol


class TestNaiveSeparatedPI:
    def test_singleton_actions_converge_fast(self):
        rng = np.random.default_rng(22)
        model = random_separated_model(rng, 3, 3, max_actions=1)
        problem = separated_model_to_problem(model)
        result = naive_separated_pi(problem, tol=1e-10)
        assert result.status is PIStatus.CONVERGED
        assert result.iterations <= 2
        exact = value_iterate(problem, tol=1e-12)
        assert result.values[0].diff_norm(exact.j1) <= 1e-8

    def test_cycles_on_separated_counterexample(self, oscillating):
        game, _ = oscillating
        result = naive_separated_pi(separate_markov_game(game), tol=1e-9)
        assert result.status is PIStatus.CYCLED
        assert result.cycle_length >= 2

    def test_no_convergence_within_budget(self, oscillating, monkeypatch):
        game, _ = oscillating
        problem = separate_markov_game(game)
        first = naive_separated_pi(problem, tol=1e-9)
        assert first.status is PIStatus.CYCLED
        lags = blind_to_cycles(monkeypatch)
        result = naive_separated_pi(problem, tol=1e-9, max_iters=300)
        assert result.status is PIStatus.MAX_ITERS
        assert result.iterations == len(result.residuals) == 300
        assert lags[-1] == first.cycle_length
        assert min(result.residuals) > 1e-9

    def test_converged_runs_match_value_iteration(self):
        converged = 0
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            problem = separated_model_to_problem(random_separated_model(rng, 3, 3))
            result = naive_separated_pi(problem, tol=1e-9, max_iters=300)
            if result.status is not PIStatus.CONVERGED:
                continue
            converged += 1
            exact = value_iterate(problem, tol=1e-12)
            assert result.values[0].diff_norm(exact.j1) <= 1e-6
        assert converged >= 3

    def test_converged_residual_small(self):
        rng = np.random.default_rng(23)
        problem = separated_model_to_problem(random_separated_model(rng, 3, 4))
        tol = 1e-9
        result = naive_separated_pi(problem, tol=tol, max_iters=300)
        if result.status is PIStatus.CONVERGED:
            assert certify(problem, result.values[0])[2] <= 10 * tol

    def test_optimistic_evaluation_matches_exact_in_the_limit(self):
        rng = np.random.default_rng(25)
        problem = separated_model_to_problem(
            random_separated_model(rng, 3, 3, alpha=0.5, max_actions=1))
        exact = naive_separated_pi(problem, tol=1e-9)
        optimistic = naive_separated_pi(problem, tol=1e-9, optimistic_k=200,
                                        max_iters=300)
        assert exact.status is PIStatus.CONVERGED
        assert optimistic.status is PIStatus.CONVERGED
        assert exact.values[0].diff_norm(optimistic.values[0]) <= 1e-6


class TestDetectCycle:
    def test_alternating_pair(self):
        assert detect_cycle(["a", "b", "a", "b"]) == 2

    def test_period_scan_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            period = int(rng.integers(1, 5))
            tail = [f"s{t % period}" for t in range(20)]
            history = [f"pre{k}" for k in range(int(rng.integers(0, 3)))] + tail
            found = detect_cycle(history)
            # brute-force scan for the smallest lag matching the latest entry
            expect = None
            for p in range(1, len(history)):
                if history[-1 - p] == history[-1]:
                    expect = p
                    break
            assert found == expect


@pytest.mark.parametrize("k", [0, -1])
def test_optimistic_k_below_one_is_refused(tmp_path, k):
    """Zero sweeps evaluate nothing, so the all-pairs loop would report
    convergence after one step; both solvers refuse such a k."""
    game = load_problem(bench_file(tmp_path, "game_payload", 3, 2, 2, 0.9)).model
    sep = load_problem(bench_file(tmp_path, "separated_payload", 5, 5, 2, 0.9)).model
    for solve, problem in ((pollatschek_avi_itzhak, game),
                           (naive_separated_pi, separate_markov_game(game)),
                           (naive_separated_pi, separated_model_to_problem(sep))):
        with pytest.raises(ValueError, match=f"optimistic_k must be at least 1, got {k}"):
            solve(problem, optimistic_k=k)
