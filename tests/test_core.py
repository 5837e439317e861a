import re

import numpy as np
import pytest

from minimaxpi.async_pi import round_robin, run
from minimaxpi.classic_pi import hoffman_karp, naive_separated_pi, pollatschek_avi_itzhak
from minimaxpi.core import (HalfStage, SeparatedProblem, ValueTable, WeightedSpace,
                            _iterate, policy_pair_value, value_iterate)
from minimaxpi.errors import MaxItersExceeded

import instruments
from helpers import (closure_problem, random_control_model, random_markov_game,
                     random_separated_model, scalar_problem)
from instruments import (DegeneratePair, action_counts, action_mask, check_monotone,
                         estimate_modulus, random_policies, random_table1, random_table2,
                         score_at)
from minimaxpi.aggregation import (AggregationProbabilities, RepresentativeSets,
                                   build_aggregate, default_probabilities)
from minimaxpi.models import (minimax_control_to_problem, separate_markov_game,
                              separated_model_to_problem, shapley_value_iteration)


def table(values, weights=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    space = WeightedSpace(len(values), weights if weights is not None
                          else np.ones(len(values)))
    return ValueTable(space, values)


class TestWeightedSupNorm:
    def test_zero_table(self):
        assert table([0.0, 0.0, 0.0]).norm() == 0.0

    def test_table_equal_to_weights(self):
        w = np.array([0.5, 2.0, 1.5])
        assert table(w.copy(), w).norm() == pytest.approx(1.0)

    def test_ratio_maximum(self):
        assert table([2.0, -6.0], np.array([1.0, 2.0])).norm() == 3.0

    def test_two_table_variant(self):
        j1 = table([2.0, -6.0], np.array([1.0, 2.0]))
        j2 = table([0.5])
        assert max(j1.norm(), j2.norm()) == 3.0
        assert max(j2.norm(), j1.norm()) == 3.0

    def test_norm_axioms_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            size = int(rng.integers(1, 6))
            w = rng.uniform(0.2, 3.0, size)
            a, b = rng.uniform(-5, 5, (2, size))
            na = table(a, w).norm()
            nb = table(b, w).norm()
            nab = table(a + b, w).norm()
            assert nab <= na + nb + 1e-12
        assert table(np.zeros(4)).norm() == 0.0
        assert table([0, 0, 1e-300]).norm() > 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_weights_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            WeightedSpace(2, [1.0, bad])


def forced_chain_problem(beta=1.25):
    return SeparatedProblem(
        space1=WeightedSpace.unit(1), space2=WeightedSpace.unit(1),
        actions1=((0,),), actions2=((0,),),
        eval1=lambda x, u, j2: j2[0] / beta,
        eval2=lambda x, v, j1: j1[0],
        alpha=1.0 / beta)


class TestPolicyOperators:
    def test_scaled_readout(self):
        problem = forced_chain_problem(beta=1.25)
        out = problem.t1_policy(np.array([0]), table([5.0]))
        assert out.values[0] == pytest.approx(4.0)

    def test_constant_evaluator(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(3), space2=WeightedSpace.unit(2),
            actions1=((0,), (0,), (0,)), actions2=((0,), (0,)),
            eval1=lambda x, u, j2: float(x) + 1.0,
            eval2=lambda x, v, j1: -2.0,
            alpha=0.0)
        out = problem.t1_policy(np.zeros(3, dtype=int), table([9.0, 9.0]))
        assert np.allclose(out.values, [1.0, 2.0, 3.0])
        out2 = problem.t2_policy(np.zeros(2, dtype=int), table([1.0, 1.0, 1.0]))
        assert np.allclose(out2.values, [-2.0, -2.0])

    def test_random_instance_matches_per_state_loop(self):
        rng = np.random.default_rng(3)
        problem = separated_model_to_problem(random_separated_model(rng, 3, 3))
        pol_rng = np.random.default_rng(4)
        pol = random_policies(problem, pol_rng)
        mu, nu = pol.mu, pol.nu
        j1 = random_table1(problem, pol_rng)
        j2 = random_table2(problem, pol_rng)
        out1 = problem.t1_policy(mu, j2)
        expect1 = [score_at(problem, 1, x, mu[x], j2.values) for x in range(problem.space1.size)]
        assert np.allclose(out1.values, expect1, atol=0, rtol=0)
        out2 = problem.t2_policy(nu, j1)
        expect2 = [score_at(problem, 2, x, nu[x], j1.values) for x in range(problem.space2.size)]
        assert np.allclose(out2.values, expect2, atol=0, rtol=0)
        # both eval kernels, every model kind, random subsets in random order
        for name, problem in kernel_cases(np.random.default_rng(40)):
            for _ in range(20):
                pol = random_policies(problem, pol_rng)
                j1, j2 = random_table1(problem, pol_rng), random_table2(problem, pol_rng)
                sub1, sub2 = random_subset(pol_rng, problem.space1.size), \
                    random_subset(pol_rng, problem.space2.size)
                expect1 = [score_at(problem, 1, x, pol.mu[x], j2.values) for x in sub1]
                expect2 = [score_at(problem, 2, x, pol.nu[x], j1.values) for x in sub2]
                got1 = problem.min_eval_values(sub1, pol.mu, j2)
                got2 = problem.max_eval_entries(sub2, pol.nu, j1)
                assert np.array_equal(got1, expect1), name
                assert np.array_equal(got2, expect2), name


def random_subset(rng, size):
    return rng.permutation(size)[: int(rng.integers(1, size + 1))]


def kernel_cases(rng):
    """One problem per backend of the score primitive, with ragged action
    and outcome counts so that the padding is exercised."""
    model = random_separated_model(rng, 6, 5, max_actions=3)
    separated = separated_model_to_problem(model)
    control = minimax_control_to_problem(
        random_control_model(rng, 5, max_u=3, max_v=3, stochastic=True), 1.02)
    stage2 = control.stage2
    assert not action_mask(control, 1).all() and not action_mask(control, 2).all()
    assert np.any((stage2.prob == 0.0) & stage2.live()[..., None])  # ragged outcomes
    closure = closure_problem(model, separated.alpha)
    reps = RepresentativeSets(np.array([0, 2, 5]), np.array([1, 3]))
    pair_reps = RepresentativeSets(np.array([0, 3, 4]),
                                   np.arange(0, control.space2.size, 2))

    def dense(size, count):
        return rng.dirichlet(np.ones(count), size)

    return [
        ("separated", separated),
        ("control", control),
        ("closure", closure),
        ("aggregate point-mass",
         build_aggregate(separated, reps, default_probabilities(separated, reps))),
        ("aggregate dense", build_aggregate(control, pair_reps, AggregationProbabilities(
            dense(5, 3), dense(control.space2.size, pair_reps.reps2.size)))),
    ]


class TestGreedyOperators:
    def test_single_action_equals_policy_operator(self):
        problem = forced_chain_problem()
        j2 = table([5.0])
        greedy, mu = problem.t1_greedy(j2)
        assert greedy.values[0] == problem.t1_policy(np.array([0]), j2).values[0]
        assert mu[0] == 0

    def test_finite_min_and_first_argmin(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(1), space2=WeightedSpace.unit(1),
            actions1=((0, 1),), actions2=((0, 1),),
            eval1=lambda x, u, j2: 3.0 if u == 0 else 7.0,
            eval2=lambda x, v, j1: 3.0 if v == 0 else 7.0,
            alpha=0.0)
        out, mu = problem.t1_greedy(table([0.0]))
        assert out.values[0] == 3.0 and mu[0] == 0
        out2, nu = problem.t2_greedy(table([0.0]))
        assert out2.values[0] == 7.0 and nu[0] == 1

    def test_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(7)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 3))
        j2 = random_table2(problem, rng)
        out, mu = problem.t1_greedy(j2)
        counts = action_counts(problem, 1)
        for x in range(problem.space1.size):
            scores = [score_at(problem, 1, x, a, j2.values) for a in range(counts[x])]
            assert out.values[x] == min(scores)
            assert mu[x] == int(np.argmin(scores))
        # both improve kernels, every model kind, random subsets in random order
        for name, problem in kernel_cases(np.random.default_rng(41)):
            for _ in range(20):
                j1, j2 = random_table1(problem, rng), random_table2(problem, rng)
                sub1 = random_subset(rng, problem.space1.size)
                sub2 = random_subset(rng, problem.space2.size)
                values1, picks1 = problem.min_improve(sub1, j2)
                values2, picks2 = problem.max_improve(sub2, j1)
                counts1, counts2 = action_counts(problem, 1), action_counts(problem, 2)
                for i, x in enumerate(sub1):
                    scores = [score_at(problem, 1, x, a, j2.values) for a in range(counts1[x])]
                    assert values1[i] == min(scores), name
                    assert picks1[i] == int(np.argmin(scores)), name
                for i, x in enumerate(sub2):
                    scores = [score_at(problem, 2, x, a, j1.values) for a in range(counts2[x])]
                    assert values2[i] == max(scores), name
                    assert picks2[i] == int(np.argmax(scores)), name

    def test_closure_and_tabular_forms_iterate_identically(self):
        model = random_separated_model(np.random.default_rng(42), 7, 6)
        tabular = separated_model_to_problem(model)
        closure = closure_problem(model, tabular.alpha)
        a = value_iterate(closure, tol=1e-12)
        b = value_iterate(tabular, tol=1e-12)
        # the closure adapter promises no shift factor, so it stops later,
        # on the sup bound; the sweeps both make agree bit for bit
        assert a.iterations > b.iterations and a.residuals[:b.iterations] == b.residuals
        # the closure answers with its last sweep's image
        swept = []
        for problem in (closure, tabular):
            j1 = problem.zero1()
            for _ in range(a.iterations):
                j1 = problem.t1_greedy(problem.t2_greedy(j1)[0])[0]
            swept.append((j1.values, problem.t2_greedy(j1)[0].values))
        assert np.array_equal(swept[0][0], swept[1][0])
        assert np.array_equal(swept[0][1], swept[1][1])
        assert np.array_equal(a.j1.values, swept[0][0])
        assert np.array_equal(closure.t2_greedy(a.j1)[0].values, swept[0][1])

    def test_greedy_below_any_policy(self):
        rng = np.random.default_rng(8)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 4))
        j2 = random_table2(problem, rng)
        greedy, _ = problem.t1_greedy(j2)
        counts = action_counts(problem, 1)
        for trial in range(10):
            mu = np.array([rng.integers(c) for c in counts])
            fixed = problem.t1_policy(mu, j2)
            assert np.all(greedy.values <= fixed.values + 1e-12)


class TestShift:
    @staticmethod
    def stage(probs):
        """Two states with two and one actions; the second action has two outcomes."""
        return HalfStage.from_ragged([2, 1], [1, 2, 1], probs, [0.5, 1.0, -1.0, 2.0],
                                     [0, 1, 0, 1], 0.9, np.inf)

    def test_half_stage_shift_needs_every_mass_at_one(self):
        assert self.stage([1.0, 0.25, 0.75, 1.0]).shift() == 0.9
        assert self.stage([1.0, 0.25, 0.75 - 1e-9, 1.0]).shift() is None

    def test_problem_shift_factors(self):
        rng = np.random.default_rng(3)
        model = random_separated_model(rng, 3, 4, alpha=0.8)
        assert separated_model_to_problem(model).shift() == pytest.approx(0.64, abs=1e-15)
        control = minimax_control_to_problem(random_control_model(rng, 3, stochastic=True))
        assert control.shift() == pytest.approx(0.9, abs=1e-15)
        assert closure_problem(model, 0.8).shift() is None
        assert separate_markov_game(random_markov_game(rng, 2)).shift() == 0.9
        leaky = random_markov_game(rng, 2, terminating=True)
        assert separate_markov_game(leaky).shift() is None


def test_half_stage_evaluate_sums_outcomes_in_order():
    """One (state, action) score is, bit for bit, the outcome-by-outcome sum."""
    rng = np.random.default_rng(12)
    stage = separated_model_to_problem(random_separated_model(rng, 5, 5)).stage1
    stochastic = minimax_control_to_problem(random_control_model(rng, 4, stochastic=True)).stage2
    for half in (stage, stochastic):
        opposite = rng.uniform(-1, 1, int(half.next.max()) + 1)
        for x, a in zip(*np.nonzero(half.live())):
            p, g, n = half.prob[x, a], half.cost[x, a], half.next[x, a]
            total = p[0] * (g[0] + half.scale * opposite[n[0]])
            for k in range(1, p.size):
                total += p[k] * (g[k] + half.scale * opposite[n[k]])
            assert half.scores([x], opposite, [a])[0] == total


class TestValueIterate:
    def test_known_scalar_fixed_point(self):
        problem = scalar_problem()
        result = value_iterate(problem, tol=1e-12)
        assert result.j1.values[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert problem.t2_greedy(result.j1)[0].values[0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_pair_value_is_its_loops_certified_j1(self):
        problem = scalar_problem()
        pair = problem.first_policies()
        j1 = policy_pair_value(problem, pair, tol=1e-12)
        assert isinstance(j1, ValueTable) and j1.space is problem.space1
        loop = _iterate(problem, None, 1e-12, 10**6, pair)
        assert j1.values.tobytes() == loop.j1.values.tobytes()

    def test_start_at_fixed_point(self):
        # the warm start Hoffman-Karp's evaluations take
        problem = scalar_problem()
        exact = value_iterate(problem, tol=1e-14)
        again = _iterate(problem, exact.j1, 1e-8, 10**6, None)
        assert again.iterations <= 1
        assert again.j1.values[0] == pytest.approx(exact.j1.values[0], abs=1e-12)

    def test_matches_long_horizon_iteration(self):
        rng = np.random.default_rng(5)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 4))
        tol = 1e-9
        result = value_iterate(problem, tol=tol)
        # long-horizon brute force: fixed sweep count, no stopping rule
        j1, j2 = problem.zero1(), problem.zero2()
        for _ in range(10**4):
            j1, j2 = problem.t1_greedy(j2)[0], problem.t2_greedy(j1)[0]
        assert result.j1.diff_norm(j1) <= 10 * tol
        assert problem.t2_greedy(result.j1)[0].diff_norm(j2) <= 10 * tol

    def test_geometric_residual_decay(self):
        # each iteration is one composite sweep, which contracts at alpha**2
        rng = np.random.default_rng(6)
        for problem in (separated_model_to_problem(random_separated_model(rng, 3, 3)),
                        minimax_control_to_problem(random_control_model(rng, 4, stochastic=True))):
            result = value_iterate(problem, tol=1e-11)
            for prev, cur in zip(result.residuals, result.residuals[1:]):
                assert cur <= problem.alpha ** 2 * prev + 1e-12

    def test_budget_exhaustion_raises(self):
        problem = scalar_problem()
        pair = problem.first_policies()
        with pytest.raises(MaxItersExceeded):
            value_iterate(problem, tol=1e-14, max_iters=3)
        for max_iters in (0, -1):
            with pytest.raises(MaxItersExceeded):
                value_iterate(problem, max_iters=max_iters)
        # a tol no bound can meet, or every bound meets, is refused before
        # any sweep, by every solver and in the words it was given
        game = random_markov_game(np.random.default_rng(0), 2, 2, 2)
        for tol in (0.0, -1.0, np.nan, np.inf):
            for solve in (lambda: value_iterate(problem, tol=tol),
                          lambda: policy_pair_value(problem, pair, tol=tol),
                          lambda: hoffman_karp(problem, tol=tol),
                          lambda: naive_separated_pi(problem, tol=tol),
                          lambda: run(problem, round_robin(), tol=tol),
                          lambda: pollatschek_avi_itzhak(game, tol=tol),
                          lambda: shapley_value_iteration(game, tol=tol)):
                with pytest.raises(ValueError, match=re.escape(f"got {tol!r}")):
                    solve()

    def test_tol_below_the_rounding_floor_raises_at_once(self):
        """A sweep that maps J1 onto itself bit for bit repeats forever, so a
        bound still above tol then is the floor, and the loop says so at once
        instead of sweeping to ``max_iters``.  Just above it, the run certifies."""
        problem = separated_model_to_problem(
            random_separated_model(np.random.default_rng(3), 6, 5, 0.9))
        for solve in (lambda tol: value_iterate(problem, tol=tol, max_iters=10**4),
                      lambda tol: policy_pair_value(problem, problem.first_policies(),
                                                    tol=tol)):
            with pytest.raises(MaxItersExceeded, match="rounding floor") as info:
                solve(1e-15)
            floor, sweeps = re.search(r"bound (\S+) > .* sweep (\d+) ", str(info.value)).groups()
            assert int(sweeps) < 1000
            solve(1.01 * float(floor))

    def test_tol_below_the_floor_of_a_game_raises_within_the_budget(self):
        """On a Markov game J1 wanders by a few ulps at the floor instead of
        repeating, so the loop stops once r is at or below the floor."""
        problem = separate_markov_game(random_markov_game(np.random.default_rng(0), 3, 2, 2))
        with pytest.raises(MaxItersExceeded, match="rounding floor") as info:
            value_iterate(problem, tol=1e-15, max_iters=1000)
        bound, sweeps = re.search(r"bound (\S+) > .* sweep (\d+) ", str(info.value)).groups()
        assert int(sweeps) < 1000
        assert value_iterate(problem, tol=1.01 * float(bound)).error_bound <= 1.01 * float(bound)


class TestEstimateModulus:
    def test_affine_slope(self):
        assert estimate_modulus(scalar_problem(), 100, 0) <= 0.5 + 1e-10

    def test_constant_operator(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(2), space2=WeightedSpace.unit(2),
            actions1=((0,), (0,)), actions2=((0,), (0,)),
            eval1=lambda x, u, j2: 1.0,
            eval2=lambda x, v, j1: -1.0,
            alpha=0.0)
        assert estimate_modulus(problem, 50, 1) == 0.0

    def test_asserted_modulus_bounds_estimate(self):
        rng = np.random.default_rng(12)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 3))
        assert estimate_modulus(problem, 200, 2) <= problem.alpha + 1e-10

    def test_greedy_operator_contracts_too(self):
        rng = np.random.default_rng(14)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 4))
        for _ in range(100):
            a1, a2 = random_table1(problem, rng), random_table2(problem, rng)
            b1, b2 = random_table1(problem, rng), random_table2(problem, rng)
            dist = max(a1.diff_norm(b1), a2.diff_norm(b2))
            if dist < 1e-12:
                continue
            ta = (problem.t1_greedy(a2)[0], problem.t2_greedy(a1)[0])
            tb = (problem.t1_greedy(b2)[0], problem.t2_greedy(b1)[0])
            moved = max(ta[0].diff_norm(tb[0]), ta[1].diff_norm(tb[1]))
            assert moved <= problem.alpha * dist + 1e-12


class TestDegenerateSampling:
    def test_all_identical_samples_raise(self, monkeypatch):
        class Collapsed:
            space1 = WeightedSpace.unit(1)
            space2 = WeightedSpace.unit(1)

        monkeypatch.setattr(instruments, "random_table1", lambda problem, rng: table([1.0]))
        monkeypatch.setattr(instruments, "random_table2", lambda problem, rng: table([2.0]))
        monkeypatch.setattr(instruments, "random_policies", lambda problem, rng: None)
        with pytest.raises(DegeneratePair):
            estimate_modulus(Collapsed(), 20, 0)


class TestCheckMonotone:
    def test_equal_tables_pass(self):
        # ordered sampling includes zero-shift cases implicitly; equality is
        # the slack boundary, exercised by a deterministic evaluator
        problem = scalar_problem()
        assert bool(check_monotone(problem, 50, 3))

    def test_sign_flip_fails_with_witness(self):
        problem = SeparatedProblem(
            space1=WeightedSpace.unit(1), space2=WeightedSpace.unit(1),
            actions1=((0,),), actions2=((0,),),
            eval1=lambda x, u, j2: -j2[0],
            eval2=lambda x, v, j1: 0.5 * j1[0],
            alpha=1.0 - 1e-9)
        result = check_monotone(problem, 50, 4)
        assert not result
        assert result.witness["side"] == 1
        assert "state" in result.witness

    def test_separated_models_are_monotone(self):
        rng = np.random.default_rng(13)
        problem = separated_model_to_problem(random_separated_model(rng, 3, 3))
        assert bool(check_monotone(problem, 100, 5))
