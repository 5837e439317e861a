import numpy as np
import pytest

from minimaxpi.aggregation import (AggregationProbabilities,
                                   RepresentativeSets, build_aggregate,
                                   default_probabilities, interpolate,
                                   lookahead_policies,
                                   nearest_representative_rows,
                                   solve_with_aggregation)
from minimaxpi.core import WeightedSpace, policy_pair_value, value_iterate
from minimaxpi.errors import MissingAggregationRow
from minimaxpi.models import (minimax_control_to_problem, separate_markov_game,
                              separated_model_to_problem)

from helpers import (closure_problem, random_control_model, random_markov_game,
                     random_separated_model)
from instruments import action_counts, action_mask, score_at, verify_uniform_contraction


def full_identity(problem):
    reps = RepresentativeSets(np.arange(problem.space1.size),
                              np.arange(problem.space2.size))
    phi = AggregationProbabilities(np.eye(problem.space1.size),
                                   np.eye(problem.space2.size))
    return reps, phi


def random_reps(rng, problem):
    return RepresentativeSets(*(np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
                                for n in (problem.space1.size, problem.space2.size)))


def dirichlet_rows(rng, problem, reps):
    return AggregationProbabilities(rng.dirichlet(np.ones(reps.reps1.size), problem.space1.size),
                                    rng.dirichlet(np.ones(reps.reps2.size), problem.space2.size))


class TestReducedArrays:
    """The aggregate's arrays against the definition they replace: the
    parent's scores at the representatives, read against ``phi @ J``."""

    @pytest.mark.parametrize("kind", ["separated", "control"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_scores_match_the_lifted_parent(self, kind, dense):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            parent = (separated_model_to_problem(random_separated_model(rng, 7, 6))
                      if kind == "separated" else minimax_control_to_problem(
                          random_control_model(rng, 5, max_u=3, max_v=3, stochastic=True)))
            reps = random_reps(rng, parent)
            phi = (dirichlet_rows(rng, parent, reps) if dense
                   else default_probabilities(parent, reps))
            small = build_aggregate(parent, reps, phi)
            assert small.shift() == parent.shift()
            blow1 = np.max(phi.phi1 @ small.space1.weights / parent.space1.weights)
            blow2 = np.max(phi.phi2 @ small.space2.weights / parent.space2.weights)
            # the old asserted bound, up to the rounding of two different sums
            assert small.alpha <= parent.alpha * max(1.0, blow1, blow2) * (1 + 1e-12)
            for side, rows, lift, opposite in ((1, reps.reps1, phi.phi2, small.space2),
                                               (2, reps.reps2, phi.phi1, small.space1)):
                j = rng.uniform(-1, 1, opposite.size)
                subset = rng.permutation(rows.size)
                picks = rng.integers(action_mask(small, side).sum(axis=1))[subset]
                for got, ref in ((small.scores(side, subset, j),
                                  parent.scores(side, rows[subset], lift @ j)),
                                 (small.scores(side, subset, j, picks),
                                  parent.scores(side, rows[subset], lift @ j, picks))):
                    ref = ref[..., :got.shape[-1]]
                    if dense:
                        live = np.isfinite(ref)
                        err = np.max(np.abs(got[live] - ref[live]))
                        assert err <= 1e-15 * np.max(np.abs(ref[live]))
                    else:
                        assert np.array_equal(got, ref)

    def test_rows_off_by_5e11_keep_the_shift(self):
        rng = np.random.default_rng(11)
        parent = separated_model_to_problem(random_separated_model(rng, 6, 5))
        reps = RepresentativeSets(np.array([0, 2, 4]), np.array([1, 3]))
        rows = dirichlet_rows(rng, parent, reps)
        phi = AggregationProbabilities(rows.phi1 * (1 + 5e-11), rows.phi2 * (1 - 5e-11))
        assert build_aggregate(parent, reps, phi).shift() is not None


class TestBuildAggregate:
    def test_identity_reproduces_fixed_point(self):
        rng = np.random.default_rng(0)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 3))
        reps, phi = full_identity(problem)
        small = build_aggregate(problem, reps, phi)
        tol = 1e-10
        exact = value_iterate(problem, tol=tol)
        reduced = value_iterate(small, tol=tol)
        assert np.max(np.abs(exact.j1.values - reduced.j1.values)) <= 10 * tol

    def test_single_representative_scalar_oracle(self):
        rng = np.random.default_rng(1)
        problem = separated_model_to_problem(random_separated_model(rng, 3, 3))
        reps = RepresentativeSets(np.array([1]), np.array([2]))
        small = build_aggregate(problem, reps, default_probabilities(problem, reps))
        result = value_iterate(small, tol=1e-12)
        # scalar fixed-point oracle: iterate the two 1-state maps directly
        j1 = j2 = 0.0
        count1, count2 = action_counts(problem, 1)[1], action_counts(problem, 2)[2]
        for _ in range(2000):
            j1 = min(score_at(problem, 1, 1, a, np.full(problem.space2.size, j2))
                     for a in range(count1))
            j2 = max(score_at(problem, 2, 2, a, np.full(problem.space1.size, j1))
                     for a in range(count2))
        assert result.j1.values[0] == pytest.approx(j1, abs=1e-9)
        assert small.t2_greedy(result.j1)[0].values[0] == pytest.approx(j2, abs=1e-9)

    def test_hard_partition_matches_direct_substitution(self):
        rng = np.random.default_rng(2)
        model = random_separated_model(rng, 4, 4)
        problem = separated_model_to_problem(model)
        reps = RepresentativeSets(np.array([0, 2]), np.array([1, 3]))
        small = build_aggregate(problem, reps, default_probabilities(problem, reps))
        reduced = value_iterate(small, tol=1e-11)

        # direct substitution: reroute every transition to its nearest
        # representative and solve the rerouted model exactly
        map1 = np.array([np.argmin(np.abs(reps.reps1 - x))
                         for x in range(4)])
        map2 = np.array([np.argmin(np.abs(reps.reps2 - x))
                         for x in range(4)])
        next1 = tuple(map2[model.next1[x]] for x in reps.reps1)
        cost1 = tuple(model.cost1[x] for x in reps.reps1)
        next2 = tuple(map1[model.next2[x]] for x in reps.reps2)
        cost2 = tuple(model.cost2[x] for x in reps.reps2)
        rerouted = type(model)(WeightedSpace.unit(2), WeightedSpace.unit(2),
                               next1, cost1, next2, cost2, model.alpha)
        direct = separated_model_to_problem(rerouted)
        oracle = value_iterate(direct, tol=1e-11)
        assert np.max(np.abs(reduced.j1.values - oracle.j1.values)) <= 1e-9
        assert np.max(np.abs(small.t2_greedy(reduced.j1)[0].values
                             - direct.t2_greedy(oracle.j1)[0].values)) <= 1e-9

    def test_missing_row_rejected(self):
        rng = np.random.default_rng(3)
        problem = separated_model_to_problem(random_separated_model(rng, 3, 3))
        reps = RepresentativeSets(np.array([0, 1]), np.array([0, 1]))
        phi1 = nearest_representative_rows(3, reps.reps1)
        phi2 = nearest_representative_rows(3, reps.reps2)
        phi2[1] = 0.0
        with pytest.raises(MissingAggregationRow):
            build_aggregate(problem, reps, AggregationProbabilities(phi1, phi2))

    def test_only_tabular_parents(self):
        rng = np.random.default_rng(12)
        model = random_separated_model(rng, 3, 3)
        closure = closure_problem(model, separated_model_to_problem(model).alpha)
        markov = separate_markov_game(random_markov_game(rng, 3, 2, 2))
        for parent in (closure, markov):
            reps = RepresentativeSets(np.array([0]), np.array([0]))
            with pytest.raises(TypeError):
                build_aggregate(parent, reps, default_probabilities(parent, reps))

    def test_aggregate_inherits_contraction(self):
        rng = np.random.default_rng(4)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 4))
        reps = RepresentativeSets(np.array([0, 3]), np.array([0, 2]))
        small = build_aggregate(problem, reps, default_probabilities(problem, reps))
        assert verify_uniform_contraction(small, 200, 5) <= problem.alpha + 1e-10


class TestInterpolate:
    def test_identity_copies(self):
        values = np.array([1.0, -2.0, 3.0])
        assert np.all(interpolate(values, np.eye(3)) == values)

    def test_uniform_average(self):
        rows = np.full((4, 2), 0.5)
        out = interpolate(np.array([2.0, 4.0]), rows)
        assert np.allclose(out, 3.0)

    def test_dot_product_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(3), size=5)
        vals = rng.uniform(-2, 2, 3)
        out = interpolate(vals, rows)
        expect = [sum(rows[x, r] * vals[r] for r in range(3)) for x in range(5)]
        assert np.allclose(out, expect, atol=1e-14)

    def test_nonexpansive_on_random_pairs(self):
        rng = np.random.default_rng(6)
        rows = rng.dirichlet(np.ones(4), size=6)
        for _ in range(1000):
            a, b = rng.uniform(-3, 3, (2, 4))
            gap_in = float(np.max(np.abs(a - b)))
            gap_out = float(np.max(np.abs(interpolate(a, rows) - interpolate(b, rows))))
            assert gap_out <= gap_in + 1e-12


class TestLookahead:
    def test_exact_tables_give_optimal_pair(self):
        rng = np.random.default_rng(7)
        problem = separated_model_to_problem(random_separated_model(rng, 3, 4))
        tol = 1e-11
        exact = value_iterate(problem, tol=tol)
        policies = lookahead_policies(problem, exact.j1, problem.t2_greedy(exact.j1)[0])
        j1_pair = policy_pair_value(problem, policies, tol=tol)
        assert j1_pair.diff_norm(exact.j1) <= 100 * tol

    def test_singleton_actions_forced(self):
        rng = np.random.default_rng(8)
        problem = separated_model_to_problem(
            random_separated_model(rng, 2, 2, max_actions=1))
        policies = lookahead_policies(problem, problem.zero1(), problem.zero2())
        assert np.all(policies.mu == 0) and np.all(policies.nu == 0)

    def test_six_state_gap_reported(self):
        rng = np.random.default_rng(9)
        problem = separated_model_to_problem(
            random_separated_model(rng, 6, 6, alpha=0.85))
        reps = RepresentativeSets(np.array([0, 3]), np.array([1, 4]))
        sol = solve_with_aggregation(problem, reps, tol=1e-9)
        assert np.isfinite(sol.gap)
        assert np.all(np.isfinite(sol.pair_value1.values))


class TestDefaults:
    def test_nearest_rows_are_point_masses(self):
        rows = nearest_representative_rows(5, np.array([1, 4]))
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.all((rows == 0.0) | (rows == 1.0))
        assert rows[0, 0] == 1.0 and rows[4, 1] == 1.0
        assert rows[2, 0] == 1.0  # distance ties go to the lower index

    def test_nearest_rows_match_a_per_state_loop(self):
        """Bit for bit the rows of a loop over states, ties and unsorted
        representatives included."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            reps = rng.choice(size, int(rng.integers(1, size + 1)), replace=False)
            expected = np.zeros((size, reps.size))
            for x in range(size):
                expected[x, int(np.argmin(np.abs(reps - x)))] = 1.0
            rows = nearest_representative_rows(size, reps)
            assert rows.dtype == expected.dtype and np.array_equal(rows, expected)

    def test_default_probabilities_shapes(self):
        rng = np.random.default_rng(10)
        problem = separated_model_to_problem(random_separated_model(rng, 4, 5))
        reps = RepresentativeSets(np.array([0, 2]), np.array([1, 3]))
        phi = default_probabilities(problem, reps)
        assert phi.phi1.shape == (4, 2) and phi.phi2.shape == (5, 2)
