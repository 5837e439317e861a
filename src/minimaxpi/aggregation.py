"""Solving a reduced problem over representative states and lifting back.

Pick representative subsets of each player's states, compose the original
problem's scores with convex interpolation from the representatives, solve
the small problem exactly, then read suboptimal policies off one-step
lookahead against the interpolated tables.  Interpolation is a convex
combination, so the reduced problem inherits the parent's contraction
modulus under unit weights.
"""

from dataclasses import dataclass

import numpy as np

from .core import PolicyPair, SeparatedProblem, ValueTable, WeightedSpace, policy_pair_value
from .errors import MissingAggregationRow, NonContractive

_ROW_TOL = 1e-10


@dataclass(frozen=True)
class RepresentativeSets:
    """Index subsets of the two state spaces that anchor the reduced problem."""

    reps1: np.ndarray
    reps2: np.ndarray

    def __post_init__(self):
        r1 = np.atleast_1d(np.asarray(self.reps1, dtype=int))
        r2 = np.atleast_1d(np.asarray(self.reps2, dtype=int))
        object.__setattr__(self, "reps1", r1)
        object.__setattr__(self, "reps2", r2)
        if r1.size == 0 or r2.size == 0:
            raise ValueError("representative sets must be nonempty")
        if len(set(r1.tolist())) != r1.size or len(set(r2.tolist())) != r2.size:
            raise ValueError("representative indices must be distinct")


@dataclass(frozen=True)
class AggregationProbabilities:
    """Row-stochastic maps from full states onto the representatives.

    An all-zero row marks a state with no aggregation rule; building an
    aggregate problem over it raises :class:`MissingAggregationRow`
    (the generic evaluators may read any state, so every row must exist).
    """

    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        p1 = np.asarray(self.phi1, dtype=float)
        p2 = np.asarray(self.phi2, dtype=float)
        object.__setattr__(self, "phi1", p1)
        object.__setattr__(self, "phi2", p2)
        for name, p in (("phi1", p1), ("phi2", p2)):
            if p.ndim != 2:
                raise ValueError(f"{name} must be a matrix")
            if np.min(p) < -_ROW_TOL:
                raise ValueError(f"{name} entries must be nonnegative")
            sums = p.sum(axis=1)
            bad = np.nonzero((np.abs(sums - 1.0) > _ROW_TOL) & (sums > _ROW_TOL))[0]
            if bad.size:
                raise ValueError(f"{name} row {bad[0]} sums to {sums[bad[0]]}")


def nearest_representative_rows(size, reps):
    """Point-mass rows on the closest representative by index distance."""
    reps = np.atleast_1d(np.asarray(reps, dtype=int))
    rows = np.zeros((size, reps.size))
    for x in range(size):
        rows[x, int(np.argmin(np.abs(reps - x)))] = 1.0
    return rows


def default_probabilities(problem, reps):
    return AggregationProbabilities(
        nearest_representative_rows(problem.space1.size, reps.reps1),
        nearest_representative_rows(problem.space2.size, reps.reps2),
    )


def interpolate(j_tilde, phi_rows):
    """Lift representative-state values to the full space: phi @ values."""
    return np.asarray(phi_rows, dtype=float) @ j_tilde


@dataclass(frozen=True)
class AggregateProblem(SeparatedProblem):
    """Representative rows of a parent problem, reading the opposite side
    through its interpolation.

    Each score call lifts the opposite table through phi once and asks the
    parent's primitive for the representative rows, so closure and tabular
    parents are served alike.  ``eval1``/``eval2`` do the same per
    (state, action), for per-state oracles.
    """

    parent: SeparatedProblem
    reps: RepresentativeSets
    phi: AggregationProbabilities

    def scores(self, side, subset, opposite, picks=None):
        if side == 1:
            rows, lifted = self.reps.reps1[subset], self.phi.phi2 @ opposite
        else:
            rows, lifted = self.reps.reps2[subset], self.phi.phi1 @ opposite
        out = self.parent.scores(side, rows, lifted, picks)
        if picks is None:   # the parent may allow more actions than any representative
            out = out[:, :max(map(len, self.actions1 if side == 1 else self.actions2))]
        return out


def build_aggregate(problem, reps, phi=None):
    """The reduced problem over the representatives.

    Scores see the opposite side through its interpolation, so solving
    the aggregate is exactly the original dynamics restricted to
    representative anchors with randomized re-entry.
    """
    if not hasattr(problem, "actions1"):
        raise TypeError("aggregation needs explicit finite action sets")
    phi = default_probabilities(problem, reps) if phi is None else phi
    if phi.phi1.shape != (problem.space1.size, reps.reps1.size):
        raise ValueError("phi1 shape does not match the space and representatives")
    if phi.phi2.shape != (problem.space2.size, reps.reps2.size):
        raise ValueError("phi2 shape does not match the space and representatives")
    for name, rows in (("phi1", phi.phi1), ("phi2", phi.phi2)):
        empty = np.nonzero(rows.sum(axis=1) < 0.5)[0]
        if empty.size:
            raise MissingAggregationRow(f"{name} has no row for state {empty[0]}")

    xi1 = problem.space1.weights[reps.reps1]
    xi2 = problem.space2.weights[reps.reps2]
    r1, r2 = reps.reps1, reps.reps2
    phi1, phi2 = phi.phi1, phi.phi2

    def eval1(i, u, j2_tilde):
        return problem.eval1(int(r1[i]), u, phi2 @ j2_tilde)

    def eval2(i, v, j1_tilde):
        return problem.eval2(int(r2[i]), v, phi1 @ j1_tilde)

    blow1 = float(np.max((phi1 @ xi1) / problem.space1.weights))
    blow2 = float(np.max((phi2 @ xi2) / problem.space2.weights))
    modulus = problem.alpha * max(1.0, blow1, blow2)
    if modulus >= 1.0:
        raise NonContractive(
            f"interpolation weights give aggregate modulus {modulus:.6f} >= 1")
    return AggregateProblem(
        space1=WeightedSpace(r1.size, xi1),
        space2=WeightedSpace(r2.size, xi2),
        actions1=tuple(problem.actions1[x] for x in r1),
        actions2=tuple(problem.actions2[x] for x in r2),
        eval1=eval1,
        eval2=eval2,
        alpha=modulus,
        parent=problem,
        reps=reps,
        phi=phi,
    )


def lookahead_policies(problem, j1_full, j2_full):
    """Greedy policies against interpolated tables on the full spaces."""
    _, mu = problem.t1_greedy(j2_full)
    _, nu = problem.t2_greedy(j1_full, mu)
    return PolicyPair(mu, nu)


@dataclass(frozen=True)
class AggregateSolution:
    """Reduced-problem tables, their lifts, the lookahead pair, and its
    exactly evaluated cost alongside the true fixed point."""

    j1_tilde: ValueTable
    j2_tilde: ValueTable
    j1_full: ValueTable
    j2_full: ValueTable
    policies: PolicyPair
    pair_value1: ValueTable
    exact_j1: ValueTable
    gap: float


def solve_with_aggregation(problem, reps, phi=None, tol=1e-9, max_steps=10**6):
    """End to end: reduce, solve, interpolate, look ahead, and price the result."""
    from .async_pi import round_robin, run
    from .core import value_iterate

    phi = default_probabilities(problem, reps) if phi is None else phi
    small = build_aggregate(problem, reps, phi)
    state, _ = run(small, round_robin(), tol=tol, max_steps=max_steps)
    j1_full = ValueTable(problem.space1, interpolate(state.j1.values, phi.phi1))
    j2_full = ValueTable(problem.space2, interpolate(state.j2.values, phi.phi2))
    policies = lookahead_policies(problem, j1_full, j2_full)
    pair_j1, _ = policy_pair_value(problem, policies, tol=tol)
    exact = value_iterate(problem, tol=tol)
    gap = pair_j1.diff_norm(exact.j1)
    return AggregateSolution(state.j1, state.j2, j1_full, j2_full,
                             policies, pair_j1, exact.j1, gap)
