"""Solving a reduced problem over representative states and lifting back.

Pick representative subsets of each player's states, push every outcome
of a representative's moves through the aggregation probabilities onto
the opposite representatives, solve the small tabular problem exactly,
then read suboptimal policies off one-step lookahead against the
interpolated tables.  Each outcome is split by a convex combination, so
the reduced problem keeps the parent's shift factor and, under unit
weights, its contraction modulus.
"""

from dataclasses import dataclass

import numpy as np

from .core import (HalfStage, PolicyPair, TabularProblem, ValueTable, WeightedSpace,
                   policy_pair_value)
from .errors import InputFieldError, MissingAggregationRow

_ROW_TOL = 1e-10


def _as_array(name, value, dtype):
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:   # ragged lists, non-numbers
        raise InputFieldError(name, f"is not an array: {exc}") from exc


@dataclass(frozen=True)
class RepresentativeSets:
    """Index subsets of the two state spaces that anchor the reduced problem.

    Each is a nonempty 1-d array of distinct integers, or
    :class:`InputFieldError` is raised; :func:`build_aggregate`
    checks the indices against the spaces.
    """

    reps1: np.ndarray
    reps2: np.ndarray

    def __post_init__(self):
        for name in ("reps1", "reps2"):
            r = _as_array(name, getattr(self, name), None)
            if r.ndim != 1 or r.size == 0 or r.dtype.kind not in "iu" \
                    or len(set(r.tolist())) != r.size:
                raise InputFieldError(name, "must be a nonempty list of "
                                      "distinct integer indices")
            object.__setattr__(self, name, r.astype(int))


@dataclass(frozen=True)
class AggregationProbabilities:
    """Row-stochastic maps from full states onto the representatives.

    Entries in ``[-1e-10, 0)`` are clipped to 0, and each row whose sum
    is within 1e-10 of 1 is divided by it, so the reduced problem's
    outcome masses sum to 1 as closely as the parent's.  Any other row
    sum, a NaN, or a more negative entry raises
    :class:`InputFieldError`.  An all-zero row marks a state with no
    aggregation rule; building an aggregate problem over it raises
    :class:`MissingAggregationRow` (any state may be reached, so every row
    must exist).
    """

    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        for name in ("phi1", "phi2"):
            p = _as_array(name, getattr(self, name), float)
            if p.ndim != 2 or p.size == 0:
                raise InputFieldError(name, "must be a nonempty matrix")
            if not np.min(p) >= -_ROW_TOL:   # NaN fails too
                raise InputFieldError(name, "entries must be nonnegative numbers")
            p = np.maximum(p, 0.0)
            sums = p.sum(axis=1)
            bad = np.nonzero((np.abs(sums - 1.0) > _ROW_TOL) & (sums > _ROW_TOL))[0]
            if bad.size:
                raise InputFieldError(name, f"row {bad[0]} sums to {sums[bad[0]]}")
            object.__setattr__(self, name, p / np.where(sums > _ROW_TOL, sums, 1.0)[:, None])


def nearest_representative_rows(size, reps):
    """Point-mass rows on the closest representative by index distance (first of ties)."""
    reps = np.atleast_1d(np.asarray(reps, dtype=int))
    nearest = np.argmin(np.abs(reps[None] - np.arange(size)[:, None]), axis=1)
    return np.eye(reps.size)[nearest]


def default_probabilities(problem, reps):
    return AggregationProbabilities(
        nearest_representative_rows(problem.space1.size, reps.reps1),
        nearest_representative_rows(problem.space2.size, reps.reps2),
    )


def interpolate(j_tilde, phi_rows):
    """Lift representative-state values to the full space: phi @ values."""
    return np.asarray(phi_rows, dtype=float) @ j_tilde


def _reduced_stage(stage, rows, phi, pad):
    """``stage`` at the representative ``rows``, each outcome split over
    the opposite representatives: ``prob*phi[next, r]`` to r at the same
    cost.  Zero masses drop out, so a point-mass phi keeps the width."""
    live = stage.live()[rows]
    prob, cost, nxt = (a[rows][live] for a in (stage.prob, stage.cost, stage.next))
    prob = prob[..., None] * phi[nxt]
    keep = prob > 0
    act, k, r = np.nonzero(keep)
    return HalfStage.from_ragged(live.sum(axis=1), keep.sum(axis=(1, 2)), prob[keep],
                                 cost[act, k], r, stage.scale, pad)


def build_aggregate(problem, reps, phi):
    """The reduced tabular problem over the representatives.

    A representative's move reaches the opposite representatives through
    phi, so solving the aggregate is exactly the original dynamics
    restricted to representative anchors with randomized re-entry.
    Raises ``TypeError`` unless ``problem`` is a :class:`TabularProblem`,
    and :class:`InputFieldError` for a representative outside its
    space or a phi not shaped (space size, representative count).
    """
    if not isinstance(problem, TabularProblem):
        raise TypeError("aggregation needs a tabular problem")
    for side, space in (("1", problem.space1), ("2", problem.space2)):
        r, rows = getattr(reps, "reps" + side), getattr(phi, "phi" + side)
        if np.min(r) < 0 or np.max(r) >= space.size:
            raise InputFieldError("reps" + side, f"indices must lie in [0, {space.size})")
        if rows.shape != (space.size, r.size):
            raise InputFieldError("phi" + side, f"has shape {rows.shape}, "
                                  f"expected {(space.size, r.size)}")
    for name, rows in (("phi1", phi.phi1), ("phi2", phi.phi2)):
        empty = np.nonzero(rows.sum(axis=1) < 0.5)[0]
        if empty.size:
            raise MissingAggregationRow(f"{name} has no row for state {empty[0]}")
    r1, r2 = reps.reps1, reps.reps2
    return TabularProblem(
        space1=WeightedSpace(r1.size, problem.space1.weights[r1]),
        space2=WeightedSpace(r2.size, problem.space2.weights[r2]),
        stage1=_reduced_stage(problem.stage1, r1, phi.phi2, np.inf),
        stage2=_reduced_stage(problem.stage2, r2, phi.phi1, -np.inf),
    )


def lookahead_policies(problem, j1_full, j2_full):
    """Greedy policies against interpolated tables on the full spaces."""
    _, mu = problem.t1_greedy(j2_full)
    _, nu = problem.t2_greedy(j1_full, mu)
    return PolicyPair(mu, nu)


@dataclass(frozen=True)
class AggregateSolution:
    """The lifted minimizer table, the lookahead pair's evaluated cost, and
    that cost's distance to the true fixed point."""

    j1_full: ValueTable
    pair_value1: ValueTable
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
    pair_j1 = policy_pair_value(problem, policies, tol=tol)
    exact = value_iterate(problem, tol=tol)
    return AggregateSolution(j1_full, pair_j1, pair_j1.diff_norm(exact.j1))
