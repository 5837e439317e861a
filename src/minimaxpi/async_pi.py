"""Distributed optimistic policy iteration with interleavable operations.

The solver state is two table pairs plus a policy pair.  Each step applies
one of four operations (an evaluation sweep or a policy improvement, for
either player) to any subset of that player's states, reading the other
side through a pessimism guard: the minimizer prices continuations at
max[V2, J2], the maximizer at min[V1, J1].  That guard is what buys
convergence under any fair interleaving, bounded read staleness, and
state-space partitioning: the underlying four-component operator is a
uniform sup-norm contraction whose fixed point does not depend on the
policies, which this module can certify numerically.
"""

import itertools
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import SCORE_PAD, CheckResult, PolicyPair, ValueTable, certify, update_policy
from .errors import ContractionViolation, MaxStepsExceeded

_DEFAULT_EVALS = 10


class Kind(Enum):
    MIN_EVAL = "MinEval"
    MIN_IMPROVE = "MinImprove"
    MAX_EVAL = "MaxEval"
    MAX_IMPROVE = "MaxImprove"

    @property
    def side(self):
        return 1 if self in (Kind.MIN_EVAL, Kind.MIN_IMPROVE) else 2


@dataclass(frozen=True)
class Operation:
    """One scheduled step: an operation kind aimed at a state subset."""

    kind: Kind
    subset: np.ndarray
    label: str = "all"

    def __post_init__(self):
        sub = np.atleast_1d(np.asarray(self.subset, dtype=int))
        if sub.size == 0:
            raise ValueError("operation subsets must be nonempty")
        object.__setattr__(self, "subset", sub)


@dataclass(frozen=True)
class AlgoState:
    """The iterate advanced by the four operations."""

    j1: ValueTable
    v1: ValueTable
    j2: object
    v2: object
    policies: PolicyPair
    t: int = 0


def initial_state(problem):
    """Zero tables and first-action policies."""
    return AlgoState(problem.zero1(), problem.zero1(),
                     problem.zero2(), problem.zero2(),
                     problem.first_policies())


def _apply(problem, state, op, read):
    """Advance one step, reading opposite-side tables from ``read``."""
    subset = op.subset
    if op.kind is Kind.MIN_EVAL:
        m2 = read.v2.pointwise_max(read.j2)
        vals = problem.min_eval_values(subset, state.policies.mu, m2)
        return replace(state, j1=state.j1.with_updates(subset, vals), t=state.t + 1)
    if op.kind is Kind.MIN_IMPROVE:
        m2 = read.v2.pointwise_max(read.j2)
        vals, picks = problem.min_improve(subset, m2)
        return replace(
            state,
            j1=state.j1.with_updates(subset, vals),
            v1=state.v1.with_updates(subset, vals),
            policies=PolicyPair(update_policy(state.policies.mu, subset, picks),
                                state.policies.nu),
            t=state.t + 1,
        )
    if op.kind is Kind.MAX_EVAL:
        m1 = read.v1.pointwise_min(read.j1)
        entries = problem.max_eval_entries(subset, state.policies.nu, m1)
        return replace(state, j2=state.j2.with_updates(subset, entries), t=state.t + 1)
    m1 = read.v1.pointwise_min(read.j1)
    entries, picks = problem.max_improve(subset, m1, state.policies.mu)
    return replace(
        state,
        j2=state.j2.with_updates(subset, entries),
        v2=state.v2.with_updates(subset, entries),
        policies=PolicyPair(state.policies.mu,
                            update_policy(state.policies.nu, subset, picks)),
        t=state.t + 1,
    )


def _full1(problem):
    return np.arange(problem.space1.size)


def _full2(problem):
    return np.arange(problem.space2.size)


def min_eval_step(problem, state, subset=None):
    """One evaluation sweep for the minimizer's current policy on a subset."""
    subset = _full1(problem) if subset is None else subset
    return _apply(problem, state, Operation(Kind.MIN_EVAL, subset), state)


def min_improve_step(problem, state, subset=None):
    """Greedy minimizer improvement; sets J1 = V1 and the new policy on the subset."""
    subset = _full1(problem) if subset is None else subset
    return _apply(problem, state, Operation(Kind.MIN_IMPROVE, subset), state)


def max_eval_step(problem, state, subset=None):
    """One evaluation sweep for the maximizer's current policy on a subset."""
    subset = _full2(problem) if subset is None else subset
    return _apply(problem, state, Operation(Kind.MAX_EVAL, subset), state)


def max_improve_step(problem, state, subset=None):
    """Greedy maximizer improvement; sets J2 = V2 and the new policy on the subset."""
    subset = _full2(problem) if subset is None else subset
    return _apply(problem, state, Operation(Kind.MAX_IMPROVE, subset), state)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """An operation stream with a declared fairness horizon.

    ``ops(problem)`` yields Operations forever; every kind must touch every
    state within any window of ``fairness_horizon`` steps.  ``period`` is
    the natural cycle length, used to pace stopping checks.  ``staleness``
    is the read-delay bound the schedule asks the executor to simulate.
    """

    name: str
    ops: callable
    fairness_horizon: int
    period: int
    staleness: int = 0


def _cycle_ops(problem, evals_per_improve):
    k = evals_per_improve
    a1, a2 = _full1(problem), _full2(problem)
    return ([Operation(Kind.MIN_IMPROVE, a1)] + [Operation(Kind.MIN_EVAL, a1)] * k
            + [Operation(Kind.MAX_IMPROVE, a2)] + [Operation(Kind.MAX_EVAL, a2)] * k)


def round_robin(evals_per_improve=_DEFAULT_EVALS):
    """Improve then evaluate k times, minimizer first, over the full spaces."""
    period = 2 * (evals_per_improve + 1)

    def ops(problem):
        return itertools.cycle(_cycle_ops(problem, evals_per_improve))

    return Schedule(f"round_robin:k={evals_per_improve}", ops, period, period)


def random_fair(seed, evals_per_improve=_DEFAULT_EVALS):
    """Seeded shuffle of each round-robin cycle; fairness horizon two cycles."""
    period = 2 * (evals_per_improve + 1)

    def ops(problem):
        rng = np.random.default_rng(seed)
        base = _cycle_ops(problem, evals_per_improve)

        def gen():
            while True:
                order = rng.permutation(len(base))
                for i in order:
                    yield base[i]

        return gen()

    return Schedule(f"random:seed={seed}", ops, 2 * period, period)


def partitioned(blocks=4, evals_per_improve=_DEFAULT_EVALS):
    """Block-cyclic sweep: each space is split into blocks worked in turn."""

    def ops(problem):
        k = evals_per_improve
        parts1 = np.array_split(_full1(problem), min(blocks, problem.space1.size))
        parts2 = np.array_split(_full2(problem), min(blocks, problem.space2.size))
        cycle = []
        for i, b in enumerate(parts1):
            cycle.append(Operation(Kind.MIN_IMPROVE, b, f"b{i}"))
            cycle.extend([Operation(Kind.MIN_EVAL, b, f"b{i}")] * k)
        for i, b in enumerate(parts2):
            cycle.append(Operation(Kind.MAX_IMPROVE, b, f"b{i}"))
            cycle.extend([Operation(Kind.MAX_EVAL, b, f"b{i}")] * k)
        return itertools.cycle(cycle)

    period = 2 * blocks * (evals_per_improve + 1)
    return Schedule(f"partitioned:p={blocks}", ops, period, period)


def delayed(inner, staleness):
    """Ask the executor to read tables up to ``staleness`` updates stale."""
    return replace(inner, name=f"delayed:B={staleness},inner={inner.name}",
                   staleness=int(staleness))


def fairness_ok(schedule, problem, steps=None):
    """Check the declared horizon on a produced prefix of the schedule."""
    horizon = schedule.fairness_horizon
    steps = 3 * horizon if steps is None else steps
    prefix = list(itertools.islice(schedule.ops(problem), steps))
    sizes = {1: problem.space1.size, 2: problem.space2.size}
    for start in range(steps - horizon + 1):
        window = prefix[start : start + horizon]
        seen = {(kind, x) for op in window for kind in [op.kind] for x in op.subset}
        for kind in Kind:
            for x in range(sizes[kind.side]):
                if (kind, x) not in seen:
                    return False
    return True


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    step: int
    kind: str
    subset: str
    residual1: float
    residual2: float


def _probe_diff(a, b):
    """Change gauge for trace rows: the tables' ``diff_bound``."""
    return a.diff_bound(b)


def _converged(problem, state, tol):
    """Stopping certificate: the bound :func:`~minimaxpi.core.certify`
    puts on J1's distance to the fixed point is at most ``tol``.

    J1 is the table a run answers with.  J2 and V2 are not gated: J2 on a
    game is an evaluated section that never matches V2 pointwise.
    """
    return certify(problem, state.j1)[1] <= tol


def run(problem, schedule, init=None, tol=1e-8, max_steps=10**6, seed=0, trace_out=None):
    """The executor.

    Applies the schedule's operations until one greedy composite sweep
    certifies that J1 is within ``tol`` of the fixed point's minimizer
    table (checked every ``schedule.period`` steps).  With a positive
    ``schedule.staleness``, each step reads table snapshots up to that many
    updates old (delay drawn uniformly per step from a seeded generator),
    emulating communication delays.  Returns (final state, trace):
    ``trace_out`` with one :class:`TraceRow` per step appended, or [] (and
    no change probe computed) without it.  Raises
    :class:`MaxStepsExceeded` when the budget runs out.

    A block-parallel sweep needs no executor of its own.  An operation
    writes its side's entries on its subset and reads, of its own side,
    only its policy there; the rest comes from the opposite side.  So
    same-kind operations on disjoint blocks, applied against one snapshot
    or in turn, give exactly one full-space operation: ``round_robin``.
    """
    state = initial_state(problem) if init is None else init
    staleness = schedule.staleness
    rng = np.random.default_rng(seed)
    ring = deque([state], maxlen=staleness + 1)
    trace = [] if trace_out is None else trace_out
    check_every = max(1, schedule.period)
    if init is not None and _converged(problem, state, tol):
        return state, trace
    for step, op in enumerate(itertools.islice(schedule.ops(problem), max_steps), 1):
        read = state
        if staleness > 0:
            delay = int(rng.integers(0, staleness + 1))
            read = ring[max(0, len(ring) - 1 - delay)]
        new = _apply(problem, state, op, read)
        if trace_out is not None:
            r1 = _probe_diff(state.j1, new.j1) if op.kind.side == 1 else 0.0
            r2 = _probe_diff(state.j2, new.j2) if op.kind.side == 2 else 0.0
            trace.append(TraceRow(step, op.kind.value, op.label, r1, r2))
        state = new
        ring.append(state)
        if step % check_every == 0 and _converged(problem, state, tol):
            return state, trace
    if _converged(problem, state, tol):
        return state, trace
    raise MaxStepsExceeded(
        f"no convergence within {max_steps} steps (unfair schedule, "
        "non-contractive problem, or too-tight tol)", state=state, trace=trace)


# ---------------------------------------------------------------------------
# The extended four-component operator over explicit action tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QState:
    """State-value tables plus full per-action tables for both players.

    ``q1``/``q2`` have the score primitive's layout: one row per state,
    one column per action, padded past each state's actions with
    ``SCORE_PAD`` of the side (+inf for q1, -inf for q2).
    """

    v1: ValueTable
    v2: ValueTable
    q1: np.ndarray
    q2: np.ndarray


def _per_action(problem, side, values):
    """``values`` at the real actions of the score layout, padding elsewhere."""
    return np.where(problem.action_mask(side), values, SCORE_PAD[side])


def q_zero_state(problem):
    return QState(problem.zero1(), problem.zero2(),
                  _per_action(problem, 1, 0.0), _per_action(problem, 2, 0.0))


def _action_gap(problem, side, a, b, weights):
    live = problem.action_mask(side)
    gap = np.abs(np.subtract(a, b, out=np.zeros(live.shape), where=live))
    return float(np.max(gap / weights[:, None]))


def q_state_diff(problem, a, b):
    """Norm of Eq-style quadruple differences: the largest per-part norm."""
    dq1 = _action_gap(problem, 1, a.q1, b.q1, problem.space1.weights)
    dq2 = _action_gap(problem, 2, a.q2, b.q2, problem.space2.weights)
    return max(a.v1.diff_norm(b.v1), a.v2.diff_norm(b.v2), dq1, dq2)


def _random_q_state(problem, rng):
    v1, v2 = problem.random_table1(rng), problem.random_table2(rng)
    q = [_per_action(problem, side, rng.uniform(-1, 1, problem.action_mask(side).shape)
                     * space.weights[:, None])
         for side, space in ((1, problem.space1), (2, problem.space2))]
    return QState(v1, v2, *q)


def build_G(problem, policies):
    """The four-component operator applied by the extended algorithm.

    Needs explicit finite action sets so the per-action tables are plain
    arrays; both are one full-subset call of the problem's score
    primitive.  Returns a function mapping a :class:`QState` to the next
    one: improvements of both players' state tables and refreshes of both
    per-action tables, all read through the pessimism guard at the given
    policy pair.
    """
    if not hasattr(problem, "scores"):
        raise TypeError("the extended operator needs explicit finite action sets")
    all1, all2 = _full1(problem), _full2(problem)

    def apply(qs):
        m2 = qs.v2.pointwise_max(ValueTable(problem.space2, qs.q2[all2, policies.nu]))
        q1 = problem.scores(1, all1, m2.values)
        m1 = qs.v1.pointwise_min(ValueTable(problem.space1, qs.q1[all1, policies.mu]))
        q2 = problem.scores(2, all2, m1.values)
        return QState(ValueTable(problem.space1, q1.min(axis=1)),
                      ValueTable(problem.space2, q2.max(axis=1)), q1, q2)

    return apply


def solve_G_fixed_point(problem, policies, tol=1e-13, max_iters=10**5):
    """Iterate the four-component operator from zero to its fixed point."""
    apply = build_G(problem, policies)
    qs = q_zero_state(problem)
    for _ in range(max_iters):
        new = apply(qs)
        if q_state_diff(problem, qs, new) <= tol:
            return new
        qs = new
    raise MaxStepsExceeded("extended operator iteration did not converge")


def verify_uniform_contraction(problem, samples=100, seed=0, policy_trials=5):
    """Certify the extended operator numerically.

    Samples quadruple pairs under random policy pairs and returns the
    largest contraction ratio observed; raises
    :class:`ContractionViolation` if it exceeds the problem's modulus, or
    if fixed points solved under distinct policy pairs disagree.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a = _random_q_state(problem, rng)
        b = _random_q_state(problem, rng)
        dist = q_state_diff(problem, a, b)
        if dist <= 1e-13:
            continue
        pol = problem.random_policies(rng)
        apply = build_G(problem, pol)
        ratio = q_state_diff(problem, apply(a), apply(b)) / dist
        if ratio > problem.alpha + 1e-10:
            raise ContractionViolation(
                f"ratio {ratio:.12f} exceeds modulus {problem.alpha:.12f}",
                witness=(a, b, pol))
        worst = max(worst, ratio)
    fixed = [solve_G_fixed_point(problem, problem.random_policies(rng))
             for _ in range(policy_trials)]
    for fa, fb in itertools.combinations(fixed, 2):
        gap = q_state_diff(problem, fa, fb)
        if gap > 1e-8:
            raise ContractionViolation(
                f"fixed points differ by {gap:.3e} across policy pairs",
                witness=(fa, fb))
    return worst


def run_extended(problem, ops, steps, policies=None):
    """Apply scheduled components of the extended operator step by step.

    Improvements update the state table, the per-action table, and the
    policy together; evaluations refresh only the per-action table.
    Yields the state after every step so reduced-space runs can be
    compared against it.
    """
    qs = q_zero_state(problem)
    pol = problem.first_policies() if policies is None else policies
    out = [(qs, pol)]
    for op in itertools.islice(ops, steps):
        new = build_G(problem, pol)(qs)
        sub = op.subset
        if op.kind.side == 1:
            q1 = qs.q1.copy()
            q1[sub] = new.q1[sub]
            qs = replace(qs, q1=q1)
            if op.kind is Kind.MIN_IMPROVE:
                qs = replace(qs, v1=qs.v1.with_updates(sub, new.v1.values[sub]))
                pol = PolicyPair(update_policy(pol.mu, sub, np.argmin(new.q1[sub], axis=1)),
                                 pol.nu)
        else:
            q2 = qs.q2.copy()
            q2[sub] = new.q2[sub]
            qs = replace(qs, q2=q2)
            if op.kind is Kind.MAX_IMPROVE:
                qs = replace(qs, v2=qs.v2.with_updates(sub, new.v2.values[sub]))
                pol = PolicyPair(pol.mu,
                                 update_policy(pol.nu, sub, np.argmax(new.q2[sub], axis=1)))
        out.append((qs, pol))
    return out


# ---------------------------------------------------------------------------
# Order-preservation of the pessimism guard
# ---------------------------------------------------------------------------


def check_minmax_nonexpansive(samples=10**4, seed=0):
    """Sample table quadruples and verify the pointwise-min/max guard
    never expands weighted sup-norm distances."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        size = int(rng.integers(1, 7))
        xi = rng.uniform(0.5, 2.0, size)
        v, j, vp, jp = rng.uniform(-5, 5, (4, size))
        rhs = max(float(np.max(np.abs(v - vp) / xi)), float(np.max(np.abs(j - jp) / xi)))
        lo = float(np.max(np.abs(np.minimum(v, j) - np.minimum(vp, jp)) / xi))
        hi = float(np.max(np.abs(np.maximum(v, j) - np.maximum(vp, jp)) / xi))
        if lo > rhs + 1e-12 or hi > rhs + 1e-12:
            return CheckResult(False, {"v": v, "j": j, "vp": vp, "jp": jp,
                                       "weights": xi, "lhs": max(lo, hi), "rhs": rhs})
    return CheckResult(True)
