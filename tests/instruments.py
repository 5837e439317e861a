"""Proof instruments: numerical checks of the properties the solvers rest on.

None of this is on a solver's path.  The samplers draw random tables and
policies of a problem from its public attributes, one sampler per problem
kind (explicit-action problems, whose actions are counted from their
unpadded scores, and the reformulated Markov game);
:func:`estimate_modulus` and :func:`check_monotone` check the fixed-policy
half-stage operators; the extended four-component operator over explicit
action tables (:func:`build_G`) and :func:`verify_uniform_contraction`
check that it is a uniform contraction whose fixed point does not depend
on the policies; :func:`check_minmax_nonexpansive` checks the pessimism
guard.  Three more read a model or a schedule the solvers never read that
way: :func:`value_at` reads a column bundle at one strategy,
:func:`fairness_ok` checks a schedule's fairness horizon, and
:func:`markov_game_to_control` reduces a Markov game to pure-strategy
control.

The functional step, :func:`apply_step` on a :class:`StepState`, is the
executor's reference: immutable tables, policies and provenance, a new
state per step, guards built on first use.  :func:`minimaxpi.async_pi.run`
writes the same steps into private arrays, and the tests replay it against
this step bit for bit.
"""

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from minimaxpi.async_pi import AlgoState, Kind, _same, initial_state
from minimaxpi.core import SCORE_PAD, PolicyPair, ValueTable, WeightedSpace
from minimaxpi.errors import MaxStepsExceeded, MinimaxPIError
from minimaxpi.models import (_PROB_TOL, ColumnMaxTable, MarkovSeparatedProblem,
                              MinimaxControlModel, _readings, _sup_gaps)

_ZERO_DISTANCE = 1e-13


class DegeneratePair(MinimaxPIError):
    """Every sampled pair in a modulus estimate had zero distance."""


class ContractionViolation(MinimaxPIError):
    """A sampled pair contracted by more than the asserted modulus.

    Carries the offending pair for diagnosis.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def random_table1(problem, rng):
    return ValueTable(problem.space1, rng.uniform(-1, 1, problem.space1.size) * problem.space1.weights)


def random_table2(problem, rng):
    if isinstance(problem, MarkovSeparatedProblem):
        return _random_bundles(problem, rng)
    return ValueTable(problem.space2, rng.uniform(-1, 1, problem.space2.size) * problem.space2.weights)


def random_policies(problem, rng):
    if isinstance(problem, MarkovSeparatedProblem):
        mu = rng.dirichlet(np.ones(problem.n), problem.game.state_count)
        nu = rng.integers(problem.m, size=problem.game.state_count)
        return PolicyPair(mu, nu)
    mu = np.array([rng.integers(c) for c in action_counts(problem, 1)])
    nu = np.array([rng.integers(c) for c in action_counts(problem, 2)])
    return PolicyPair(mu, nu)


def random_ordered_table2(problem, rng):
    lo = random_table2(problem, rng)
    if isinstance(problem, MarkovSeparatedProblem):
        shifts = rng.uniform(0, 1, problem.game.state_count)
        return lo, ColumnMaxTable(problem.space2, lo.cols + shifts[:, None, None])
    hi = ValueTable(problem.space2, lo.values + rng.uniform(0, 1, problem.space2.size))
    return lo, hi


def _random_bundles(problem, rng):
    """Bundles of 1..m random columns, padded to m with the last one."""
    s = problem.game.state_count
    widths = rng.integers(1, problem.m + 1, s)
    cols = rng.uniform(-1, 1, (s, problem.n, problem.m)) * problem.space2.weights[:, None, None]
    last = np.minimum(np.arange(problem.m), widths[:, None] - 1)
    return ColumnMaxTable(problem.space2, np.take_along_axis(cols, last[:, None, :], axis=2))


def action_counts(problem, side):
    """Each of ``side``'s states' number of actions: the finite entries of
    its row of the unpadded score layout, against a zero opposite table."""
    size, opposite = ((problem.space1.size, problem.space2.size) if side == 1
                      else (problem.space2.size, problem.space1.size))
    return np.isfinite(problem.scores(side, np.arange(size), np.zeros(opposite))).sum(1)


def action_mask(problem, side):
    """Which entries of the (states, widest action list) score layout
    are real actions rather than padding."""
    counts = action_counts(problem, side)
    return np.arange(counts.max()) < counts[:, None]


def score_at(problem, side, x, a, opposite):
    """One (state, action) score: the score primitive at one pick."""
    return float(problem.scores(side, [x], opposite, [a])[0])


def side_of(kind):
    """The player an operation kind acts for: 1 minimizes, 2 maximizes."""
    return 1 if kind in (Kind.MIN_EVAL, Kind.MIN_IMPROVE) else 2


def le(a, b, slack=1e-12):
    """Pointwise <= check of two tables of one kind; returns (ok, witness).
    Column bundles compare by their largest gap over the simplex."""
    if isinstance(a, ColumnMaxTable):
        gaps = _sup_gaps(a.cols, b.cols)
        x = int(np.argmax(gaps > slack))
        if gaps[x] > slack:
            return False, {"state": x, "excess": float(gaps[x])}
        return True, None
    gap = a.values - b.values
    if np.all(gap <= slack):
        return True, None
    x = int(np.argmax(gap))
    return False, {"state": x, "left": float(a.values[x]), "right": float(b.values[x])}


# ---------------------------------------------------------------------------
# The fixed-policy half-stage operators
# ---------------------------------------------------------------------------


def estimate_modulus(problem, samples=100, seed=0):
    """Largest observed contraction ratio of the fixed-policy joint operator.

    Samples random table pairs and policy pairs and returns
    max ||T_{mu,nu} a - T_{mu,nu} b|| / ||a - b||.  For a valid model this
    never exceeds the asserted modulus (up to 1e-10 of float slack).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    usable = 0
    for _ in range(samples):
        a1, a2 = random_table1(problem, rng), random_table2(problem, rng)
        b1, b2 = random_table1(problem, rng), random_table2(problem, rng)
        dist = max(a1.diff_norm(b1), a2.diff_norm(b2))
        if dist <= _ZERO_DISTANCE:
            continue
        usable += 1
        pol = random_policies(problem, rng)
        ta1, ta2 = problem.t1_policy(pol.mu, a2), problem.t2_policy(pol.nu, a1)
        tb1, tb2 = problem.t1_policy(pol.mu, b2), problem.t2_policy(pol.nu, b1)
        moved = max(ta1.diff_norm(tb1), ta2.diff_norm(tb2))
        worst = max(worst, moved / dist)
    if usable == 0:
        raise DegeneratePair("all sampled table pairs coincided")
    return worst


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first counterexample found, if any."""

    ok: bool
    witness: dict | None = None

    def __bool__(self):
        return self.ok


def check_monotone(problem, samples=100, seed=0, slack=1e-9):
    """Sample ordered tables and verify both half-stage operators preserve order."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        pol = random_policies(problem, rng)
        lo2, hi2 = random_ordered_table2(problem, rng)
        out_lo = problem.t1_policy(pol.mu, lo2)
        out_hi = problem.t1_policy(pol.mu, hi2)
        ok, w = le(out_lo, out_hi, slack)
        if not ok:
            return CheckResult(False, {"side": 1, **w})
        lo1 = random_table1(problem, rng)
        hi1 = ValueTable(problem.space1, lo1.values + rng.uniform(0, 1, problem.space1.size))
        out_lo = problem.t2_policy(pol.nu, lo1)
        out_hi = problem.t2_policy(pol.nu, hi1)
        ok, w = le(out_lo, out_hi, slack)
        if not ok:
            return CheckResult(False, {"side": 2, **w})
    return CheckResult(True)


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
    return np.where(action_mask(problem, side), values, SCORE_PAD[side])


def q_zero_state(problem):
    return QState(problem.zero1(), problem.zero2(),
                  _per_action(problem, 1, 0.0), _per_action(problem, 2, 0.0))


def _action_gap(problem, side, a, b, weights):
    live = action_mask(problem, side)
    gap = np.abs(np.subtract(a, b, out=np.zeros(live.shape), where=live))
    return float(np.max(gap / weights[:, None]))


def q_state_diff(problem, a, b):
    """Norm of Eq-style quadruple differences: the largest per-part norm."""
    dq1 = _action_gap(problem, 1, a.q1, b.q1, problem.space1.weights)
    dq2 = _action_gap(problem, 2, a.q2, b.q2, problem.space2.weights)
    return max(a.v1.diff_norm(b.v1), a.v2.diff_norm(b.v2), dq1, dq2)


def _random_q_state(problem, rng):
    v1, v2 = random_table1(problem, rng), random_table2(problem, rng)
    q = [_per_action(problem, side, rng.uniform(-1, 1, action_mask(problem, side).shape)
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
    all1, all2 = np.arange(problem.space1.size), np.arange(problem.space2.size)

    def apply(qs):
        m2 = pointwise_max(qs.v2, ValueTable(problem.space2, qs.q2[all2, policies.nu]))
        q1 = problem.scores(1, all1, m2.values)
        m1 = pointwise_min(qs.v1, ValueTable(problem.space1, qs.q1[all1, policies.mu]))
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
        pol = random_policies(problem, rng)
        apply = build_G(problem, pol)
        ratio = q_state_diff(problem, apply(a), apply(b)) / dist
        if ratio > problem.alpha + 1e-10:
            raise ContractionViolation(
                f"ratio {ratio:.12f} exceeds modulus {problem.alpha:.12f}",
                witness=(a, b, pol))
        worst = max(worst, ratio)
    fixed = [solve_G_fixed_point(problem, random_policies(problem, rng))
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
        if side_of(op.kind) == 1:
            q1 = qs.q1.copy()
            q1[sub] = new.q1[sub]
            qs = replace(qs, q1=q1)
            if op.kind is Kind.MIN_IMPROVE:
                qs = replace(qs, v1=with_updates(qs.v1, sub, new.v1.values[sub]))
                pol = PolicyPair(update_policy(pol.mu, sub, np.argmin(new.q1[sub], axis=1)),
                                 pol.nu)
        else:
            q2 = qs.q2.copy()
            q2[sub] = new.q2[sub]
            qs = replace(qs, q2=q2)
            if op.kind is Kind.MAX_IMPROVE:
                qs = replace(qs, v2=with_updates(qs.v2, sub, new.v2.values[sub]))
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


# ---------------------------------------------------------------------------
# Readings, schedules and reductions the solvers never make
# ---------------------------------------------------------------------------


def value_at(table, x, u):
    """A column-bundle table's value at state x and strategy u: max_j u'col_j."""
    return float(np.max(_readings(np.asarray(u), table.cols[x])))


def fairness_ok(schedule, problem):
    """Whether every window of one period (two when shuffled) in the
    schedule's first three touches every state with every kind."""
    horizon = schedule.period(problem) * (1 if schedule.seed is None else 2)
    prefix = list(itertools.islice(schedule.ops(problem), 3 * horizon))
    sizes = {1: problem.space1.size, 2: problem.space2.size}
    every = {(kind, x) for kind in Kind for x in range(sizes[side_of(kind)])}
    return all(every <= {(op.kind, x) for op in prefix[start : start + horizon] for x in op.subset}
               for start in range(2 * horizon + 1))


def markov_game_to_control(game):
    """Pure-strategy reduction of a Markov game to a minimax control model.

    Substochastic rows gain an absorbing cost-free terminal state so the
    stage operator is reproduced exactly for pure policy pairs.
    """
    s, (n, m) = game.state_count, game.moves
    deficit = 1.0 - game.transitions.sum(axis=3)
    terminal = bool(np.max(deficit) > _PROB_TOL)
    size = s + 1 if terminal else s
    xi = game.space.weights
    weights = np.append(xi, np.min(xi)) if terminal else xi
    outcomes = []
    for x in range(s):
        per_u = []
        for i in range(n):
            per_v = []
            for j in range(m):
                cost = game.payoffs[x, i, j]
                triples = [[p, cost, y] for y, p in enumerate(game.transitions[x, i, j])
                           if p > _PROB_TOL]
                if terminal and deficit[x, i, j] > _PROB_TOL:
                    triples.append([deficit[x, i, j], cost, s])
                per_v.append(triples)
            per_u.append(tuple(per_v))
        outcomes.append(tuple(per_u))
    if terminal:
        outcomes.append((([[1.0, 0.0, s]],),))
    return MinimaxControlModel(WeightedSpace(size, weights), tuple(outcomes), game.alpha)


# ---------------------------------------------------------------------------
# The functional step: the executor's reference
# ---------------------------------------------------------------------------


def update_policy(policy, subset, entries):
    """Functional update of a policy array on a state subset."""
    out = np.array(policy, copy=True)
    out[subset] = entries
    return out


def with_updates(table, subset, entries):
    """``table`` with the entries of ``subset`` replaced; a one-column entry
    fills a bundle.  Only the written entries are checked: the others were
    at the table's build."""
    if isinstance(table, ColumnMaxTable):
        out = table.cols.copy()
        out[subset] = entries
        if not np.isfinite(out[subset]).all():
            raise ValueError("bundle entries must be finite")
        return ColumnMaxTable._trusted(table.space, out)
    out = table.values.copy()
    out[subset] = entries
    if not np.isfinite(out[subset]).all():
        raise ValueError("table entries must be finite")
    return ValueTable._trusted(table.space, out)


def pointwise_min(a, b):
    """min[a, b] of two plain tables; finite as both are."""
    return ValueTable._trusted(a.space, np.minimum(a.values, b.values))


def pointwise_max(a, b):
    """max[a, b] of two plain tables, or of two bundle tables both bundles
    at once; finite as both are."""
    if isinstance(a, ColumnMaxTable):
        return ColumnMaxTable._trusted(a.space, np.concatenate((a.cols, b.cols), axis=2))
    return ValueTable._trusted(a.space, np.maximum(a.values, b.values))


class _Provenance(NamedTuple):
    """Where one side's V came from, state by state.

    ``source`` is a minimizer table G1 with V2 = T2(G1), or V1 = T1(T2 G1),
    on the states ``cover`` marks (None: on none).  ``tight`` marks the
    states whose J leaves the guard at V: J1 >= V1, or J2 <= V2."""

    source: object
    cover: np.ndarray
    tight: np.ndarray

    @classmethod
    def unknown(cls, size):
        return cls(None, np.zeros(size, bool), np.zeros(size, bool))


@dataclass(frozen=True)
class StepState(AlgoState):
    """The iterate advanced by the four operations, as an immutable value.

    ``guard1 = min[V1, J1]`` and ``guard2 = max[V2, J2]``, the tables the
    opposite side reads, are built on first use and kept.  A state made by
    :meth:`_advance` keeps the guards of its predecessor whose two tables it
    shares; one made by ``dataclasses.replace`` starts with none.

    A state made by :func:`apply_step` also records each side's provenance,
    ``prov1`` and ``prov2`` (:class:`_Provenance`; None on other states).
    Where J is tight on every state, the guard is V itself: bit for bit the
    ``np.minimum`` or ``np.maximum`` on plain tables, and on column bundles
    V2's columns alone, of which J2's are copies.  Where in addition V2
    covers every state from one G1, guard2 is exactly T2(G1), and
    ``guard2_source`` names that G1.
    """

    prov1: _Provenance | None = field(default=None, init=False, repr=False, compare=False)
    prov2: _Provenance | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def guard1(self):
        if self.prov1 is not None and self.prov1.tight.all():
            return self.v1
        return pointwise_min(self.v1, self.j1)

    @cached_property
    def guard2(self):
        if self.prov2 is not None and self.prov2.tight.all():
            return self.v2
        return pointwise_max(self.v2, self.j2)

    @cached_property
    def guard2_source(self):
        """G1 if guard2 is T2(G1) on every state, else None."""
        prov = self.prov2
        return prov.source if prov is not None and (prov.cover & prov.tight).all() else None

    def _advance(self, j1, v1, j2, v2, policies, prov1, prov2):
        """The state one step on, with these tables, policies and provenance."""
        new = StepState(j1, v1, j2, v2, policies, self.t + 1)
        cache, kept = self.__dict__, new.__dict__
        kept["prov1"], kept["prov2"] = prov1, prov2
        if "guard1" in cache and j1 is self.j1 and v1 is self.v1:
            kept["guard1"] = cache["guard1"]
        if "guard2" in cache and j2 is self.j2 and v2 is self.v2:
            kept["guard2"] = cache["guard2"]
        return new


def initial_step_state(problem):
    """:func:`~minimaxpi.async_pi.initial_state` as a :class:`StepState`."""
    start = initial_state(problem)
    return StepState(start.j1, start.v1, start.j2, start.v2, start.policies)


def _improved(prov, subset, source):
    """``prov`` after an improvement on ``subset`` from ``source``: J = V
    there, and V derives from source (None: from no one table)."""
    same = source is not None and _same(prov.source, source)
    cover = prov.cover.copy() if same else np.zeros_like(prov.cover)
    cover[subset] = source is not None
    tight = prov.tight.copy()
    tight[subset] = True
    return _Provenance(prov.source if same else source, cover, tight)


def _evaluated(prov, subset, tight_here):
    """``prov`` after an evaluation on ``subset``, tight there as given."""
    tight = prov.tight.copy()
    tight[subset] = tight_here
    return prov._replace(tight=tight)


def apply_step(problem, state, op, read):
    """Advance one step, reading the opposite side's guard from ``read``.

    It keeps each side's provenance (:class:`StepState`).  An improvement
    makes J = V on its subset; V2 derives from the guard1 read, and V1 from
    the table ``read.guard2_source`` names.  An evaluation's J1 is tight
    where it is at least V1, checked on the written entries; its J2 where
    V2 derives from the guard1 read, which makes J2 one of the greedy
    choices V2 maximises over, computed by the same kernel arithmetic."""
    subset, kind = op.subset, op.kind
    j1, v1, j2, v2, policies = state.j1, state.v1, state.j2, state.v2, state.policies
    prov1 = state.prov1 or _Provenance.unknown(v1.space.size)
    prov2 = state.prov2 or _Provenance.unknown(v2.space.size)
    if kind is Kind.MIN_EVAL:
        j1 = with_updates(j1, subset, problem.min_eval_values(subset, policies.mu, read.guard2))
        prov1 = _evaluated(prov1, subset, j1.values[subset] >= v1.values[subset])
    elif kind is Kind.MIN_IMPROVE:
        vals, picks = problem.min_improve(subset, read.guard2)
        j1, v1 = with_updates(j1, subset, vals), with_updates(v1, subset, vals)
        policies = PolicyPair(update_policy(policies.mu, subset, picks), policies.nu)
        prov1 = _improved(prov1, subset, read.guard2_source)
    elif kind is Kind.MAX_EVAL:
        guard = read.guard1
        j2 = with_updates(j2, subset, problem.max_eval_entries(subset, policies.nu, guard))
        prov2 = _evaluated(prov2, subset, prov2.cover[subset] & _same(prov2.source, guard))
    else:
        guard = read.guard1
        entries, picks = problem.max_improve(subset, guard, policies.mu)
        j2, v2 = with_updates(j2, subset, entries), with_updates(v2, subset, entries)
        policies = PolicyPair(policies.mu, update_policy(policies.nu, subset, picks))
        prov2 = _improved(prov2, subset, guard)
    return state._advance(j1, v1, j2, v2, policies, prov1, prov2)
