"""Distributed optimistic policy iteration with interleavable operations.

The solver state is two table pairs plus a policy pair.  Each step applies
one of four operations (an evaluation sweep or a policy improvement, for
either player) to any subset of that player's states, reading the other
side through a pessimism guard: the minimizer prices continuations at
max[V2, J2], the maximizer at min[V1, J1].  That guard is what buys
convergence under any fair interleaving, bounded read staleness, and
state-space partitioning: the underlying four-component operator is a
uniform sup-norm contraction whose fixed point does not depend on the
policies.
"""

import itertools
import operator
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import PolicyPair, ValueTable, certify, check_floor, sweep_certificate, update_policy
from .errors import MaxStepsExceeded

DEFAULT_EVALS, DEFAULT_BLOCKS = 10, 4   # evaluations per improvement, partitioned blocks

_DELAY_CHUNK = 256   # read delays drawn per generator call


class Kind(Enum):
    MIN_EVAL = "MinEval"
    MIN_IMPROVE = "MinImprove"
    MAX_EVAL = "MaxEval"
    MAX_IMPROVE = "MaxImprove"


# the members under plain names: the executor tests kinds by identity, and a
# member looked up on its Enum class costs about 0.2 us
_MIN_EVAL, _MIN_IMPROVE, _MAX_EVAL, _MAX_IMPROVE = Kind


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
class AlgoState:
    """The iterate advanced by the four operations.

    ``guard1 = min[V1, J1]`` and ``guard2 = max[V2, J2]``, the tables the
    opposite side reads, are built on first use and kept.  A state made by
    :meth:`_advance` keeps the guards of its predecessor whose two tables it
    shares; one made by ``dataclasses.replace`` starts with none.

    A state made by :func:`_apply` also records each side's provenance,
    ``prov1`` and ``prov2`` (:class:`_Provenance`; None on other states).
    Where J is tight on every state, the guard is V itself: bit for bit the
    ``np.minimum`` or ``np.maximum`` on plain tables, and on column bundles
    V2's columns alone, of which J2's are copies.  Where in addition V2
    covers every state from one G1, guard2 is exactly T2(G1), and
    ``guard2_source`` names that G1.
    """

    j1: ValueTable
    v1: ValueTable
    j2: object
    v2: object
    policies: PolicyPair
    t: int = 0
    prov1: _Provenance | None = field(default=None, init=False, repr=False, compare=False)
    prov2: _Provenance | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def guard1(self):
        if self.prov1 is not None and self.prov1.tight.all():
            return self.v1
        return self.v1.pointwise_min(self.j1)

    @cached_property
    def guard2(self):
        if self.prov2 is not None and self.prov2.tight.all():
            return self.v2
        return self.v2.pointwise_max(self.j2)

    @cached_property
    def guard2_source(self):
        """G1 if guard2 is T2(G1) on every state, else None."""
        prov = self.prov2
        return prov.source if prov is not None and (prov.cover & prov.tight).all() else None

    def _advance(self, j1, v1, j2, v2, policies, prov1, prov2):
        """The state one step on, with these tables, policies and provenance."""
        new = AlgoState(j1, v1, j2, v2, policies, self.t + 1)
        cache, kept = self.__dict__, new.__dict__
        kept["prov1"], kept["prov2"] = prov1, prov2
        if "guard1" in cache and j1 is self.j1 and v1 is self.v1:
            kept["guard1"] = cache["guard1"]
        if "guard2" in cache and j2 is self.j2 and v2 is self.v2:
            kept["guard2"] = cache["guard2"]
        return new


def initial_state(problem):
    """Zero tables and first-action policies."""
    return AlgoState(problem.zero1(), problem.zero1(),
                     problem.zero2(), problem.zero2(),
                     problem.first_policies())


def _same(a, b):
    """Whether two minimizer tables (or None) hold the same values, so that
    a kernel reading either gives the same bits."""
    return a is b or (a is not None and b is not None and np.array_equal(a.values, b.values))


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


def _apply(problem, state, op, read):
    """Advance one step, reading the opposite side's guard from ``read``.

    It keeps each side's provenance (:class:`AlgoState`).  An improvement
    makes J = V on its subset; V2 derives from the guard1 read, and V1 from
    the table ``read.guard2_source`` names.  An evaluation's J1 is tight
    where it is at least V1, checked on the written entries; its J2 where
    V2 derives from the guard1 read, which makes J2 one of the greedy
    choices V2 maximises over, computed by the same kernel arithmetic."""
    subset, kind = op.subset, op.kind
    j1, v1, j2, v2, policies = state.j1, state.v1, state.j2, state.v2, state.policies
    prov1 = state.prov1 or _Provenance.unknown(v1.space.size)
    prov2 = state.prov2 or _Provenance.unknown(v2.space.size)
    if kind is _MIN_EVAL:
        j1 = j1.with_updates(subset, problem.min_eval_values(subset, policies.mu, read.guard2))
        prov1 = _evaluated(prov1, subset, j1.values[subset] >= v1.values[subset])
    elif kind is _MIN_IMPROVE:
        vals, picks = problem.min_improve(subset, read.guard2)
        j1, v1 = j1.with_updates(subset, vals), v1.with_updates(subset, vals)
        policies = PolicyPair(update_policy(policies.mu, subset, picks), policies.nu)
        prov1 = _improved(prov1, subset, read.guard2_source)
    elif kind is _MAX_EVAL:
        guard = read.guard1
        j2 = j2.with_updates(subset, problem.max_eval_entries(subset, policies.nu, guard))
        prov2 = _evaluated(prov2, subset, prov2.cover[subset] & _same(prov2.source, guard))
    else:
        guard = read.guard1
        entries, picks = problem.max_improve(subset, guard, policies.mu)
        j2, v2 = j2.with_updates(subset, entries), v2.with_updates(subset, entries)
        policies = PolicyPair(policies.mu, update_policy(policies.nu, subset, picks))
        prov2 = _improved(prov2, subset, guard)
    return state._advance(j1, v1, j2, v2, policies, prov1, prov2)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """An operation cycle, repeated forever.

    ``cycle(problem)`` returns one period of Operations, and :meth:`ops`
    repeats it, reshuffled each repetition from one generator seeded with
    ``seed`` when that is set.  The period paces :func:`run`'s stopping
    checks; a fair cycle touches every state with every kind, so any window
    of one period (two when shuffled) does too.  ``staleness`` is the
    read-delay bound the schedule asks the executor to simulate.
    :func:`run` can skip an evaluation only if its subset is the very array
    of an earlier operation of its side; the built-in cycles give a block's
    operations one array and repeat them by list multiplication.
    """

    name: str
    cycle: callable
    seed: int | None = None
    staleness: int = 0

    def ops(self, problem):
        """The operation stream on ``problem``."""
        base = self.cycle(problem)
        if self.seed is None:
            return itertools.cycle(base)
        return _shuffled(base, np.random.default_rng(self.seed))

    def period(self, problem):
        """The cycle's length on ``problem``."""
        return len(self.cycle(problem))


def _shuffled(base, rng):
    """``base`` repeated, in a fresh ``rng`` permutation each time."""
    while base:
        for i in rng.permutation(len(base)):
            yield base[i]


def _block_cycle(name, blocks, evals_per_improve):
    """A schedule whose cycle splits each space into ``min(blocks, size)``
    blocks and, minimizer first, improves then evaluates k times on each in
    turn.  ``blocks`` None: one block, the whole space, labelled ``all``."""
    k = evals_per_improve

    def cycle(problem):
        ops = []
        for improve, evaluate, space in ((_MIN_IMPROVE, _MIN_EVAL, problem.space1),
                                         (_MAX_IMPROVE, _MAX_EVAL, problem.space2)):
            parts = np.array_split(np.arange(space.size), min(blocks or 1, space.size))
            for i, part in enumerate(parts):
                label = f"b{i}" if blocks else "all"
                ops += [Operation(improve, part, label)] + [Operation(evaluate, part, label)] * k
        return ops

    return Schedule(name, cycle)


def round_robin(evals_per_improve=DEFAULT_EVALS):
    """Improve then evaluate k times, minimizer first, over the full spaces."""
    return _block_cycle(f"round_robin:k={evals_per_improve}", None, evals_per_improve)


def random_fair(seed, evals_per_improve=DEFAULT_EVALS):
    """Round robin's cycle, reshuffled each repetition."""
    return replace(round_robin(evals_per_improve), name=f"random:seed={seed}", seed=seed)


def partitioned(blocks=DEFAULT_BLOCKS, evals_per_improve=DEFAULT_EVALS):
    """Block-cyclic sweep: each space is split into blocks worked in turn."""
    return _block_cycle(f"partitioned:p={blocks}", blocks, evals_per_improve)


def delayed(inner, staleness):
    """Ask the executor to read tables up to ``staleness`` updates stale."""
    return replace(inner, name=f"delayed:B={staleness},inner={inner.name}",
                   staleness=int(staleness))


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class TraceRow(NamedTuple):
    step: int
    kind: str
    subset: str
    residual1: float
    residual2: float


def _probe_diff(a, b):
    """Change gauge for trace rows: the tables' ``diff_bound``."""
    return a.diff_bound(b)


def _converged(problem, state, tol):
    """The period-end check of :func:`run`: the state with J1 replaced by
    :func:`~minimaxpi.core.certify`'s estimate if its bound is at most
    ``tol``, else None; :func:`~minimaxpi.core.check_floor` applies, with
    the floor J1's certificate at r = 0.  J2 and V2 are not gated: J2 on a
    game is an evaluated section that never matches V2 pointwise."""
    estimate, bound, r = certify(problem, state.j1)
    floor = sweep_certificate(problem, state.j1, state.j1)[3]
    check_floor("async", "a stop check's sweep", bound, tol, r, floor)
    return replace(state, j1=estimate) if bound <= tol else None


def _own_certificate(problem, state):
    """The certificate of G1 (:func:`~minimaxpi.core.sweep_certificate`)
    read off a state whose V1 is T1(T2 G1) on every state, or None.  Blocks
    improved from one exact guard2 compose to one full-space improvement
    (see :func:`run`), so V1 is then certify's sweep of G1 bit for bit."""
    prov = state.prov1
    if prov is None or not prov.cover.all():
        return None
    return sweep_certificate(problem, prov.source, state.v1)


def _eval_inputs(side, op, read, state):
    """What an evaluation of ``side`` on ``op``'s subset reads, and the
    side's J in ``state``."""
    if side == 1:
        return op.subset, read.v2, read.j2, state.policies.mu, state.j1
    return op.subset, read.v1, read.j1, state.policies.nu, state.j2


def _delays(rng, staleness, depth):
    """Read delays, uniform on 0..staleness and cut to ``depth``, drawn
    ``_DELAY_CHUNK`` at a time: under PCG64, the stream of one draw per call."""
    while True:
        yield from np.minimum(rng.integers(0, staleness + 1, size=_DELAY_CHUNK), depth).tolist()


def run(problem, schedule, tol=1e-8, max_steps=10**6, seed=0, trace_out=None):
    """The executor.

    Applies the schedule's operations until an estimate of J1 is certified
    within ``tol`` (below).  With a positive ``schedule.staleness``, each
    step reads table snapshots up to that many updates old (delay drawn
    uniformly per step from a seeded generator), emulating communication
    delays.  The delays are drawn ``_DELAY_CHUNK`` per generator call;
    under PCG64, numpy's default, that is the same stream as one
    ``rng.integers`` call per step, so a run does not depend on the chunk
    size.  Returns (certified state, trace): the state of the stopping
    step with the estimate as J1, and ``trace_out`` with one
    :class:`TraceRow` per step appended, the stopping step's included, or
    [] (and no change probe computed) without it.  Raises
    :class:`MaxStepsExceeded` when the budget runs out; every check below
    follows :func:`~minimaxpi.core.check_floor`.

    The run certifies itself from its own sweeps.  An improvement that
    leaves V1 = T1(T2 G1) on every state (improved, block by block, from
    guards that are exactly T2(G1); see :class:`AlgoState`) has done the
    sweep of ``certify(G1)``: the run reads that certificate off (G1, V1)
    with the same arithmetic, bit for bit, and stops if its bound is at
    most ``tol``.  A period end with no check owed leaves it to guard1's
    certificate if guard2 is then exactly T2(guard1), which the run's next
    improvement from that guard2 completes.  Every other period end calls
    :func:`_converged` on its own state, so an unpaid debt is checked at the
    next period end.  Under ``round_robin`` each debt is paid one step
    later, and ``certify`` is never called.

    An evaluation is skipped when its subset array, read tables, policy and
    its side's J are the objects its side's last applied evaluation had, J
    as written: tables and policies are immutable and kernels deterministic,
    so under any schedule it would rewrite what J holds.  If the problem
    declares ``evals_repeat_improvements``, an improvement records the same
    objects, as the evaluation at its picks would rewrite its values.
    Skipped steps still count in ``t``, take their delay draw and ring slot,
    and trace 0.0 unprobed.

    A step costs what it changes.  It writes its subset into copies of the
    tables it updates and checks only those entries for finiteness.  It
    reads the guard its read state holds (:class:`AlgoState`), and the state
    it makes keeps every guard whose two tables it shares.  So a guard is
    built about once per change of the two tables it combines (a delayed
    read may land on an older state first), not once per step.

    A block-parallel sweep needs no executor of its own.  An operation
    writes its side's entries on its subset and reads, of its own side,
    only its policy there; the rest comes from the opposite side.  So
    same-kind operations on disjoint blocks, applied against one snapshot
    or in turn, give exactly one full-space operation: ``round_robin``.
    """
    state = initial_state(problem)
    staleness = schedule.staleness
    # padded with the start state, which any delay of at least the steps
    # taken reads: the ring stops at the budget, and delays are cut to it
    depth = min(staleness, max_steps)
    delays = _delays(np.random.default_rng(seed), staleness, depth) if staleness > 0 else None
    ring = deque([state] * (depth + 1), maxlen=depth + 1)
    trace = [] if trace_out is None else trace_out
    check_every = schedule.period(problem)
    step, memo = 0, {1: (None,), 2: (None,)}   # (None,) matches no op
    repeats = problem.evals_repeat_improvements
    owed = None   # the guard1 a period end left its check to
    for step, op in enumerate(itertools.islice(schedule.ops(problem), max_steps), 1):
        read = state if delays is None else ring[-1 - next(delays)]
        kind, r1, r2, done = op.kind, 0.0, 0.0, None
        side = 1 if kind is _MIN_EVAL or kind is _MIN_IMPROVE else 2
        evaluates = kind is _MIN_EVAL or kind is _MAX_EVAL
        if not (evaluates
                and all(map(operator.is_, memo[side], _eval_inputs(side, op, read, state)))):
            new = _apply(problem, state, op, read)
            if trace_out is not None:
                r1 = _probe_diff(state.j1, new.j1) if side == 1 else 0.0
                r2 = _probe_diff(state.j2, new.j2) if side == 2 else 0.0
            state = new
            if evaluates or repeats:
                memo[side] = _eval_inputs(side, op, read, state)
            if kind is _MIN_IMPROVE and (own := _own_certificate(problem, state)):
                if _same(state.prov1.source, owed):
                    owed = None
                check_floor("async", "a stop check's sweep", own[1], tol, *own[2:])
                if own[1] <= tol:
                    done = replace(state, j1=own[0])
        if trace_out is not None:
            # ``_value_`` is ``kind.value`` without the property's ~0.15 us
            trace.append(TraceRow(step, kind._value_, op.label, r1, r2))
        ring.append(state)
        if done is None and step % check_every == 0:
            if owed is None and _same(state.guard2_source, state.guard1):
                owed = state.guard1
            else:
                owed, done = None, _converged(problem, state, tol)
        if done:
            return replace(done, t=step), trace
    state = replace(state, t=step)
    if done := _converged(problem, state, tol):
        return done, trace
    raise MaxStepsExceeded(
        f"no convergence within {max_steps} steps (unfair schedule, "
        "non-contractive problem, or too-tight tol)", state=state, trace=trace)
