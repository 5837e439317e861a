"""Distributed optimistic policy iteration with interleavable operations.

The solver state is two table pairs plus a policy pair, which the
executor keeps in private arrays and writes in place.  Each step applies
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
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import PolicyPair, ValueTable, certify, check_floor, sweep_certificate
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
    """One scheduled step: an operation kind aimed at a state subset,
    distinct nonnegative state indices."""

    kind: Kind
    subset: np.ndarray
    label: str = "all"

    def __post_init__(self):
        sub = np.atleast_1d(np.asarray(self.subset, dtype=int))
        if sub.size == 0:
            raise ValueError("operation subsets must be nonempty")
        # an increasing subset, as the built-in cycles make, needs no sort
        distinct = (np.diff(sub) > 0).all() or np.unique(sub).size == sub.size
        if sub.min() < 0 or not distinct:
            raise ValueError("operation subsets must be distinct nonnegative state indices")
        object.__setattr__(self, "subset", sub)


@dataclass(frozen=True)
class AlgoState:
    """The iterate the four operations advance, as :func:`run` hands it
    out at a stop check and at its end: tables and policies of its own,
    and the step count ``t``."""

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


def _same(a, b):
    """Whether two minimizer tables (or None) hold the same values, so that
    a kernel reading either gives the same bits."""
    return a is b or (a is not None and b is not None and np.array_equal(a.values, b.values))


def _check_finite(entries):
    """Refuse a kernel's output unless every entry is finite."""
    finite = np.isfinite(entries)
    if np.count_nonzero(finite) < finite.size:
        raise ValueError("table entries must be finite")


def _flag(flags, count, subset, value):
    """Set ``flags``, of which ``count`` are set, to ``value`` (a bool, or
    one per state) on ``subset``; the new count."""
    if value is True or value is False:
        if count == (len(flags) if value else 0):   # nothing to change
            return count
        before = np.count_nonzero(flags[subset])
        flags[subset] = value
        return count + len(subset) * value - before
    before = np.count_nonzero(flags[subset])
    flags[subset] = value
    return count + np.count_nonzero(value) - before


class _Read(NamedTuple):
    """What a step reads of the opposite side as an earlier step left it:
    the :class:`_Side` attributes of the same names, the guard a copy that
    nothing writes."""

    guard: object
    source: object
    version: int
    writes: int


class _Side:
    """One player's part of :func:`run`'s private iterate.

    ``j``, ``v`` and ``g`` are tables only the executor holds: J, V and the
    guard ``pick(V, J)`` (on column bundles, both bundles side by side),
    each step rewriting its subset in place.  ``tight`` marks the states
    whose J leaves the guard at V (J1 >= V1, or J2 <= V2), and ``cover``
    those whose V derives from ``origin``, a copy of a minimizer guard G1
    (V2 = T2(G1), or V1 = T1(T2 G1)); ``n_tight`` and ``n_cover`` count
    them, and ``origin_version`` is the opposite side's ``version`` the
    copy was taken at.

    What the opposite side reads: ``guard``, which is V where J is tight on
    every state (bit for bit the ``np.minimum`` or ``np.maximum`` on plain
    tables; on column bundles V2's columns alone, of which J2's are
    copies), else ``g``; ``source``, the origin where in addition V derives
    from it on every state, else None; ``version``, which counts the writes
    that may have changed ``guard``; and ``writes``, which counts them all.

    A side built ``frozen`` (under delayed reads) also keeps ``read``, a
    :class:`_Read` of those four as its last write left them, whose guard
    is a copy: a write copies the guard when ``version`` moved, else reuses
    the last copy, as the guard was and is V, which the write left alone.
    Otherwise ``read`` is None and nothing is copied.
    """

    def __init__(self, j, v, policy, pick, frozen):
        self.j, self.v, self.policy, self.pick = j.copy(), v.copy(), np.array(policy), pick
        self.g = self.v.guard(self.j, pick)
        self.size = j.space.size
        self.tight, self.cover = np.zeros(self.size, bool), np.zeros(self.size, bool)
        self.n_tight = self.n_cover = self.writes = self.version = 0
        self.origin = self.origin_version = None
        self.memo = (None,)   # (subset, read writes, own writes) run may skip at
        self.read = None
        self._handed_out()
        if frozen:
            self.read = _Read(self.guard.copy(), self.source, 0, 0)

    def _handed_out(self):
        """Set ``guard`` and ``source`` from the flag counts, and ``read``
        if the side keeps one."""
        whole = self.n_tight == self.size
        self.guard = self.v if whole else self.g
        self.source = self.origin if whole and self.n_cover == self.size else None
        if (read := self.read) is not None:
            guard = read.guard if read.version == self.version else self.guard.copy()
            self.read = _Read(guard, self.source, self.version, self.writes)

    def evaluated(self, subset, entries, tight):
        """Write an evaluation's ``entries`` to J on ``subset``, tight there
        as ``tight`` says (None: where J1 >= V1)."""
        _check_finite(entries)
        whole, v_rows = self.guard is self.v, self.v._rows(subset)
        if tight is None:
            tight = entries >= v_rows
        self.j._write(subset, entries)
        self.g._guard_rows(subset, v_rows, entries, self.pick)
        self.n_tight = _flag(self.tight, self.n_tight, subset, tight)
        self.writes += 1
        if not (whole and self.n_tight == self.size):   # else V was and is read
            self.version += 1
        self._handed_out()

    def improved(self, subset, entries, picks, origin, same):
        """Write an improvement's ``entries`` to J and V and its ``picks``
        to the policy on ``subset``, V there derived from ``origin`` (None:
        from no one table); ``same``: ``origin`` holds the values of the
        side's."""
        _check_finite(entries)
        self.j._write(subset, entries)
        self.v._write(subset, entries)
        self.g._guard_rows(subset, entries, entries, self.pick)
        self.policy[subset] = picks
        self.n_tight = _flag(self.tight, self.n_tight, subset, True)
        if not same:
            self.cover[:] = False
            self.n_cover, self.origin = 0, origin
        self.n_cover = _flag(self.cover, self.n_cover, subset, origin is not None)
        self.writes += 1
        self.version += 1
        self._handed_out()


class _Iterate:
    """:func:`run`'s private iterate: the minimizer's and the maximizer's
    :class:`_Side`, ``frozen`` under delayed reads."""

    def __init__(self, state, frozen):
        self.one = _Side(state.j1, state.v1, state.policies.mu, np.minimum, frozen)
        self.two = _Side(state.j2, state.v2, state.policies.nu, np.maximum, frozen)

    def state(self, t):
        """An :class:`AlgoState` of copies of the iterate, at step ``t``."""
        one, two = self.one, self.two
        return AlgoState(one.j.copy(), one.v.copy(), two.j.copy(), two.v.copy(),
                         PolicyPair(one.policy.copy(), two.policy.copy()), t)


def _apply(problem, iterate, op, read):
    """Advance ``iterate`` one step in place, reading the opposite side as
    ``read``: that :class:`_Side`, or the :class:`_Read` an earlier step
    left it at.

    An improvement makes J = V on its subset; V2 derives from the guard1
    read, and V1 from the table ``read.source`` names.  An evaluation's J1
    is tight where it is at least V1; its J2 where V2 derives from the
    guard1 read, which makes J2 one of the greedy choices V2 maximises
    over, computed by the same kernel arithmetic."""
    subset, kind, one, two = op.subset, op.kind, iterate.one, iterate.two
    if kind is _MIN_EVAL:
        one.evaluated(subset, problem.min_eval_values(subset, one.policy, read.guard), None)
    elif kind is _MIN_IMPROVE:
        source = read.source
        entries, picks = problem.min_improve(subset, read.guard)
        one.improved(subset, entries, picks, source,
                     source is not None and _same(one.origin, source))
    else:
        same = two.origin_version == read.version or _same(two.origin, read.guard)
        if kind is _MAX_EVAL:
            two.evaluated(subset, problem.max_eval_entries(subset, two.policy, read.guard),
                          two.cover[subset] & same)
        else:
            entries, picks = problem.max_improve(subset, read.guard, one.policy)
            two.improved(subset, entries, picks, two.origin if same else read.guard.copy(),
                         same)
        if same or kind is _MAX_IMPROVE:   # the origin holds the guard's values
            two.origin_version = read.version


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


def _probe_diff(table, subset, rows):
    """Change gauge for trace rows: the table's ``diff_bound`` against
    itself before the step, which held ``rows`` on the step's ``subset``."""
    return table._diff_rows(subset, rows)


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


def _own_certificate(problem, iterate):
    """The certificate of G1 (:func:`~minimaxpi.core.sweep_certificate`)
    read off an iterate whose V1 is T1(T2 G1) on every state, or None.
    Blocks improved from one exact guard2 compose to one full-space
    improvement (see :func:`run`), so V1 is then certify's sweep of G1 bit
    for bit."""
    one = iterate.one
    if one.n_cover < one.size:
        return None
    return sweep_certificate(problem, one.origin, one.v.copy())


def _delays(rng, staleness, depth):
    """Read delays, uniform on 0..staleness and cut to ``depth``, drawn
    ``_DELAY_CHUNK`` at a time: under PCG64, the stream of one draw per call."""
    while True:
        yield from np.minimum(rng.integers(0, staleness + 1, size=_DELAY_CHUNK), depth).tolist()


def run(problem, schedule, tol=1e-8, max_steps=10**6, seed=0, trace_out=None):
    """The executor.

    Applies the schedule's operations until an estimate of J1 is certified
    within ``tol`` (below).  With a positive ``schedule.staleness``, each
    step reads the opposite side as it stood up to that many steps before
    (delay drawn uniformly per step from a seeded generator), emulating
    communication delays.  The delays are drawn ``_DELAY_CHUNK`` per
    generator call; under PCG64, numpy's default, that is the same stream
    as one ``rng.integers`` call per step, so a run does not depend on the
    chunk size.  Returns (certified state, trace): the :class:`AlgoState`
    of the stopping step with the estimate as J1, and ``trace_out`` with
    one :class:`TraceRow` per step appended, the stopping step's included,
    or [] (and no change probe computed) without it.  Raises
    :class:`MaxStepsExceeded` when the budget runs out; every check below
    follows :func:`~minimaxpi.core.check_floor`.

    The run certifies itself from its own sweeps.  An improvement that
    leaves V1 = T1(T2 G1) on every state (improved, block by block, from
    guards that are exactly T2(G1); see :class:`_Side`) has done the sweep
    of ``certify(G1)``: the run reads that certificate off (G1, V1) with
    the same arithmetic, bit for bit, and stops if its bound is at most
    ``tol``.  A period end with no check owed leaves it to guard1's
    certificate if guard2 is then exactly T2(guard1), which the run's next
    improvement from that guard2 completes.  Every other period end calls
    :func:`_converged` on its own state, so an unpaid debt is checked at the
    next period end.  Under ``round_robin`` each debt is paid one step
    later, and ``certify`` is never called.

    An evaluation is skipped when its subset array is the one its side's
    last applied evaluation had and neither side was written since, the
    opposite side as read: kernels are deterministic, so under any
    schedule it would rewrite what J holds.  If the problem declares
    ``evals_repeat_improvements``, an improvement counts as such an
    evaluation, as the evaluation at its picks would rewrite its values.
    Skipped steps still count in ``t``, take their delay draw and ring
    slot, and trace 0.0 unprobed.

    A step costs its kernel.  The iterate is private (:class:`_Iterate`):
    each side's J, V and guard are arrays the step writes on its subset
    in place, after one finiteness check of the kernel's output, together
    with the side's policy and its tight and cover flags, whose counts say
    when a guard is V itself and when V derives from one table.  Without
    delays a step reads the live side and copies nothing.  Under delays a
    sent value is a copy: a ring keeps each step's frozen reads of both
    sides (see :class:`_Side`), a delayed read looks one up, and the
    ring's memory grows with min(B, steps taken) times a side's size.  An
    :class:`AlgoState` of copies is built only at period ends and at the
    end of the run.

    A block-parallel sweep needs no executor of its own.  An operation
    writes its side's entries on its subset and reads, of its own side,
    only its policy there; the rest comes from the opposite side.  So
    same-kind operations on disjoint blocks, applied against one snapshot
    or in turn, give exactly one full-space operation: ``round_robin``.
    """
    tracing, staleness = trace_out is not None, schedule.staleness
    iterate = _Iterate(initial_state(problem), staleness > 0)
    one, two = iterate.one, iterate.two
    # per kind, keyed by its value: the side it writes, the side it reads
    # and that side's slot in a ring entry, and whether it evaluates.  An
    # Enum member hashes in Python: keyed by the member, control.async ran
    # 7-9% slower, and building rows with TraceRow(...) rather than
    # ``tuple.__new__`` 4-7% slower (BENCH_inplace.json, loop_shortcuts)
    roles = {_MIN_EVAL._value_: (one, two, 1, True), _MIN_IMPROVE._value_: (one, two, 1, False),
             _MAX_EVAL._value_: (two, one, 0, True), _MAX_IMPROVE._value_: (two, one, 0, False)}
    delays = None
    if staleness > 0:
        # delays are cut to the budget: any delay of at least the steps
        # taken reads the start
        depth = min(staleness, max_steps)
        delays = _delays(np.random.default_rng(seed), staleness, depth)
        # each step's frozen reads of both sides, padded with the start's
        ring = deque([(one.read, two.read)] * (depth + 1), maxlen=depth + 1)
    trace = trace_out if tracing else []
    row = tuple.__new__
    check_every = schedule.period(problem)
    step, repeats = 0, problem.evals_repeat_improvements
    owed = None   # the guard1 a period end left its check to
    for step, op in enumerate(itertools.islice(schedule.ops(problem), max_steps), 1):
        kind = op.kind
        name = kind._value_
        own, other, at, evaluates = roles[name]
        read, done = other, None
        if delays is not None:
            read = ring[-1 - next(delays)][at]
        last = own.memo
        if evaluates and last[0] is op.subset and last[1] == read.writes \
                and last[2] == own.writes:
            if tracing:
                trace.append(row(TraceRow, (step, name, op.label, 0.0, 0.0)))
        else:
            if tracing:
                rows = own.j._rows(op.subset)
            _apply(problem, iterate, op, read)
            if evaluates or repeats:
                own.memo = (op.subset, read.writes, own.writes)
            if tracing:
                probe = _probe_diff(own.j, op.subset, rows)
                trace.append(row(TraceRow, (step, name, op.label,
                                            *((probe, 0.0) if own is one else (0.0, probe)))))
            if kind is _MIN_IMPROVE and (cert := _own_certificate(problem, iterate)):
                if _same(one.origin, owed):
                    owed = None
                check_floor("async", "a stop check's sweep", cert[1], tol, *cert[2:])
                if cert[1] <= tol:
                    done = replace(iterate.state(step), j1=cert[0])
        if delays is not None:
            ring.append((one.read, two.read))
        if done is None and step % check_every == 0:
            if owed is None and _same(two.source, one.guard):
                owed = one.guard.copy()
            else:
                owed, done = None, _converged(problem, iterate.state(step), tol)
        if done:
            return done, trace
    state = iterate.state(step)
    if done := _converged(problem, state, tol):
        return done, trace
    raise MaxStepsExceeded(
        f"no convergence within {max_steps} steps (unfair schedule, "
        "non-contractive problem, or too-tight tol)", state=state, trace=trace)
