"""Finite weighted-sup-norm spaces, value tables, and alternating Bellman operators.

The library works with problems split into a minimizer half-stage and a
maximizer half-stage.  Every problem kind answers one protocol,
:class:`HalfStageProblem`: four batched half-stage kernels (evaluate and
improve, for either player, over a subset of that player's states) and a
maximizer-table constructor.  The solvers use nothing else, and the
full-space operators are written once over it.  Its implementations:

* explicit-action problems score a subset of one side's states at every
  action (a padded array) or at one chosen action per state through one
  primitive, :meth:`SeparatedProblem.scores`.  The closure adapter,
  :class:`SeparatedProblem` itself, loops over user-written evaluators
  ``eval1(x1, u, J2)`` and ``eval2(x2, v, J1)``; the tabular form,
  :class:`TabularProblem`, holds padded (state, action, outcome) arrays
  per side (:class:`HalfStage`), as the builders in
  :mod:`minimaxpi.models` produce, and scores a subset with numpy;
* the reformulated Markov game, :class:`minimaxpi.models.MarkovSeparatedProblem`,
  builds a subset's stage matrices at once and keeps its maximizer tables
  as column bundles.

Everything here is finite and index-addressed, and all distances are
weighted sup-norms, which is the norm in which the contraction guarantees
hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MaxItersExceeded, NonContractive

_MASS_SLACK = 1e-12   # outcome mass this close to 1 counts as exact in a shift factor
_EVAL_SWEEPS = 10**6   # sweeps allowed to each evaluation of a fixed pair or half-pair

# padding of the score layout past a state's actions: never a minimizer's
# or a maximizer's pick
SCORE_PAD = {1: np.inf, 2: -np.inf}


@dataclass(frozen=True)
class WeightedSpace:
    """A finite state space with finite, strictly positive norm weights."""

    size: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "weights", w)
        if self.size < 1:
            raise ValueError("space must contain at least one state")
        if w.shape != (self.size,):
            raise ValueError("need one weight per state")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("norm weights must be finite and strictly positive")

    @classmethod
    def unit(cls, size):
        return cls(size, np.ones(size))


@dataclass(frozen=True)
class ValueTable:
    """A real value per state, normed against its space's weights."""

    space: WeightedSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.size,):
            raise ValueError("need one value per state")
        if not np.isfinite(v).all():
            raise ValueError("table entries must be finite")

    @classmethod
    def _trusted(cls, space, values):
        """A table of a float array of the right shape known to be finite,
        built without the checks of ``__post_init__``."""
        table = object.__new__(cls)
        object.__setattr__(table, "space", space)
        object.__setattr__(table, "values", values)
        return table

    @classmethod
    def zeros(cls, space):
        return cls(space, np.zeros(space.size))

    def norm(self):
        return float(np.max(np.abs(self.values) / self.space.weights))

    def diff_norm(self, other):
        return float((np.abs(self.values - other.values) / self.space.weights).max())

    # richer table types distinguish the exact norm from a cheap certified
    # upper bound, used in stopping rules and trace rows; for plain tables
    # the two coincide
    diff_bound = diff_norm

    def copy(self):
        return ValueTable._trusted(self.space, self.values.copy())

    def guard(self, other, pick):
        """The pessimism guard ``pick(V, J)`` of V = self and J = other,
        ``pick`` being ``np.minimum`` or ``np.maximum``; finite as both are."""
        return ValueTable._trusted(self.space, pick(self.values, other.values))

    # the executor's iterate: tables it alone holds, written in place on a
    # step's subset once it has checked the kernel's output

    def _rows(self, subset):
        return self.values[subset]

    def _write(self, subset, rows):
        self.values[subset] = rows

    def _guard_rows(self, subset, v_rows, j_rows, pick):
        """This guard (:meth:`guard`) rewritten on ``subset`` from V's and
        J's rows, which are one array after an improvement."""
        self.values[subset] = j_rows if v_rows is j_rows else pick(v_rows, j_rows)

    def _diff_rows(self, subset, rows):
        """:meth:`diff_norm` against this table with ``rows`` on ``subset``."""
        return float((np.abs(rows - self.values[subset]) / self.space.weights[subset]).max())


@dataclass(frozen=True)
class PolicyPair:
    """A minimizer policy and a maximizer policy.

    For explicit problems both entries index into the per-state action
    lists.  Backends with richer controls (mixed strategies) store their
    own representation in ``mu``.
    """

    mu: np.ndarray
    nu: np.ndarray


class HalfStageProblem:
    """The problem protocol of the solvers.

    A problem supplies ``space1``, ``space2``, the asserted modulus
    ``alpha``, and four kernels over a subset of one side's states, each
    reading the opposite side's table: ``min_eval_values(subset, mu, m2)``
    and ``max_eval_entries(subset, nu, m1)`` at the side's policy, and
    ``min_improve(subset, m2)`` and ``max_improve(subset, m1, mu=None)``
    returning greedy values/entries and picks.  It also supplies
    ``table2(entries)`` (a full maximizer table from one entry per state),
    ``zero2`` and ``first_policies``, and may override ``shift``,
    ``evals_repeat_improvements`` and ``joint_policy_fixed_point``.  The
    solvers call nothing else; the rest is written here once over it.

    ``evals_repeat_improvements`` is a kernel contract, not an option: True
    says that evaluating a subset at the picks an improvement returned,
    against the same opposite table, returns the improvement's values (or
    entries) bit for bit.  The executor then skips that evaluation.
    """

    evals_repeat_improvements = False

    def shift(self):
        """g with ``T1 T2 (J1 + c) = T1 T2 J1 + g*c`` for constants c, or None.

        g holds at every fixed pair too, ``T1^mu T2^nu``: it rests on every
        live action's outcome mass being 1, whichever actions are picked."""
        return None

    def zero1(self):
        return ValueTable.zeros(self.space1)

    def t1_policy(self, mu, j2):
        subset = np.arange(self.space1.size)
        return ValueTable(self.space1, self.min_eval_values(subset, mu, j2))

    def t2_policy(self, nu, j1):
        subset = np.arange(self.space2.size)
        return self.table2(self.max_eval_entries(subset, nu, j1))

    def t1_greedy(self, j2):
        subset = np.arange(self.space1.size)
        values, mu = self.min_improve(subset, j2)
        return ValueTable(self.space1, values), mu

    def t2_greedy(self, j1, mu=None):
        subset = np.arange(self.space2.size)
        entries, nu = self.max_improve(subset, j1, mu)
        return self.table2(entries), nu

    def joint_policy_fixed_point(self, policies, tol=1e-10, j1=None):
        """Tables ``(j1, T2^nu j1)`` of a fixed policy pair, j1 by :func:`policy_pair_value`
        from j1 (zero by default), certified within ``tol`` or ended at the
        rounding floor if that exceeds tol, as Hoffman-Karp's evaluations end."""
        j1 = policy_pair_value(self, policies, tol, j1_0=j1, floor_ends=True)
        return j1, self.t2_policy(policies.nu, j1)


@dataclass(frozen=True)
class SeparatedProblem(HalfStageProblem):
    """A two-player fixed-point problem over explicit finite spaces.

    This class is the closure adapter: ``eval1(x1, u, j2_values)`` and
    ``eval2(x2, v, j1_values)`` price one (state, action) against the
    opposite side's table as a plain array, and :meth:`scores` calls them
    once per (state, action).  :class:`TabularProblem` replaces
    :meth:`scores` by padded arrays; the half-stage kernels below serve
    both.  ``alpha`` is the asserted contraction modulus of the joint
    fixed-policy operator; it is not checked at construction.

    Evaluations repeat improvements: both read :meth:`scores` entries, and
    an entry is the same computation whether its action is scored alone or
    with the state's others (one evaluator call here, elementwise array
    arithmetic in :class:`TabularProblem`).
    """

    evals_repeat_improvements = True

    space1: WeightedSpace
    space2: WeightedSpace
    actions1: tuple
    actions2: tuple
    eval1: callable
    eval2: callable
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "actions1", tuple(map(tuple, self.actions1)))
        object.__setattr__(self, "actions2", tuple(map(tuple, self.actions2)))
        if len(self.actions1) != self.space1.size or len(self.actions2) != self.space2.size:
            raise ValueError("need one action list per state")
        if not all(map(len, self.actions1 + self.actions2)):
            raise ValueError("action lists must be nonempty")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("asserted modulus must lie in [0, 1)")

    # -- table construction ------------------------------------------------

    def table2(self, entries):
        return ValueTable(self.space2, entries)

    def zero2(self):
        return ValueTable.zeros(self.space2)

    def first_policies(self):
        return PolicyPair(
            mu=np.zeros(self.space1.size, dtype=int),
            nu=np.zeros(self.space2.size, dtype=int),
        )

    # -- the batched score primitive ------------------------------------------

    def scores(self, side, subset, opposite, picks=None):
        """Scores of ``side``'s states in ``subset`` against the opposite
        table's values.

        Without ``picks``: a (len(subset), widest action list) array padded
        past each state's actions with ``SCORE_PAD[side]``.  With ``picks``
        (one action index per subset state): the scores at those actions.
        """
        evaluate = self.eval1 if side == 1 else self.eval2
        actions = self.actions1 if side == 1 else self.actions2
        if picks is not None:
            return np.array([evaluate(int(x), actions[x][a], opposite)
                             for x, a in zip(subset, picks)], dtype=float)
        out = np.full((len(subset), max(map(len, actions))), SCORE_PAD[side])
        for i, x in enumerate(subset):
            out[i, :len(actions[x])] = [evaluate(int(x), a, opposite) for a in actions[x]]
        return out

    # -- half-stage operators ----------------------------------------------

    def min_eval_values(self, subset, mu, m2):
        return self.scores(1, subset, m2.values, np.asarray(mu)[subset])

    def min_improve(self, subset, m2):
        return _first_extremum(self.scores(1, subset, m2.values), np.argmin)

    def max_eval_entries(self, subset, nu, m1):
        return self.scores(2, subset, m1.values, np.asarray(nu)[subset])

    def max_improve(self, subset, m1, mu=None):
        return _first_extremum(self.scores(2, subset, m1.values), np.argmax)


def _first_extremum(scores, arg):
    """Row-wise extremum of a score block and its first index."""
    picks = arg(scores, axis=1)
    return scores[np.arange(picks.size), picks], picks


def _starts(counts):
    """Offset of each ragged run, repeated over the run's entries."""
    return np.repeat(np.cumsum(counts) - counts, counts)


@dataclass(frozen=True)
class HalfStage:
    """One side's transition arrays, indexed (state, action, outcome).

    The score of action a at state x against the opposite table J is
    ``sum_k prob*(cost + scale*J[next])`` over the outcome axis.  Missing
    outcomes have probability 0.  A missing action has one sure outcome
    at an infinite cost (the side's ``SCORE_PAD``), so it is never picked.
    """

    prob: np.ndarray
    cost: np.ndarray
    next: np.ndarray
    scale: float

    @classmethod
    def from_ragged(cls, actions, outcomes, prob, cost, nxt, scale, pad):
        """Pad flat outcome lists.

        ``actions[x]`` is the action count of state x; ``outcomes[i]`` the
        outcome count of the i-th action over all states in order; and
        ``prob``/``cost``/``nxt`` list those outcomes in the same order.
        """
        actions = np.asarray(actions, dtype=int)
        outcomes = np.asarray(outcomes, dtype=int)
        state = np.repeat(np.arange(actions.size), actions)
        slot = np.arange(state.size) - _starts(actions)
        owner = np.repeat(np.arange(outcomes.size), outcomes)
        at = (state[owner], slot[owner], np.arange(owner.size) - _starts(outcomes))
        shape = (actions.size, int(actions.max()), int(outcomes.max()))
        p, g, n = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=int)
        missing = np.ones(shape[:2], dtype=bool)
        missing[state, slot] = False
        p[missing, 0], g[missing, 0] = 1.0, pad
        p[at], g[at], n[at] = prob, cost, nxt
        return cls(p, g, n, float(scale))

    def live(self):
        """Mask of the real actions."""
        return np.isfinite(self.cost[..., 0])

    def scores(self, subset, opposite, picks=None):
        if picks is None:
            p, g, n = self.prob[subset], self.cost[subset], self.next[subset]
        else:   # one gather per array over the (state, action) rows
            _, width, depth = self.prob.shape
            rows = np.asarray(subset) * width + picks
            p, g, n = (a.reshape(-1, depth)[rows] for a in (self.prob, self.cost, self.next))
        terms = p * (g + self.scale * opposite[n])
        total = terms[..., 0]
        for k in range(1, terms.shape[-1]):   # in outcome order
            total += terms[..., k]
        return total

    def shift(self):
        """``scale`` if every real action's outcome mass is 1 (to 1e-12), else None."""
        mass = self.prob.sum(axis=-1)[self.live()]
        return self.scale if np.all(np.abs(mass - 1.0) <= _MASS_SLACK) else None

    def reach(self, weights, opposite_weights):
        """Largest weighted outcome mass of a real action,
        ``sum_k prob*xi'[next] / xi[x]``; times ``scale`` it bounds this
        side's contraction."""
        mass = (self.prob * opposite_weights[self.next]).sum(axis=-1)
        return float(np.max(np.where(self.live(), mass / weights[:, None], 0.0)))


@dataclass(frozen=True)
class TabularProblem(SeparatedProblem):
    """A separated problem held as one :class:`HalfStage` per side.

    Actions are numbered 0..n-1 per state, and :meth:`scores` reads the
    stages alone: the closure adapter's ``actions1/2`` and ``eval1/2`` are
    None here.  ``alpha`` is derived, not asserted: the larger
    ``scale * reach`` of the two stages.  At 1 or above, construction
    raises :class:`NonContractive`.
    """

    actions1: tuple = field(init=False, default=None, repr=False, compare=False)
    actions2: tuple = field(init=False, default=None, repr=False, compare=False)
    eval1: callable = field(init=False, default=None, repr=False, compare=False)
    eval2: callable = field(init=False, default=None, repr=False, compare=False)
    alpha: float = field(init=False)
    stage1: HalfStage
    stage2: HalfStage
    _shift: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi1, xi2 = self.space1.weights, self.space2.weights
        if len(self.stage1.prob) != self.space1.size or len(self.stage2.prob) != self.space2.size:
            raise ValueError("need one action list per state")
        if not (self.stage1.live().any(axis=1).all() and self.stage2.live().any(axis=1).all()):
            raise ValueError("action lists must be nonempty")
        modulus = max(self.stage1.scale * self.stage1.reach(xi1, xi2),
                      self.stage2.scale * self.stage2.reach(xi2, xi1))
        if modulus >= 1.0:
            raise NonContractive(f"weighted half-stages give modulus {modulus:.6f} >= 1")
        object.__setattr__(self, "alpha", modulus)
        g1, g2 = self.stage1.shift(), self.stage2.shift()
        object.__setattr__(self, "_shift", None if g1 is None or g2 is None else g1 * g2)

    def scores(self, side, subset, opposite, picks=None):
        return (self.stage1 if side == 1 else self.stage2).scores(subset, opposite, picks)

    def shift(self):
        return self._shift


@dataclass(frozen=True)
class VIResult:
    j1: object
    iterations: int
    residuals: tuple
    error_bound: float


def span_bound(g, step, weights, sup):
    """MacQueen's midpoint offset and weighted bound, or ``(None, sup)``
    without g or when ``sup`` is not larger.

    For a monotone T with ``T(J + c) = TJ + g*c``, ``d = TJ - J`` brackets
    the fixed point between ``TJ + g/(1-g)*min d`` and ``... max d``
    (MacQueen 1966; Porteus 1971).  The slack covers masses 1e-12 off 1."""
    if g is None:
        return None, sup
    lo, hi = float(np.min(step)), float(np.max(step))
    c = g / (1.0 - g)
    span = (c * (hi - lo) / 2 + _MASS_SLACK * c / (1.0 - g) * max(-lo, hi)) / np.min(weights)
    return (c * (lo + hi) / 2, float(span)) if span < sup else (None, sup)


def _sweep(problem, j1, policies):
    """One composite sweep ``t = T1(T2 J1)`` and its certificate:
    ``(estimate, bound, r, t, mu, floor)`` as :func:`certify` says, with
    mu the minimizer's picks and floor the bound's rounding part at r = 0.

    ``policies`` None is the greedy sweep; a pair fixes both sides, and a
    half-fixed pair ``(mu, None)`` gives ``T1^mu(T2 J1)``, the
    maximizer greedy (every form shifts by the same g)."""
    mu, nu = (None, None) if policies is None else (policies.mu, policies.nu)
    j2 = problem.t2_greedy(j1)[0] if nu is None else problem.t2_policy(nu, j1)
    t, mu = problem.t1_greedy(j2) if mu is None else (problem.t1_policy(mu, j2), mu)
    estimate, bound, r, floor = sweep_certificate(problem, j1, t)
    return estimate, bound, r, t, mu, floor


def sweep_certificate(problem, j1, t):
    """The certificate of J1 from its composite image t, however t was
    computed: ``(estimate, bound, r, floor)`` as :func:`_sweep` says.  The
    arithmetic of :func:`certify`, so a t equal to its sweep's bit for bit
    gives its certificate bit for bit."""
    r = j1.diff_norm(t)
    a2, g = problem.alpha ** 2, problem.shift()
    offset, bound = span_bound(g, t.values - j1.values, j1.space.weights, a2 * r / (1.0 - a2))
    # the sweep's own rounding, a few ulps of the tables it reads and writes
    # (|t| <= |J1| + r), moves a fixed point by up to that over one minus
    # either contraction
    ulps, norm, slack = 4 * np.finfo(float).eps, j1.norm(), 1.0 - max(a2, g or 0.0)
    bound += ulps * (norm + r) / slack
    estimate = t if offset is None else ValueTable(j1.space, t.values + offset)
    return estimate, bound, r, ulps * norm / slack


def certify(problem, j1):
    """Certificate of a minimizer table by one greedy composite sweep.

    Returns ``(estimate, bound, r)``: the sweep gives ``t = T1(T2 J1)``
    and ``r = |J1 - t|`` (weighted).  The estimate is t plus the midpoint
    offset of :func:`span_bound` when that bound is the smaller, else t
    with ``alpha**2 * r/(1 - alpha**2)``: the composite contracts at
    ``alpha**2``.  Either bound adds the sweep's rounding, so a table the
    sweep maps onto itself is not certified at 0.
    """
    return _sweep(problem, j1, None)[:3]


def check_floor(loop, step, bound, tol, r, floor, table="J1"):
    """Raise :class:`MaxItersExceeded` if the floor exceeds tol and ``step``
    moved ``table`` by no more than it: ``loop`` cannot certify tol by
    stepping on.  ``bound`` None is a loop that holds no certificate."""
    if r <= floor and floor > tol:
        held = (f"tol {tol:.3e} is below" if bound is None
                else f"bound {bound:.3e} > {tol:.3e} is held by")
        raise MaxItersExceeded(f"{loop} {held} the rounding floor {floor:.3e}: {step} moves "
                               f"{table} by {r:.3e}, no more than the floor")


def _iterate(problem, j1, tol, max_iters, policies, floor_ends=False):
    """The loop of :func:`value_iterate`, :func:`policy_pair_value` and
    Hoffman-Karp's evaluation, returning a :class:`VIResult`; kept apart
    so that a hook or profiler on any of them sees only its own calls.

    The bound never falls below its r-free rounding part, the floor
    ``4 eps |J1| / (1 - max(g, alpha**2))``.  Once that floor exceeds tol
    and a sweep moves J1 by no more than it (``r`` at or below the floor,
    as when J1 repeats or wanders by a few ulps), sweeping on cannot
    certify tol: :func:`check_floor` raises at once or, with ``floor_ends``,
    the result is returned there, its bound above tol."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    j1 = problem.zero1() if j1 is None else j1
    residuals, bound = [], np.inf   # the message's bound when max_iters < 1
    for k in range(1, max_iters + 1):
        estimate, bound, r, t, _, floor = _sweep(problem, j1, policies)
        residuals.append(r)
        if bound <= tol or floor_ends and r <= floor and floor > tol:
            return VIResult(estimate, k, tuple(residuals), bound)
        check_floor("value iteration", f"sweep {k}", bound, tol, r, floor)
        j1 = t
    raise MaxItersExceeded(
        f"value iteration bound {bound:.3e} > {tol:.3e} after {max_iters} sweeps")


def value_iterate(problem, tol=1e-8, max_iters=10**6):
    """Iterate ``J1 <- T1(T2 J1)`` from zero until :func:`certify`'s bound
    is at most tol.

    ``residuals[k]`` is ``r`` of the k-th sweep.  Returns the certified
    estimate as ``j1`` and its bound as ``error_bound``.  Raises
    ``ValueError`` unless ``0 < tol < inf`` and :class:`MaxItersExceeded`
    when the budget runs out or the floor holds the bound (:func:`check_floor`).
    """
    return _iterate(problem, None, tol, max_iters, None)


def policy_pair_value(problem, policies, tol=1e-10, j1_0=None, floor_ends=False):
    """The minimizer table of a fixed policy pair: :func:`value_iterate`'s loop
    on ``T1^mu(T2^nu J1)``, which shifts by the same g, from ``j1_0`` (zero by
    default) within ``_EVAL_SWEEPS`` sweeps; ``floor_ends`` is :func:`_iterate`'s."""
    return _iterate(problem, j1_0, tol, _EVAL_SWEEPS, policies, floor_ends).j1
