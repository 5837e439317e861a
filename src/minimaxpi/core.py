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

from .errors import DegeneratePair, MaxItersExceeded

_ZERO_DISTANCE = 1e-13

# padding of the score layout past a state's actions: never a minimizer's
# or a maximizer's pick
SCORE_PAD = {1: np.inf, 2: -np.inf}


@dataclass(frozen=True)
class WeightedSpace:
    """A finite state space with strictly positive norm weights."""

    size: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "weights", w)
        if self.size < 1:
            raise ValueError("space must contain at least one state")
        if w.shape != (self.size,):
            raise ValueError("need one weight per state")
        if not np.all(w > 0):
            raise ValueError("norm weights must be strictly positive")

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
        if not np.all(np.isfinite(v)):
            raise ValueError("table entries must be finite")

    @classmethod
    def zeros(cls, space):
        return cls(space, np.zeros(space.size))

    def norm(self):
        return float(np.max(np.abs(self.values) / self.space.weights))

    def diff_norm(self, other):
        return float(np.max(np.abs(self.values - other.values) / self.space.weights))

    # richer table types distinguish the exact norm from a cheap certified
    # upper bound, used in stopping rules and trace rows; for plain tables
    # the two coincide
    diff_bound = diff_norm

    def pointwise_min(self, other):
        return ValueTable(self.space, np.minimum(self.values, other.values))

    def pointwise_max(self, other):
        return ValueTable(self.space, np.maximum(self.values, other.values))

    def with_updates(self, subset, new_values):
        out = self.values.copy()
        out[subset] = new_values
        return ValueTable(self.space, out)

    def le(self, other, slack=1e-12):
        """Pointwise <= check; returns (ok, witness)."""
        gap = self.values - other.values
        if np.all(gap <= slack):
            return True, None
        x = int(np.argmax(gap))
        return False, {"state": x, "left": float(self.values[x]), "right": float(other.values[x])}


@dataclass(frozen=True)
class PolicyPair:
    """A minimizer policy and a maximizer policy.

    For explicit problems both entries index into the per-state action
    lists.  Backends with richer controls (mixed strategies) store their
    own representation in ``mu``.
    """

    mu: np.ndarray
    nu: np.ndarray


def update_policy(policy, subset, entries):
    """Functional update of a policy array on a state subset."""
    out = np.array(policy, copy=True)
    out[subset] = entries
    return out


class HalfStageProblem:
    """The problem protocol of the solvers.

    A problem supplies ``space1``, ``space2``, the asserted modulus
    ``alpha``, and four kernels over a subset of one side's states, each
    reading the opposite side's table: ``min_eval_values(subset, mu, m2)``
    and ``max_eval_entries(subset, nu, m1)`` at the side's policy, and
    ``min_improve(subset, m2)`` and ``max_improve(subset, m1, mu=None)``
    returning greedy values/entries and picks.  It also supplies
    ``table2(entries)`` (a full maximizer table from one entry per state),
    ``zero2``, ``first_policies``, ``random_policies``, ``random_table2``
    and ``random_ordered_table2``.  The rest is written here once.
    """

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

    def joint_policy_fixed_point(self, policies, tol=1e-10, j1=None, j2=None):
        """Tables of a fixed policy pair: its joint operator iterated to
        ``tol`` from (j1, j2), zero tables by default."""
        return policy_pair_value(self, policies, tol, j1_0=j1, j2_0=j2)

    def random_table1(self, rng):
        return ValueTable(self.space1, rng.uniform(-1, 1, self.space1.size) * self.space1.weights)


@dataclass(frozen=True)
class SeparatedProblem(HalfStageProblem):
    """A two-player fixed-point problem over explicit finite spaces.

    This class is the closure adapter: ``eval1(x1, u, j2_values)`` and
    ``eval2(x2, v, j1_values)`` price one (state, action) against the
    opposite side's table as a plain array, and :meth:`scores` calls them
    once per (state, action).  Subclasses replace :meth:`scores` only:
    :class:`TabularProblem` computes it from padded arrays, and the
    reduced problems of :func:`minimaxpi.aggregation.build_aggregate` from
    their parent's.  The half-stage kernels below serve all of them.
    ``alpha`` is the asserted contraction modulus of the joint
    fixed-policy operator; it is not enforced at construction but can be
    certified with :func:`estimate_modulus`.
    """

    space1: WeightedSpace
    space2: WeightedSpace
    actions1: tuple
    actions2: tuple
    eval1: callable
    eval2: callable
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "actions1", tuple(tuple(a) for a in self.actions1))
        object.__setattr__(self, "actions2", tuple(tuple(a) for a in self.actions2))
        if len(self.actions1) != self.space1.size or len(self.actions2) != self.space2.size:
            raise ValueError("need one action list per state")
        if any(len(a) == 0 for a in self.actions1 + self.actions2):
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

    def action_mask(self, side):
        """Which entries of the (states, widest action list) score layout
        are real actions rather than padding."""
        counts = np.array([len(a) for a in (self.actions1 if side == 1 else self.actions2)])
        return np.arange(counts.max()) < counts[:, None]

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

    # -- sampling hooks for the numerical certifiers -------------------------

    def random_table2(self, rng):
        return ValueTable(self.space2, rng.uniform(-1, 1, self.space2.size) * self.space2.weights)

    def random_policies(self, rng):
        mu = np.array([rng.integers(len(a)) for a in self.actions1])
        nu = np.array([rng.integers(len(a)) for a in self.actions2])
        return PolicyPair(mu, nu)

    def random_ordered_table2(self, rng):
        lo = self.random_table2(rng)
        hi = ValueTable(self.space2, lo.values + rng.uniform(0, 1, self.space2.size))
        return lo, hi


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
        for k in range(1, terms.shape[-1]):   # in outcome order, as in evaluate
            total += terms[..., k]
        return total

    def evaluate(self, x, a, opposite):
        """One (state, action) score, summed outcome by outcome."""
        p, g, n = self.prob[x, a], self.cost[x, a], self.next[x, a]
        total = p[0] * (g[0] + self.scale * opposite[n[0]])
        for k in range(1, p.size):
            total += p[k] * (g[k] + self.scale * opposite[n[k]])
        return float(total)

    def reach(self, weights, opposite_weights):
        """Largest weighted outcome mass of a real action,
        ``sum_k prob*xi'[next] / xi[x]``; times ``scale`` it bounds this
        side's contraction."""
        mass = (self.prob * opposite_weights[self.next]).sum(axis=-1)
        return float(np.max(np.where(self.live(), mass / weights[:, None], 0.0)))


@dataclass(frozen=True)
class TabularProblem(SeparatedProblem):
    """A separated problem held as one :class:`HalfStage` per side.

    Actions are numbered 0..n-1 per state.  ``eval1``/``eval2`` read the
    same arrays one (state, action) at a time, for per-state oracles.
    """

    actions1: tuple = field(init=False)
    actions2: tuple = field(init=False)
    eval1: callable = field(init=False, repr=False)
    eval2: callable = field(init=False, repr=False)
    stage1: HalfStage
    stage2: HalfStage

    def __post_init__(self):
        for side, stage in ((1, self.stage1), (2, self.stage2)):
            counts = stage.live().sum(axis=1)
            object.__setattr__(self, f"actions{side}", tuple(tuple(range(c)) for c in counts))
            object.__setattr__(self, f"eval{side}", stage.evaluate)
        super().__post_init__()

    def scores(self, side, subset, opposite, picks=None):
        return (self.stage1 if side == 1 else self.stage2).scores(subset, opposite, picks)


@dataclass(frozen=True)
class VIResult:
    j1: object
    j2: object
    iterations: int
    residuals: tuple


def value_iterate(problem, j1_0=None, j2_0=None, tol=1e-8, max_iters=10**6):
    """Iterate (J1, J2) <- (T1 J2, T2 J1) until the product-norm change <= tol.

    Geometric convergence at the problem's modulus; raises
    :class:`MaxItersExceeded` when the budget runs out, which usually means
    the input is not contractive or the tolerance is too tight.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    j1 = problem.zero1() if j1_0 is None else j1_0
    j2 = problem.zero2() if j2_0 is None else j2_0
    residuals = []
    for k in range(1, max_iters + 1):
        n1, _ = problem.t1_greedy(j2)
        n2, _ = problem.t2_greedy(j1)
        res = max(j1.diff_bound(n1), j2.diff_bound(n2))
        residuals.append(res)
        j1, j2 = n1, n2
        if res <= tol:
            return VIResult(j1, j2, k, tuple(residuals))
    raise MaxItersExceeded(
        f"value iteration residual {residuals[-1]:.3e} > {tol:.3e} after {max_iters} sweeps"
    )


def bellman_residual(problem, j1, j2):
    """Product-norm distance between (J1, J2) and one greedy sweep of it."""
    n1, _ = problem.t1_greedy(j2)
    n2, _ = problem.t2_greedy(j1)
    return max(j1.diff_norm(n1), j2.diff_norm(n2))


def certify(problem, j1):
    """Certificate of a minimizer table by one greedy composite sweep.

    Returns ``(r, bound)``: ``r = |J1 - T1(T2 J1)|`` in the weighted norm,
    and ``bound = r / (1 - alpha**2)``.  The composite ``T1 T2`` contracts
    at ``alpha**2`` and its fixed point is the minimizer's table of the
    problem's fixed point, so J1 lies within ``bound`` of it.
    """
    r = j1.diff_norm(problem.t1_greedy(problem.t2_greedy(j1)[0])[0])
    return r, r / (1.0 - problem.alpha ** 2)


def policy_pair_value(problem, policies, tol=1e-10, max_iters=10**6, j1_0=None, j2_0=None):
    """Evaluate a fixed policy pair by iterating its joint operator to tol
    from (j1_0, j2_0), zero tables by default."""
    j1 = problem.zero1() if j1_0 is None else j1_0
    j2 = problem.zero2() if j2_0 is None else j2_0
    for _ in range(max_iters):
        n1 = problem.t1_policy(policies.mu, j2)
        n2 = problem.t2_policy(policies.nu, j1)
        res = max(j1.diff_bound(n1), j2.diff_bound(n2))
        j1, j2 = n1, n2
        if res <= tol:
            return j1, j2
    raise MaxItersExceeded("policy-pair evaluation did not converge")


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
        a1, a2 = problem.random_table1(rng), problem.random_table2(rng)
        b1, b2 = problem.random_table1(rng), problem.random_table2(rng)
        dist = max(a1.diff_norm(b1), a2.diff_norm(b2))
        if dist <= _ZERO_DISTANCE:
            continue
        usable += 1
        pol = problem.random_policies(rng)
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
        pol = problem.random_policies(rng)
        lo2, hi2 = problem.random_ordered_table2(rng)
        out_lo = problem.t1_policy(pol.mu, lo2)
        out_hi = problem.t1_policy(pol.mu, hi2)
        ok, w = out_lo.le(out_hi, slack)
        if not ok:
            return CheckResult(False, {"side": 1, **w})
        lo1 = problem.random_table1(rng)
        hi1 = ValueTable(problem.space1, lo1.values + rng.uniform(0, 1, problem.space1.size))
        out_lo = problem.t2_policy(pol.nu, lo1)
        out_hi = problem.t2_policy(pol.nu, hi1)
        ok, w = out_lo.le(out_hi, slack)
        if not ok:
            return CheckResult(False, {"side": 2, **w})
    return CheckResult(True)
