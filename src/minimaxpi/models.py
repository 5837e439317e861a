"""Concrete problem classes and their mappings into separated form.

Covers discounted and terminating finite-state Markov games, minimax
control with explicitly separated players, minimax control over one state
space (with optional finite stochastic disturbances), and the two-stage
scaling that splits one discount factor across the minimizer and
maximizer half-stages.

The reformulated Markov game keeps the maximizer's side implicit: its
tables are stored per game state as bundles of matrix columns, one
(states, n, width) array per table, and evaluated lazily at any mixed
strategy, with the minimizer's improvement solved exactly by LP (one
batched call over a whole subset) rather than by discretizing the simplex.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (HalfStage, HalfStageProblem, PolicyPair, TabularProblem, ValueTable,
                   WeightedSpace)
from .errors import InvalidBeta, MaxItersExceeded, NonContractive
from .matrix_game import _TIE, min_simplex_max_linear, solve_matrix_game

_PROB_TOL = 1e-10


# ---------------------------------------------------------------------------
# Markov games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscountedMarkovGame:
    """Repeated matrix games coupled by controlled Markov transitions.

    ``payoffs`` has shape (states, n, m); ``transitions[x, i, j, y]`` is the
    probability of moving to y when the players pick pure moves (i, j) at x.
    Terminating games may have substochastic rows (the missing mass is
    absorbed cost-free) but must still be certified contractive before use.
    ``weights`` (unit by default) are the norm weights of ``space``.
    """

    payoffs: np.ndarray
    transitions: np.ndarray
    alpha: float
    terminating: bool = False
    weights: np.ndarray | None = None
    space: WeightedSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.payoffs, dtype=float)
        q = np.asarray(self.transitions, dtype=float)
        object.__setattr__(self, "payoffs", a)
        object.__setattr__(self, "transitions", q)
        if a.ndim != 3:
            raise ValueError("payoffs must have shape (states, n, m)")
        s, n, m = a.shape
        if q.shape != (s, n, m, s):
            raise ValueError("transitions must have shape (states, n, m, states)")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(q))):
            raise ValueError("entries must be finite")
        if np.min(q) < -_PROB_TOL:
            raise ValueError("transition probabilities must be nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        sums = q.sum(axis=3)
        if self.terminating:
            if np.max(sums) > 1.0 + _PROB_TOL:
                raise ValueError("terminating rows must sum to at most 1")
        elif np.max(np.abs(sums - 1.0)) > _PROB_TOL:
            raise ValueError("transition rows must sum to 1")
        space = (WeightedSpace.unit(s) if self.weights is None
                 else WeightedSpace(s, self.weights))
        object.__setattr__(self, "space", space)
        if self.weights is not None:
            object.__setattr__(self, "weights", space.weights)

    @property
    def state_count(self):
        return self.payoffs.shape[0]

    @property
    def moves(self):
        return self.payoffs.shape[1], self.payoffs.shape[2]

    def contraction_factor(self):
        """Exact sup-norm modulus bound of the fixed-policy stage operator."""
        xi = self.space.weights
        mass = (self.transitions * xi[None, None, None, :]).sum(axis=3)
        return self.alpha * float(np.max(mass / xi[:, None, None]))


def stage_matrix(game, x, j, scale=None):
    """The one-shot payoff matrix at x against a continuation value array.

    With an index array (or slice) ``x``: one matrix per state, stacked.
    """
    scale = game.alpha if scale is None else scale
    return game.payoffs[x] + scale * (game.transitions[x] @ j)


def markov_H(game, x, u, v, j):
    """Expected stage payoff plus discounted continuation: u'(A(x) + a*sum Q J)v."""
    return float(np.asarray(u) @ stage_matrix(game, x, j) @ np.asarray(v))


@dataclass(frozen=True)
class ShapleyVIResult:
    values: np.ndarray
    iterations: int
    residuals: tuple


def shapley_value_iteration(game, tol=1e-8, max_iters=10**6):
    """Fixed-point iteration on the stage-game value operator.

    Each sweep replaces J(x) with the exact value of the matrix game formed
    by the current continuation, so the iterates contract at the game's
    modulus toward the equilibrium value vector.
    """
    xi = game.space.weights
    j = np.zeros(game.state_count)
    residuals = []
    for k in range(1, max_iters + 1):
        new = solve_matrix_game(stage_matrix(game, slice(None), j)).value
        res = float(np.max(np.abs(new - j) / xi))
        residuals.append(res)
        j = new
        if res <= tol:
            return ShapleyVIResult(j, k, tuple(residuals))
    raise MaxItersExceeded("stage-game value iteration did not reach tol")


# ---------------------------------------------------------------------------
# Two-stage scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaScaling:
    """Per-half-stage discount splitter; needs beta > 1 and alpha*beta < 1."""

    beta: float

    def __post_init__(self):
        if not self.beta > 1.0:
            raise InvalidBeta(f"beta must exceed 1, got {self.beta}")

    def check_against(self, alpha):
        if not alpha * self.beta < 1.0:
            raise InvalidBeta(f"alpha*beta = {alpha * self.beta:.6f} must be below 1")


def default_beta(alpha):
    """The symmetric choice: both half-stages contract at sqrt(alpha)."""
    return BetaScaling(1.0 / np.sqrt(alpha))


def _as_beta(beta, alpha):
    if beta is None:
        beta = default_beta(alpha)
    elif not isinstance(beta, BetaScaling):
        beta = BetaScaling(float(beta))
    beta.check_against(alpha)
    return beta


# ---------------------------------------------------------------------------
# Column-bundle tables: the implicit maximizer side of a reformulated game
# ---------------------------------------------------------------------------


def _sup_gaps(a, b):
    """sup over the simplex of max_j(u'a_j) - max_k(u'b_k), per state.

    ``a`` and ``b`` are (states, n, width) bundle arrays.  One LP instance
    per column a_j, min_u max_k u'(b_k - a_j), all in one batched call.
    """
    lines = b.transpose(0, 2, 1)[:, None] - a.transpose(0, 2, 1)[:, :, None]
    values, _ = min_simplex_max_linear(lines)
    return -values.min(axis=1)


def _readings(u, cols):
    """u'col_j for every column j, with u (..., n) and cols (..., n, width),
    summed strategy by strategy so that no reading depends on the width."""
    total = u[..., 0, None] * cols[..., 0, :]
    for i in range(1, cols.shape[-2]):
        total += u[..., i, None] * cols[..., i, :]
    return total


@dataclass(frozen=True)
class ColumnMaxTable:
    """Per-state bundles of matrix columns, read as max_j u'col_j at any u.

    This stores the maximizer-side tables of a reformulated Markov game as
    a finite set of numbers: one column after an evaluation step, the full
    matrix after an improvement step.  ``cols`` is one float array of shape
    (states, n, width), the same width for every state; a narrower bundle
    is stored with a column repeated, which changes no reading (not
    max_j u'col_j, not the LP value, not the exact gaps).  Tables of one
    width, as the executor's updates keep them, are compared by
    ``diff_bound`` entry by entry; ``diff_norm`` is the exact gap by LP.
    """

    space: WeightedSpace
    cols: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=float)
        if cols.ndim != 3 or cols.shape[0] != self.space.size or 0 in cols.shape[1:]:
            raise ValueError("need a (states, n, width) bundle array with n, width >= 1")
        if not np.all(np.isfinite(cols)):
            raise ValueError("bundle entries must be finite")
        object.__setattr__(self, "cols", cols)

    def value_at(self, x, u):
        return float(np.max(_readings(np.asarray(u), self.cols[x])))

    def pointwise_max(self, other):
        return ColumnMaxTable(self.space, np.concatenate((self.cols, other.cols), axis=2))

    def with_updates(self, subset, entries):
        """Replace the bundles of ``subset``; a one-column entry fills them."""
        out = self.cols.copy()
        out[subset] = entries
        return ColumnMaxTable(self.space, out)

    def diff_norm(self, other):
        if self is other:
            return 0.0
        gaps = np.maximum(_sup_gaps(self.cols, other.cols), _sup_gaps(other.cols, self.cols))
        return float(np.max(gaps / self.space.weights))

    def diff_bound(self, other):
        """Cheap certified upper bound on diff_norm; exact for single columns."""
        if self is other:
            return 0.0
        if self.cols.shape == other.cols.shape:
            return float(np.max(np.abs(self.cols - other.cols)
                                / self.space.weights[:, None, None]))
        return self.diff_norm(other)

    def norm(self):
        return self.diff_norm(ColumnMaxTable(self.space, np.zeros_like(self.cols[..., :1])))

    def le(self, other, slack=1e-12):
        gaps = _sup_gaps(self.cols, other.cols)
        x = int(np.argmax(gaps > slack))
        if gaps[x] > slack:
            return False, {"state": x, "excess": float(gaps[x])}
        return True, None


# ---------------------------------------------------------------------------
# The reformulated Markov game as a separated problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovSeparatedProblem(HalfStageProblem):
    """A discounted Markov game split into alternating half-stages.

    The minimizer's states are the game states; the maximizer's states are
    (state, mixed strategy) pairs kept implicit through
    :class:`ColumnMaxTable`.  The minimizer's policy is one mixed strategy
    per state, the maximizer's a column index per state.  The maximizer's
    kernels build the stage matrices of a whole subset in one
    :func:`stage_matrix` call.  The solved minimizer table recovers the
    game values after multiplying back the stage scaling.
    """

    game: DiscountedMarkovGame
    beta: BetaScaling

    def __post_init__(self):
        self.beta.check_against(self.game.alpha)
        modulus = max(1.0 / self.beta.beta,
                      self.beta.beta * self.game.contraction_factor())
        if modulus >= 1.0:
            raise NonContractive(
                f"scaled half-stages have modulus {modulus:.6f} >= 1"
            )
        object.__setattr__(self, "alpha", modulus)

    @property
    def space1(self):
        return self.game.space

    @property
    def space2(self):
        return self.game.space

    @property
    def n(self):
        return self.game.moves[0]

    @property
    def m(self):
        return self.game.moves[1]

    def table2(self, entries):
        return ColumnMaxTable(self.space2, entries)

    def zero2(self):
        return ColumnMaxTable(self.space2, np.zeros((self.game.state_count, self.n, self.m)))

    def first_policies(self):
        mu = np.zeros((self.game.state_count, self.n))
        mu[:, 0] = 1.0
        return PolicyPair(mu, np.zeros(self.game.state_count, dtype=int))

    def original_values(self, j1):
        """Game equilibrium values recovered from the minimizer's table."""
        return self.beta.beta * j1.values

    # -- half-stage kernels ---------------------------------------------------

    def min_eval_values(self, subset, mu, m2):
        readings = _readings(np.asarray(mu)[subset], m2.cols[subset])
        return readings.max(axis=-1) / self.beta.beta

    def min_improve(self, subset, m2):
        """One LP per state, min_u max_j u'col_j, all in one batched call."""
        values, picks = min_simplex_max_linear(m2.cols[subset].transpose(0, 2, 1))
        return values / self.beta.beta, picks

    def max_eval_entries(self, subset, nu, m1):
        mats = stage_matrix(self.game, subset, m1.values, self.game.alpha * self.beta.beta)
        return mats[np.arange(len(subset)), :, np.asarray(nu)[subset], None]

    def max_improve(self, subset, m1, mu=None):
        """The stage matrices and, per state, the first column whose reading
        mu'M_j is within ``_TIE`` x the matrix's spread of the best, so
        that rounding noise at an equalizing mu does not move the pick."""
        mats = stage_matrix(self.game, subset, m1.values, self.game.alpha * self.beta.beta)
        weights = (np.full((len(subset), self.n), 1.0 / self.n) if mu is None
                   else np.asarray(mu)[subset])
        readings = (weights[:, None, :] @ mats)[:, 0]
        slack = _TIE * (mats.max(axis=(1, 2)) - mats.min(axis=(1, 2)))
        near = readings >= readings.max(axis=1, keepdims=True) - slack[:, None]
        return mats, np.argmax(near, axis=1)

    def joint_policy_fixed_point(self, policies, tol=None, j1=None, j2=None):
        """Exact tables of a fixed policy pair via one dense linear solve.

        With both policies frozen the coupled half-stage equations collapse
        to a linear system in the minimizer's table (no tol or warm start).
        """
        s = self.game.state_count
        cols = np.arange(s), policies.nu
        costs = np.einsum("xi,xij->xj", policies.mu, self.game.payoffs)[cols]
        probs = np.einsum("xi,xijy->xjy", policies.mu, self.game.transitions)[cols]
        j1 = np.linalg.solve(np.eye(s) - self.game.alpha * probs,
                             costs / self.beta.beta)
        j1 = ValueTable(self.space1, j1)
        return j1, self.t2_policy(policies.nu, j1)

    # -- sampling hooks -------------------------------------------------------

    def random_table2(self, rng):
        """Bundles of 1..m random columns, padded to m with the last one."""
        s = self.game.state_count
        widths = rng.integers(1, self.m + 1, s)
        cols = rng.uniform(-1, 1, (s, self.n, self.m)) * self.space2.weights[:, None, None]
        last = np.minimum(np.arange(self.m), widths[:, None] - 1)
        return ColumnMaxTable(self.space2, np.take_along_axis(cols, last[:, None, :], axis=2))

    def random_policies(self, rng):
        mu = rng.dirichlet(np.ones(self.n), self.game.state_count)
        nu = rng.integers(self.m, size=self.game.state_count)
        return PolicyPair(mu, nu)

    def random_ordered_table2(self, rng):
        lo = self.random_table2(rng)
        shifts = rng.uniform(0, 1, self.game.state_count)
        return lo, ColumnMaxTable(self.space2, lo.cols + shifts[:, None, None])


def separate_markov_game(game, beta=None):
    """Split a discounted Markov game into contractive alternating half-stages."""
    return MarkovSeparatedProblem(game, _as_beta(beta, game.alpha))


# ---------------------------------------------------------------------------
# Minimax control with explicitly separated players
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparatedMinimaxModel:
    """Alternating-move control: the players own disjoint state spaces.

    ``next1[x1][u]`` is the maximizer state reached by the minimizer's move
    u with stage cost ``cost1[x1][u]``; ``next2``/``cost2`` mirror.
    """

    space1: WeightedSpace
    space2: WeightedSpace
    next1: tuple
    cost1: tuple
    next2: tuple
    cost2: tuple
    alpha: float

    def __post_init__(self):
        n1 = tuple(np.asarray(a, dtype=int) for a in self.next1)
        c1 = tuple(np.asarray(a, dtype=float) for a in self.cost1)
        n2 = tuple(np.asarray(a, dtype=int) for a in self.next2)
        c2 = tuple(np.asarray(a, dtype=float) for a in self.cost2)
        object.__setattr__(self, "next1", n1)
        object.__setattr__(self, "cost1", c1)
        object.__setattr__(self, "next2", n2)
        object.__setattr__(self, "cost2", c2)
        if len(n1) != self.space1.size or len(n2) != self.space2.size:
            raise ValueError("need one move list per state")
        for nxt, cst, bound in ((n1, c1, self.space2.size), (n2, c2, self.space1.size)):
            for a, c in zip(nxt, cst):
                if a.size == 0 or a.shape != c.shape:
                    raise ValueError("each state needs matching nonempty move/cost lists")
                if np.min(a) < 0 or np.max(a) >= bound:
                    raise ValueError("transition target out of range")
                if not np.all(np.isfinite(c)):
                    raise ValueError("costs must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("discount must lie in (0, 1)")


def _sure_moves(nexts, costs, scale, pad):
    """A half-stage whose every move has one sure outcome."""
    targets = np.concatenate(nexts)
    return HalfStage.from_ragged([a.size for a in nexts], np.ones(targets.size, dtype=int),
                                 np.ones(targets.size), np.concatenate(costs), targets,
                                 scale, pad)


def separated_model_to_problem(model):
    """Tabulate an alternating-move control model as a separated problem:
    one sure outcome per move, both sides scaled by the discount."""
    stage1 = _sure_moves(model.next1, model.cost1, model.alpha, np.inf)
    stage2 = _sure_moves(model.next2, model.cost2, model.alpha, -np.inf)
    xi1, xi2 = model.space1.weights, model.space2.weights
    modulus = model.alpha * max(stage1.reach(xi1, xi2), stage2.reach(xi2, xi1))
    if modulus >= 1.0:
        raise NonContractive(f"weighted transitions give modulus {modulus:.6f} >= 1")
    return TabularProblem(space1=model.space1, space2=model.space2, alpha=modulus,
                          stage1=stage1, stage2=stage2)


# ---------------------------------------------------------------------------
# Minimax control over one state space (optionally with random disturbances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimaxControlModel:
    """Discounted control against an antagonist choosing after the controller.

    ``outcomes[x][u][v]`` lists (probability, stage cost, next state)
    triples; a single triple with probability one is the deterministic
    case, several triples fold a finite stochastic disturbance into exact
    expectations.
    """

    space: WeightedSpace
    outcomes: tuple
    alpha: float

    def __post_init__(self):
        if len(self.outcomes) != self.space.size:
            raise ValueError("need outcome lists for every state")
        canon = []
        for x, per_u in enumerate(self.outcomes):
            if len(per_u) == 0:
                raise ValueError("every state needs at least one control")
            rows = []
            for per_v in per_u:
                if len(per_v) == 0:
                    raise ValueError("every (state, control) needs an adversary move")
                cells = []
                for triples in per_v:
                    arr = np.asarray(triples, dtype=float).reshape(-1, 3)
                    if abs(arr[:, 0].sum() - 1.0) > _PROB_TOL or np.min(arr[:, 0]) < -_PROB_TOL:
                        raise ValueError(f"outcome distribution at state {x} must sum to 1")
                    nxt = arr[:, 2].astype(int)
                    if np.min(nxt) < 0 or np.max(nxt) >= self.space.size:
                        raise ValueError("outcome target out of range")
                    if not np.all(np.isfinite(arr[:, 1])):
                        raise ValueError("costs must be finite")
                    cells.append(arr)
                rows.append(tuple(cells))
            canon.append(tuple(rows))
        object.__setattr__(self, "outcomes", tuple(canon))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("discount must lie in (0, 1)")

    @classmethod
    def deterministic(cls, space, next_state, cost, alpha):
        """Build from dense next/cost tables indexed [x][u][v]."""
        outcomes = tuple(
            tuple(
                tuple(
                    [[1.0, cost[x][u][v], next_state[x][u][v]]]
                    for v in range(len(next_state[x][u]))
                )
                for u in range(len(next_state[x]))
            )
            for x in range(len(next_state))
        )
        return cls(space, outcomes, alpha)


def minimax_control_to_problem(model, beta=None):
    """Split minimax control into half-stages over explicit (x, u) pair states.

    The minimizer's move u at x leads surely to pair state (x, u), numbered
    in (x, u) order, read at scale 1/beta; the maximizer's move v at a pair
    draws the model's outcome triples, scaled by alpha*beta.
    """
    beta = _as_beta(beta, model.alpha)
    controls = np.array([len(per_u) for per_u in model.outcomes])
    pairs = [per_v for per_u in model.outcomes for per_v in per_u]
    cells = [arr for per_v in pairs for arr in per_v]
    triples = np.concatenate(cells)
    ab = model.alpha * beta.beta
    stage1 = HalfStage.from_ragged(controls, np.ones(len(pairs), dtype=int),
                                   np.ones(len(pairs)), np.zeros(len(pairs)),
                                   np.arange(len(pairs)), 1.0 / beta.beta, np.inf)
    stage2 = HalfStage.from_ragged([len(per_v) for per_v in pairs],
                                   [len(arr) for arr in cells],
                                   triples[:, 0], triples[:, 1],
                                   triples[:, 2].astype(int), ab, -np.inf)
    xi1 = model.space.weights
    space2 = WeightedSpace(len(pairs), np.repeat(xi1, controls))
    modulus = max(1.0 / beta.beta, ab * stage2.reach(space2.weights, xi1))
    if modulus >= 1.0:
        raise NonContractive(f"weighted half-stages give modulus {modulus:.6f} >= 1")
    return TabularProblem(space1=model.space, space2=space2, alpha=modulus,
                          stage1=stage1, stage2=stage2)


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
