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

The two control models are held as flat arrays: per-state (and per-pair,
per-cell) counts plus every entry in order.  Their constructors read the
nested lists in one pass, check each invariant with one array expression
and name the first bad entry from its flat index; the arrays go to
:meth:`HalfStage.from_ragged` as they are.  The nested per-entry views
(``next1``, ``outcomes``, ...) are built only when read.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress

import numpy as np

from .core import (_MASS_SLACK, HalfStage, HalfStageProblem, PolicyPair, TabularProblem,
                   ValueTable, VIResult, WeightedSpace, check_tol, span_bound)
from .errors import InputFieldError, InvalidBeta, MaxItersExceeded, NonContractive
from .matrix_game import _TIE, min_simplex_max_linear, solve_matrix_game

_PROB_TOL = 1e-10
_SEQUENCES = {list, tuple, np.ndarray}


def _checked(arr, ok, field, message):
    """``arr``, or :class:`InputFieldError` naming its first entry where ``ok`` fails."""
    if not np.all(ok):
        raise InputFieldError(field + "".join(f"[{i}]" for i in np.argwhere(~ok)[0]), message)
    return arr


def _finite(values, field):
    arr = np.asarray(values, dtype=float)
    return _checked(arr, np.isfinite(arr), field, "must be finite")


def _owners(i, *levels):
    """Flat entry i with its owner at each level above it, outermost first;
    ``levels`` are the count arrays of the levels, from the outermost in."""
    at = [i]
    for counts in reversed(levels):
        at.insert(0, int(np.searchsorted(np.cumsum(counts), at[0], side="right")))
    return at


def _index(i, *levels):
    """The nested index ``[a][b]...`` of flat entry i (see :func:`_owners`)."""
    at = _owners(i, *levels)
    local = [at[0]] + [at[k + 1] - int(np.sum(counts[:at[k]])) for k, counts in enumerate(levels)]
    return "".join(f"[{k}]" for k in local)


def _refuse(field, ok, message, *levels):
    """:class:`InputFieldError` naming, under ``field``, the first flat
    entry where ``ok`` fails (see :func:`_owners` for ``levels``)."""
    if not ok.all():
        raise InputFieldError(field + _index(int(np.argmin(ok)), *levels), message)


def _refuse_targets(field, targets, size, *levels):
    """Next states must be integers in [0, size): never truncated."""
    _refuse(field, (targets >= 0) & (targets < size) & (targets == np.floor(targets)),
            f"next state must be an integer in [0, {size})", *levels)


def _first(mask):
    """Index of the first true entry of ``mask``, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def _sizes(items):
    """The length of each item, or -1 for an item that is not a list."""
    return np.fromiter((len(item) if type(item) in _SEQUENCES else -1 for item in items),
                       int, len(items))


def _numbers(field, rows, sizes):
    """Every entry of the lists among ``rows`` in order, as floats (a null
    reads as NaN); ``sizes`` are the rows' :func:`_sizes`.
    :class:`InputFieldError` under ``field`` unless each entry is a number."""
    lists = sizes > 0
    try:
        return np.fromiter(chain.from_iterable(compress(rows, lists)), float,
                           int(sizes[lists].sum()))
    except (TypeError, ValueError):
        raise InputFieldError(field, "entries must be numbers") from None


def _per_run(ufunc, values, counts, empty):
    """``ufunc`` reduced over each run of ``values`` that ``counts`` gives,
    ``empty`` for a run of none."""
    out = np.full(counts.size, empty)
    live = counts > 0
    if live.any():
        out[live] = ufunc.reduceat(values, (np.cumsum(counts) - counts)[live])
    return out


def _runs(items, counts):
    """``items`` cut into consecutive runs of ``counts``, as a tuple."""
    ends = np.cumsum(counts).tolist()
    return tuple(items[end - n:end] for end, n in zip(ends, counts.tolist()))


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
    _shift: float | None = field(init=False, repr=False, compare=False)
    _modulus: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.payoffs, dtype=float)
        q = np.asarray(self.transitions, dtype=float)
        if a.ndim != 3:
            raise InputFieldError("payoffs", "must be [state][row][col]")
        s, n, m = a.shape
        if q.shape != (s, n, m, s):
            raise InputFieldError("transitions", "must be [state][row][col][next]")
        space = WeightedSpace.unit(s)
        if self.weights is not None:
            try:
                space = WeightedSpace(s, self.weights)
            except ValueError as exc:
                raise InputFieldError("weights", str(exc), prefix=False) from exc
            object.__setattr__(self, "weights", space.weights)
        object.__setattr__(self, "space", space)
        sums = q.sum(axis=3)
        off = np.abs(sums - 1.0)
        if not self.terminating and not np.all(off <= _PROB_TOL):   # NaN sums fail too
            x, i, j = np.argwhere(~(off <= _PROB_TOL))[0]
            raise InputFieldError(f"transitions[{x}][{i}][{j}]",
                                  f"row sums to {float(sums[x, i, j])}, expected 1", prefix=False)
        object.__setattr__(self, "payoffs", _finite(a, "payoffs"))
        object.__setattr__(self, "transitions", _finite(q, "transitions"))
        if np.min(q) < -_PROB_TOL:
            raise ValueError("transition probabilities must be nonnegative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        off_one = np.max(off)
        if self.terminating and np.max(sums) > 1.0 + _PROB_TOL:
            raise ValueError("terminating rows must sum to at most 1")
        object.__setattr__(self, "_shift", self.alpha if off_one <= _MASS_SLACK else None)
        mass = (q * space.weights).sum(axis=3) / space.weights[:, None, None]
        object.__setattr__(self, "_modulus", self.alpha * float(np.max(mass)))

    @property
    def state_count(self):
        return self.payoffs.shape[0]

    @property
    def moves(self):
        return self.payoffs.shape[1], self.payoffs.shape[2]

    def contraction_factor(self):
        """Exact sup-norm modulus bound of the fixed-policy stage operator."""
        return self._modulus

    def shift(self):
        """``alpha`` if every transition row sums to 1 (within 1e-12), else None."""
        return self._shift


def stage_matrix(game, x, j, scale=None):
    """The one-shot payoff matrix at x against a continuation value array.

    With an index array (or slice) ``x``: one matrix per state, stacked.
    """
    scale = game.alpha if scale is None else scale
    return game.payoffs[x] + scale * (game.transitions[x] @ j)


def shapley_value_iteration(game, tol=1e-8, max_iters=10**6):
    """Stage-game value iteration until the values are certified within tol:
    the stage-form reference that the tests compare the CLI's solvers with
    (the CLI's ``vi`` runs :func:`value_iterate` on the separated game).

    Each sweep replaces J(x) with the exact value of the matrix game formed
    by the current continuation.  Returns a :class:`~minimaxpi.core.VIResult`,
    its ``j1`` the values on ``game.space`` of the smaller bound, ``|d|*a/(1-a)``
    for a sweep moving them by d (``a`` the game's modulus) or
    :func:`span_bound`'s, with that bound as ``error_bound``.
    """
    check_tol(tol)
    xi, g, a = game.space.weights, game.shift(), game.contraction_factor()
    per_step = a / (1.0 - a) if a < 1.0 else np.inf   # sup-norm error per unit of step
    j, residuals = np.zeros(game.state_count), []
    for k in range(1, max_iters + 1):
        new = solve_matrix_game(stage_matrix(game, slice(None), j)).value
        residuals.append(float(np.max(np.abs(new - j) / xi)))
        offset, bound = span_bound(g, new - j, xi, residuals[-1] * per_step)
        j = new
        if bound <= tol:
            values = ValueTable(game.space, j if offset is None else j + offset)
            return VIResult(values, k, tuple(residuals), bound)
    raise MaxItersExceeded("stage-game value iteration did not reach tol")


# ---------------------------------------------------------------------------
# Two-stage scaling
# ---------------------------------------------------------------------------


def split_beta(model, beta=None):
    """The two-stage discount split of a game or control ``model``: ``beta``,
    checked (beta > 1, alpha*beta < 1), or by default 1/sqrt(alpha), both
    half-stages at sqrt(alpha).  Where the weighted modulus lies in
    [sqrt(alpha), 1), that split would not contract: the default is then
    1/sqrt(modulus), both half-stages at sqrt(modulus)."""
    alpha = model.alpha
    if beta is None:
        modulus = model.contraction_factor()
        beta = 1.0 / np.sqrt(modulus if np.sqrt(alpha) <= modulus < 1.0 else alpha)
    beta = float(beta)
    if not beta > 1.0:
        raise InvalidBeta(f"beta must exceed 1, got {beta}")
    if not alpha * beta < 1.0:
        raise InvalidBeta(f"alpha*beta = {alpha * beta:.6f} must be below 1")
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
        if not np.isfinite(cols).all():
            raise ValueError("bundle entries must be finite")
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _trusted(cls, space, cols):
        """A table of a bundle array of the right shape known to be finite,
        built without the checks of ``__post_init__``."""
        table = object.__new__(cls)
        object.__setattr__(table, "space", space)
        object.__setattr__(table, "cols", cols)
        return table

    def copy(self):
        return ColumnMaxTable._trusted(self.space, self.cols.copy())

    def guard(self, other, pick):
        """The pessimism guard max[V, J] of V = self and J = other (``pick``
        is ``np.maximum``): both bundles side by side, 2m columns; finite as
        both tables are."""
        return ColumnMaxTable._trusted(self.space, np.concatenate((self.cols, other.cols), axis=2))

    # the executor's iterate, as on ValueTable: a one-column entry fills a bundle

    def _rows(self, subset):
        return self.cols[subset]

    def _write(self, subset, rows):
        self.cols[subset] = rows

    def _guard_rows(self, subset, v_rows, j_rows, pick):
        """This guard (:meth:`guard`) rewritten on ``subset`` from V's and J's rows."""
        width = self.cols.shape[2] // 2
        self.cols[subset, :, :width] = v_rows
        self.cols[subset, :, width:] = j_rows

    def _diff_rows(self, subset, rows):
        """:meth:`diff_bound` against this table with ``rows`` on ``subset``."""
        return float(np.max(np.abs(rows - self.cols[subset])
                            / self.space.weights[subset, None, None]))

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
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", split_beta(self.game, self.beta))
        modulus = max(1.0 / self.beta, self.beta * self.game.contraction_factor())
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

    def shift(self):   # 1/beta times alpha*beta
        return self.game.shift()

    # -- half-stage kernels ---------------------------------------------------

    def min_eval_values(self, subset, mu, m2):
        readings = _readings(np.asarray(mu)[subset], m2.cols[subset])
        return readings.max(axis=-1) / self.beta

    def min_improve(self, subset, m2):
        """One LP per state, min_u max_j u'col_j, all in one batched call."""
        values, picks = min_simplex_max_linear(m2.cols[subset].transpose(0, 2, 1))
        return values / self.beta, picks

    def max_eval_entries(self, subset, nu, m1):
        mats = stage_matrix(self.game, subset, m1.values, self.game.alpha * self.beta)
        return mats[np.arange(len(subset)), :, np.asarray(nu)[subset], None]

    def max_improve(self, subset, m1, mu=None):
        """The stage matrices and, per state, the first column whose reading
        mu'M_j is within ``_TIE`` x the matrix's spread of the best, so
        that rounding noise at an equalizing mu does not move the pick."""
        mats = stage_matrix(self.game, subset, m1.values, self.game.alpha * self.beta)
        weights = (np.full((len(subset), self.n), 1.0 / self.n) if mu is None
                   else np.asarray(mu)[subset])
        readings = (weights[:, None, :] @ mats)[:, 0]
        slack = _TIE * (mats.max(axis=(1, 2)) - mats.min(axis=(1, 2)))
        near = readings >= readings.max(axis=1, keepdims=True) - slack[:, None]
        return mats, np.argmax(near, axis=1)

    def joint_policy_fixed_point(self, policies, tol=None, j1=None):
        """Exact tables of a fixed policy pair via one dense linear solve.

        With both policies frozen the coupled half-stage equations collapse
        to a linear system in the minimizer's table (no tol or warm start).
        """
        s = self.game.state_count
        cols = np.arange(s), policies.nu
        costs = np.einsum("xi,xij->xj", policies.mu, self.game.payoffs)[cols]
        probs = np.einsum("xi,xijy->xjy", policies.mu, self.game.transitions)[cols]
        j1 = np.linalg.solve(np.eye(s) - self.game.alpha * probs,
                             costs / self.beta)
        j1 = ValueTable(self.space1, j1)
        return j1, self.t2_policy(policies.nu, j1)


def separate_markov_game(game, beta=None):
    """Split a discounted Markov game into contractive alternating half-stages
    at :func:`split_beta`."""
    return MarkovSeparatedProblem(game, beta)


# ---------------------------------------------------------------------------
# Minimax control with explicitly separated players
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class SeparatedMinimaxModel:
    """Alternating-move control: the players own disjoint state spaces.

    ``next1[x1][u]`` is the maximizer state reached by the minimizer's move
    u with stage cost ``cost1[x1][u]``; ``next2``/``cost2`` mirror.

    The model is held flat: ``moves1[x1]`` counts the moves of x1, and
    ``targets1``/``costs1`` list every move's next state and cost in
    (state, move) order.  ``next1``, ``cost1``, ``next2`` and ``cost2`` are
    per-state views of those arrays, built when first read.
    """

    space1: WeightedSpace
    space2: WeightedSpace
    alpha: float
    moves1: np.ndarray
    targets1: np.ndarray
    costs1: np.ndarray
    moves2: np.ndarray
    targets2: np.ndarray
    costs2: np.ndarray

    def __init__(self, space1, space2, next1, cost1, next2, cost2, alpha):
        if len(next1) != space1.size or len(next2) != space2.size:
            raise ValueError("need one move list per state")
        fields = {"space1": space1, "space2": space2, "alpha": alpha}
        for side, nexts, costs, size in (("1", next1, cost1, space2.size),
                                         ("2", next2, cost2, space1.size)):
            moves, counts = _sizes(nexts), _sizes(costs)
            targets = _numbers("next" + side, nexts, moves)
            costs = _numbers("cost" + side, costs, counts)
            if not (moves.shape == counts.shape and np.all((moves > 0) & (moves == counts))):
                raise ValueError("each state needs matching nonempty move/cost lists")
            _refuse_targets("next" + side, targets, size, moves)
            _refuse("cost" + side, np.isfinite(costs), "must be finite", moves)
            fields.update({"moves" + side: moves, "targets" + side: targets.astype(int),
                           "costs" + side: costs})
        if not 0.0 < alpha < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    next1 = cached_property(lambda self: _runs(self.targets1, self.moves1))
    cost1 = cached_property(lambda self: _runs(self.costs1, self.moves1))
    next2 = cached_property(lambda self: _runs(self.targets2, self.moves2))
    cost2 = cached_property(lambda self: _runs(self.costs2, self.moves2))


def _sure_moves(moves, targets, costs, scale, pad):
    """A half-stage whose every move has one sure outcome."""
    return HalfStage.from_ragged(moves, np.ones(targets.size, dtype=int),
                                 np.ones(targets.size), costs, targets, scale, pad)


def separated_model_to_problem(model):
    """Tabulate an alternating-move control model as a separated problem:
    one sure outcome per move, both sides scaled by the discount."""
    stage1 = _sure_moves(model.moves1, model.targets1, model.costs1, model.alpha, np.inf)
    stage2 = _sure_moves(model.moves2, model.targets2, model.costs2, model.alpha, -np.inf)
    return TabularProblem(space1=model.space1, space2=model.space2,
                          stage1=stage1, stage2=stage2)


# ---------------------------------------------------------------------------
# Minimax control over one state space (optionally with random disturbances)
# ---------------------------------------------------------------------------


def _list_faults(counts, empty, not_list, *levels):
    """``(walk key, error)`` of the first empty list and of the first item
    that is not a list, if any; ``counts`` are the items' :func:`_sizes`,
    ``levels`` as in :func:`_owners`."""
    return [(tuple(_owners(i, *levels)), ValueError(message))
            for i, message in ((_first(counts == 0), empty), (_first(counts < 0), not_list))
            if i is not None]


@dataclass(frozen=True, init=False)
class MinimaxControlModel:
    """Discounted control against an antagonist choosing after the controller.

    ``outcomes[x][u][v]`` lists (probability, stage cost, next state)
    triples; a single triple with probability one is the deterministic
    case, several triples fold a finite stochastic disturbance into exact
    expectations.

    The model is held flat: ``controls[x]`` counts the controls u of x,
    ``moves[p]`` the adversary moves v of the p-th pair (x, u), and
    ``branches[c]`` the triples of the c-th cell (x, u, v), each in that
    order; ``triples`` is the (n, 3) array of all triples.  ``outcomes`` is
    the nested view of those arrays, built when first read.
    """

    space: WeightedSpace
    alpha: float
    controls: np.ndarray
    moves: np.ndarray
    branches: np.ndarray
    triples: np.ndarray

    def __init__(self, space, outcomes, alpha):
        if len(outcomes) != space.size:
            raise ValueError("need outcome lists for every state")
        controls = _sizes(outcomes)
        pairs = list(chain.from_iterable(compress(outcomes, controls > 0)))
        moves = _sizes(pairs)
        cells = list(chain.from_iterable(compress(pairs, moves > 0)))
        branches = _sizes(cells)
        rows = list(chain.from_iterable(compress(cells, branches > 0)))
        widths = _sizes(rows)
        # Faults met per state, pair or cell, in the order a walk over the
        # nested lists meets them: keyed by (state, pair, cell) indices.
        faults = _list_faults(controls, "every state needs at least one control",
                              "every state needs a list of controls")
        np.maximum(controls, 0, out=controls)
        faults += _list_faults(moves, "every (state, control) needs an adversary move",
                               "every (state, control) needs a list of adversary moves",
                               controls)
        np.maximum(moves, 0, out=moves)
        # a cell is read up to the first that is not a list of triples
        bad = branches < 0
        bad[~bad] = _per_run(np.logical_or, widths != 3, branches[~bad], False)
        c = _first(bad)
        if c is not None:
            faults.append((tuple(_owners(c, controls, moves)), InputFieldError(
                "outcomes" + _index(c, controls, moves),
                "must be a list of [probability, cost, next] triples")))
            branches = branches[:c]
        n = int(branches.sum())
        triples = _numbers("outcomes", rows[:n], widths[:n]).reshape(-1, 3)
        prob = triples[:, 0]
        # written so that a NaN probability fails too
        ok = ((np.abs(_per_run(np.add, prob, branches, 0.0) - 1.0) <= _PROB_TOL)
              & (_per_run(np.minimum, prob, branches, np.inf) >= -_PROB_TOL))
        c = _first(~ok)
        if c is not None:
            faults.append((tuple(_owners(c, controls, moves)),
                           InputFieldError("outcomes" + _index(c, controls, moves),
                                           "must be a nonnegative distribution summing to 1")))
        if faults:
            raise min(faults, key=lambda fault: fault[0])[1]
        _refuse("outcomes", np.isfinite(triples).ravel(), "must be finite",
                controls, moves, branches, np.full(len(triples), 3))
        _refuse_targets("outcomes", triples[:, 2], space.size, controls, moves, branches)
        if not 0.0 < alpha < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        for name, value in (("space", space), ("alpha", alpha), ("controls", controls),
                            ("moves", moves), ("branches", branches), ("triples", triples)):
            object.__setattr__(self, name, value)

    @cached_property
    def outcomes(self):
        cells = _runs(self.triples, self.branches)
        return _runs(_runs(cells, self.moves), self.controls)

    def contraction_factor(self):
        """Weighted modulus of the fixed-policy stage operator: alpha times
        the largest weighted outcome mass of a cell."""
        w, (prob, _, nxt) = self.space.weights, self.triples.T
        mass = _per_run(np.add, prob * w[nxt.astype(int)], self.branches, 0.0)
        return self.alpha * float(np.max(mass / np.repeat(w, self.controls).repeat(self.moves)))


def minimax_control_to_problem(model, beta=None):
    """Split minimax control into half-stages over explicit (x, u) pair states.

    The minimizer's move u at x leads surely to pair state (x, u), numbered
    in (x, u) order, read at scale 1/beta; the maximizer's move v at a pair
    draws the model's outcome triples, scaled by alpha*beta; the split is
    :func:`split_beta`'s.
    """
    beta = split_beta(model, beta)
    pairs, triples = model.moves.size, model.triples
    ab = model.alpha * beta
    stage1 = HalfStage.from_ragged(model.controls, np.ones(pairs, dtype=int),
                                   np.ones(pairs), np.zeros(pairs),
                                   np.arange(pairs), 1.0 / beta, np.inf)
    stage2 = HalfStage.from_ragged(model.moves, model.branches,
                                   triples[:, 0], triples[:, 1],
                                   triples[:, 2].astype(int), ab, -np.inf)
    space2 = WeightedSpace(pairs, np.repeat(model.space.weights, model.controls))
    return TabularProblem(space1=model.space, space2=space2, stage1=stage1, stage2=stage2)

