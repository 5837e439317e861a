"""Exact matrix games and the epigraph LP behind them, batched.

Two entry points, both taking leading batch axes and solving every
instance of a batch through one code path (a single instance is the batch
of one, bit for bit, and an instance's answer never depends on which
instances share its batch):

* :func:`min_simplex_max_linear` minimizes a pointwise max of linear
  functions over the probability simplex, ``min_u max_l u'coeffs_l`` with
  ``coeffs`` of shape (..., L, n).  This is the minimizer's
  policy-improvement subproblem when strategies are mixed, and the exact
  gap between column bundles.
* :func:`solve_matrix_game` solves ``min_u max_v u'Mv`` for ``M`` of shape
  (..., n, m), with optimal strategies for both players.

Each instance is normalized before it is solved: a shift and scale map its
entries onto [0, 1]; the value maps back affinely.  So every tolerance
below is relative to the instance's spread, and ``val(a*M + b)`` is
``a*val(M) + b`` for any a > 0.  An instance with C(n+L, n) - 1 candidate
vertices at most ``_ENUM_BUDGET`` (every workload's size) is solved by
exact vertex enumeration, all candidates of a whole batch in one numpy
call; a larger one by a single-phase simplex on the positive game, every
instance of the batch pivoting by Bland's rule in lockstep, each answer
certified two-sided from its own final tableau.  The reported value is
the one the returned strategy attains.  Nothing falls back silently: an
answer that fails its certificate raises :class:`LPNumericalFailure`
naming the instance's shape and spread.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import LPNumericalFailure

# simplex: reduced costs below -_ENTER_TOL enter (stopping far inside the
# 1e-9 x spread accuracy the layer is tested to), column entries above
# _PIVOT_TOL may pivot, and an answer's certified gap (normalized) is at most
# _CERTIFY; the two players' values of a mixed game agree to _DUALITY
_ENTER_TOL = 1e-13
_PIVOT_TOL = 1e-13
_CERTIFY = 1e-8
_DUALITY = 1e-8
# simplex passes, each ended by rebuilding the tableau from the instance's data
_PASSES = 8
# candidate vertices per instance up to which enumeration is used.  Measured
# per call on a 2-core box (numpy 2.4, uniform instances), 6 lines over 3
# strategies (83 candidates): enumeration 150 us against the simplex's 230 us
# at batch 1, but 1.2 ms against 0.42 ms at batch 10
_ENUM_BUDGET = 200
# |det| of a normalized vertex system below which it counts as singular
_SINGULAR = 1e-13
# candidates within this (normalized) distance of the best tie; first wins
_TIE = 1e-12
_ULP = np.finfo(float).eps


@dataclass(frozen=True)
class SaddleSolution:
    """Game values with optimal mixed strategies for both players.

    For a batch of games, ``value`` has the batch shape and the strategies
    one more axis; for a single game ``value`` is a float.
    """

    value: float
    u_star: np.ndarray
    v_star: np.ndarray


@lru_cache(maxsize=None)
def _candidate_rows(n, n_lines):
    """Rows of the constraint table that pin each candidate vertex.

    The table has n rows u_i = 0, then one row per line (u'c_l = w), then
    the simplex row; a candidate picks n of the first n + n_lines rows
    (all but the all-zeros pick) plus the simplex row.  Candidates with
    fewer active lines come first, so pure strategies lead; within a line
    count, lower strategy indices come first.
    """
    picks = []
    for k in range(1, min(n, n_lines) + 1):
        for free in itertools.combinations(range(n), k):
            zeros = [i for i in range(n) if i not in free]
            for lines in itertools.combinations(range(n, n + n_lines), k):
                picks.append(zeros + list(lines) + [n + n_lines])
    picks = np.array(picks, dtype=np.intp)
    picks.setflags(write=False)   # cached: shared by every call
    return picks


def _enumerate_min_max(coeffs):
    """Exact vertex enumeration of min_u max_l u'coeffs_l over a batch.

    ``coeffs`` has shape (B, L, n).  Every optimum sits at a vertex of the
    epigraph, pinned by n of the constraints u_i = 0 and u'c_l = w plus
    the simplex row; all C(n+L, n) - 1 such systems of all instances are
    gathered, tested for singularity and solved in one call each.  Each
    candidate's strategy is clipped onto the simplex and scored by the
    level it attains, an upper bound on the optimum that is exact at the
    optimal vertex; the first candidate within ``_TIE`` of the best wins.
    Returns (attained values (B,), strategies (B, n)).
    """
    batch, n_lines, n = coeffs.shape
    table = np.zeros((batch, n + n_lines + 1, n + 1))
    table[:, :n, :n] = np.eye(n)
    table[:, n : n + n_lines, :n] = coeffs
    table[:, n : n + n_lines, n] = -1.0
    table[:, -1, :n] = 1.0
    systems = table[:, _candidate_rows(n, n_lines)]
    rhs = np.zeros((n + 1, 1))
    rhs[-1] = 1.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        regular = np.abs(np.linalg.det(systems)) > _SINGULAR
        systems[~regular] = np.eye(n + 1)
        points = np.linalg.solve(systems, np.broadcast_to(rhs, systems.shape[:-1] + (1,)))
        u = np.clip(points[..., :n, 0], 0.0, None)
        u /= u.sum(axis=-1, keepdims=True)
        levels = (u[:, :, None, :] * coeffs[:, None, :, :]).sum(axis=-1).max(axis=-1)
    levels[~(regular & np.isfinite(levels))] = np.inf
    best = levels.min(axis=1, keepdims=True)
    if not np.all(np.isfinite(best)):
        raise LPNumericalFailure("vertex enumeration found no regular vertex")
    first = np.argmax(levels <= best + _TIE, axis=1)
    rows = np.arange(batch)
    return levels[rows, first], u[rows, first]


def _simplex_min_max(coeffs, spread):
    """Single-phase simplex of every instance of a normalized (B, L, n)
    batch, all pivoting in lockstep.

    Shifted into [1, 2], an instance is a positive game, so ``max 1'x s.t.
    C x <= 1, x >= 0`` (C the (L, n) lines) is feasible at the slack basis
    and bounded; at its optimum ``u = x / 1'x`` (Dantzig 1951).  Each
    instance pivots by Bland's rule (Bland 1977: lowest entering column,
    ratio-test ties to the lowest basic index) until it stops; then its
    tableau is rebuilt from its own data at the basis reached, free of the
    rounding the pivots left, and pivoting resumes from it, for at most
    ``_PASSES`` passes.  The objective row prices the slack columns at the
    lines' dual weights ``w``, which certifies the answer two-sided:
    ``max_l u'c_l - min_i w'c_i`` bounds its error; a rebuilt tableau is
    kept only where it is certified no worse.
    Returns (attained values (B,), strategies (B, n)).
    """
    batch, n_lines, n = coeffs.shape
    width = n + n_lines
    start = np.zeros((batch, n_lines + 1, width + 1))
    start[:, :-1, :n] = coeffs + 1.0
    start[:, :-1, n:width] = np.eye(n_lines)
    start[:, :-1, -1] = 1.0
    start[:, -1, :n] = -1.0
    tab, basis = start.copy(), np.tile(np.arange(n, width), (batch, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_PASSES):
            live = np.arange(batch)
            for step in range(50 * width):
                t = tab[live]
                enters = t[:, -1, :width] < -_ENTER_TOL
                col = np.argmax(enters, axis=1)
                column = t[np.arange(live.size), :-1, col]
                # a basic value rounded below 0 counts as 0
                ratio = np.where(column > _PIVOT_TOL, np.maximum(t[:, :-1, -1], 0.0) / column,
                                 np.inf)
                best = ratio.min(axis=1, keepdims=True)
                row = np.argmin(np.where(ratio <= best, basis[live], width), axis=1)
                # optimal instances stop, and so does one without a pivot row:
                # its certificate judges it
                go = np.flatnonzero(enters.any(axis=1) & np.isfinite(best[:, 0]))
                if not go.size:
                    break
                live, t, col, row = live[go], t[go], col[go], row[go]
                k = np.arange(live.size)
                pivot = t[k, row] / t[k, row, col][:, None]
                t -= t[k, :, col][:, :, None] * pivot[:, None, :]
                t[k, row] = pivot
                tab[live] = t
                basis[live, row] = col
            if step == 0:   # no pivot since the last rebuild
                break
            # B^-1 [A | 1] and c_B B^-1 [A | 1] - c, at a basis the rounding
            # has not made singular
            system = np.take_along_axis(start[:, :-1, :-1], basis[:, None, :], axis=2)
            ok = np.abs(np.linalg.det(system)) > _SINGULAR
            new = tab.copy()
            new[ok, :-1] = np.linalg.solve(system[ok], start[ok, :-1])
            new[ok, -1] = start[ok, -1] + ((basis[ok] < n)[:, None, :] @ new[ok, :-1])[:, 0]
            level, floor, _ = _certified(new, basis, coeffs)
            old_level, old_floor, _ = _certified(tab, basis, coeffs)
            keep = ~(level - floor <= old_level - old_floor)
            new[keep] = tab[keep]
            tab = new
        level, floor, u = _certified(tab, basis, coeffs)
    bad = np.flatnonzero(~(level - floor <= _CERTIFY))
    if bad.size:
        raise LPNumericalFailure(
            f"simplex answer failed its certificate (gap {level[bad[0]] - floor[bad[0]]:.3e} "
            f"x spread; {n_lines} lines over {n} strategies, payoff spread "
            f"{spread[bad[0]]:.3e})")
    return level, u


def _certified(tab, basis, coeffs):
    """A simplex tableau's answer: the attained level of its strategy u,
    the floor its dual weights certify, and u."""
    batch, n_lines, n = coeffs.shape
    x = np.zeros((batch, n + n_lines))
    np.put_along_axis(x, basis, tab[:, :-1, -1], axis=1)
    x = np.clip(x[:, :n], 0.0, None)
    u = x / x.sum(axis=1, keepdims=True)
    w = np.clip(tab[:, -1, n:n + n_lines], 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    level = (u[:, None, :] * coeffs).sum(axis=-1).max(axis=-1)
    floor = (w[:, :, None] * coeffs).sum(axis=1).min(axis=-1)
    return level, floor, u


def min_simplex_max_linear(coeffs):
    """Minimize max_l u'coeffs_l over the probability simplex.

    ``coeffs`` has shape (..., L, n): L lines over n strategies per
    instance.  Returns (value, u_star) with the batch shape and (..., n);
    a float value for a single instance.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim < 2 or 0 in coeffs.shape[-2:]:
        raise ValueError("need at least one line over at least one strategy")
    *batch, n_lines, n = coeffs.shape
    flat = coeffs.reshape(-1, n_lines, n)
    lo = flat.min(axis=(1, 2))
    spread = flat.max(axis=(1, 2)) - lo
    unit = (flat - lo[:, None, None]) / np.where(spread > 0, spread, 1.0)[:, None, None]
    if comb(n + n_lines, n) - 1 <= _ENUM_BUDGET:
        level, u = _enumerate_min_max(unit)
    else:
        level, u = _simplex_min_max(unit, spread)
    value = (lo + spread * level).reshape(batch)
    return (float(value) if not batch else value), u.reshape(*batch, n)


def solve_matrix_game(M):
    """Solve min_u max_v u'Mv over mixed strategies; u indexes rows.

    ``M`` has shape (..., n, m).  Pure saddles are read off directly
    (lowest-index arg ties); the other games solve both players' epigraph
    LPs, and their values must agree to ``_DUALITY`` times the payoff spread
    (plus the rounding of numbers of the payoffs' magnitude).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.size == 0:
        raise ValueError("payoff matrices must be nonempty and at least 2-D")
    if not np.all(np.isfinite(M)):
        raise ValueError("payoff entries must be finite")
    *batch, n, m = M.shape
    flat = M.reshape(-1, n, m)
    rows = np.arange(flat.shape[0])
    row_max = flat.max(axis=2)
    col_min = flat.min(axis=1)
    i = np.argmin(row_max, axis=1)
    j = np.argmax(col_min, axis=1)
    value = flat[rows, i, j]
    u, v = np.eye(n)[i], np.eye(m)[j]

    mixed = np.flatnonzero(row_max[rows, i] != col_min[rows, j])
    if mixed.size:
        games = flat[mixed]
        value_min, u[mixed] = min_simplex_max_linear(games.transpose(0, 2, 1))
        neg_value_max, v[mixed] = min_simplex_max_linear(-games)
        gap = np.abs(value_min + neg_value_max)
        hi, lo = games.max(axis=(1, 2)), games.min(axis=(1, 2))
        # values far from zero carry rounding of their own magnitude
        allowed = _DUALITY * (hi - lo) + 4 * _ULP * np.maximum(np.abs(hi), np.abs(lo))
        worst = int(np.argmax(gap - allowed))
        if gap[worst] > allowed[worst]:
            raise LPNumericalFailure(
                f"duality gap {gap[worst]:.3e} exceeds {_DUALITY:g} x payoff spread "
                f"{hi[worst] - lo[worst]:.3e} on a {n}x{m} game")
        value[mixed] = value_min
    value = value.reshape(batch)
    return SaddleSolution(float(value) if not batch else value,
                          u.reshape(*batch, n), v.reshape(*batch, m))
