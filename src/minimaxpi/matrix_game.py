"""Exact matrix games and the epigraph LP behind them, batched.

Two entry points, both taking leading batch axes and solving every
instance of a batch through one code path (a single instance is the batch
of one, bit for bit, and an instance's answer never depends on which
instances share its batch):

* :func:`min_simplex_max_linear` minimizes a pointwise max of affine
  functions over the probability simplex, ``min_u max_l (offset_l +
  u'coeffs_l)`` with ``coeffs`` of shape (..., L, n) and ``offsets`` of
  shape (..., L).  This is the minimizer's policy-improvement subproblem
  when strategies are mixed, and the exact gap between column bundles.
* :func:`solve_matrix_game` solves ``min_u max_v u'Mv`` for ``M`` of shape
  (..., n, m), with optimal strategies for both players.

Each instance is normalized before it is solved: the offsets fold into the
coefficients (the strategy sums to 1), and a shift and scale map its
entries onto [0, 1]; the value maps back affinely.  So every tolerance
below is relative to the instance's spread, and ``val(a*M + b)`` is
``a*val(M) + b`` for any a > 0.  An instance with C(n+L, n) - 1 candidate
vertices at most ``_ENUM_BUDGET`` (every workload's size) is solved by
exact vertex enumeration, all candidates of a whole batch in one numpy
call; a larger one by a dense two-phase simplex on the normalized LP,
with Bland's rule keeping pivoting deterministic and cycle-free.  The
reported value is the one the returned (clipped) strategy attains.
Nothing falls back silently: a failed simplex raises
:class:`LPNumericalFailure` naming the instance's shape and spread.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import LPNumericalFailure

_EPS = 1e-11
_ENTER_TOL = 1e-9
# candidate vertices per instance up to which enumeration is used.  Measured
# per instance on a 2-core box (numpy 2.4, batches of 1 and 10): 3 lines over
# 3 strategies (19 candidates) 40-140 us against the simplex's 290-500 us; 6
# over 3 (83) 130-220 us against 360-470 us; 6 over 4 (209) about even at
# ~0.5 ms; 5 over 5 (251) 1.4x the simplex, 6 over 6 (923) 5.7x
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


def clean_strategy(p, tol=1e-9):
    """Clamp tiny negatives to zero and renormalize to a probability vector."""
    p = np.asarray(p, dtype=float)
    if np.min(p) < -1e-6 or abs(p.sum() - 1.0) > 1e-6:
        raise LPNumericalFailure(f"strategy far from the simplex: {p}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, ncols, max_pivots):
    for _ in range(max_pivots):
        reduced = tableau[-1, :ncols]
        entering = np.nonzero(reduced < -_ENTER_TOL)[0]
        progressed = False
        for col in entering:  # Bland: lowest eligible index first
            column = tableau[:-1, int(col)]
            rows = np.nonzero(column > _EPS)[0]
            if rows.size == 0:
                # tiny pivots can amplify float noise into spurious negative
                # reduced costs; only a clearly negative one means unbounded
                if reduced[col] < -1e-6:
                    raise LPNumericalFailure("LP is unbounded; malformed input")
                continue
            ratios = tableau[rows, -1] / tableau[rows, int(col)]
            best = ratios.min()
            ties = rows[ratios <= best + 1e-10]
            row = int(min(ties, key=lambda r: basis[r]))
            _pivot(tableau, basis, row, int(col))
            progressed = True
            break
        if not progressed:
            return
    raise LPNumericalFailure("pivot budget exhausted; simplex failed to terminate")


def simplex_solve(c, A, b):
    """Solve min c'x s.t. Ax = b, x >= 0 with a dense two-phase simplex.

    Returns (x, objective).  Raises :class:`LPNumericalFailure` on
    infeasible or unbounded inputs, which for this library's internally
    generated LPs signals ill-conditioned payoffs.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1
    b[flip] *= -1

    max_pivots = 1000 + 50 * (m + n)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(n, n + m))
    # phase-1 reduced costs for the all-artificial basis
    tableau[m, n : n + m] = 1.0
    tableau[m] -= tableau[:m].sum(axis=0)
    _run_simplex(tableau, basis, n + m, max_pivots)
    if -tableau[m, -1] > 1e-8:
        raise LPNumericalFailure("LP is infeasible; malformed input")

    # drive leftover artificials out of the basis (or drop redundant rows)
    keep = []
    for r in range(m):
        if basis[r] >= n:
            pivots = np.nonzero(np.abs(tableau[r, :n]) > _EPS)[0]
            if pivots.size == 0:
                continue  # redundant constraint
            _pivot(tableau, basis, r, int(pivots[0]))
        keep.append(r)
    rows = keep + [m]
    tableau = tableau[rows][:, list(range(n)) + [n + m]]
    basis = [basis[r] for r in keep]

    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for r, var in enumerate(basis):
        coef = tableau[-1, var]
        if abs(coef) > _EPS:
            tableau[-1] -= coef * tableau[r]
    _run_simplex(tableau, basis, n, max_pivots)

    x = np.zeros(n)
    for r, var in enumerate(basis):
        x[var] = tableau[r, -1]
    return x, float(-tableau[-1, -1])


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
    """One dense simplex per instance of a normalized (B, L, n) batch.

    Epigraph LP of each instance, with the level z shifted to w = z - lo
    >= 0 (every feasible level is at least the largest per-line minimum
    lo): columns [u, w, slacks], rows u'c_l - w + s_l = lo and sum(u) = 1.
    """
    batch, n_lines, n = coeffs.shape
    out = np.empty((batch, n))
    A = np.zeros((n_lines + 1, n + 1 + n_lines))
    A[:n_lines, n] = -1.0
    A[:n_lines, n + 1 :] = np.eye(n_lines)
    A[n_lines, :n] = 1.0
    c = np.zeros(n + 1 + n_lines)
    c[n] = 1.0
    for k, inst in enumerate(coeffs):
        A[:n_lines, :n] = inst
        lo = float(np.max(inst.min(axis=1)))
        try:
            x, obj = simplex_solve(c, A, np.r_[np.full(n_lines, lo), 1.0])
            out[k] = clean_strategy(x[:n])
            if abs(float(np.max(inst @ out[k])) - (obj + lo)) > 1e-7:
                raise LPNumericalFailure("simplex solution failed its certificate")
        except LPNumericalFailure as exc:
            raise LPNumericalFailure(
                f"{exc} ({n_lines} lines over {n} strategies, "
                f"payoff spread {spread[k]:.3e})") from exc
    return out


def min_simplex_max_linear(coeffs, offsets=None):
    """Minimize max_l (offset_l + u'coeffs_l) over the probability simplex.

    ``coeffs`` has shape (..., L, n): L lines over n strategies per
    instance; ``offsets`` (..., L) defaults to zero.  Returns (value,
    u_star) with the batch shape and (..., n); a float value for a single
    instance.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim < 2 or 0 in coeffs.shape[-2:]:
        raise ValueError("need at least one line over at least one strategy")
    if offsets is not None:
        coeffs = coeffs + np.asarray(offsets, dtype=float)[..., None]
    *batch, n_lines, n = coeffs.shape
    flat = coeffs.reshape(-1, n_lines, n)
    lo = flat.min(axis=(1, 2))
    spread = flat.max(axis=(1, 2)) - lo
    unit = (flat - lo[:, None, None]) / np.where(spread > 0, spread, 1.0)[:, None, None]
    if comb(n + n_lines, n) - 1 <= _ENUM_BUDGET:
        level, u = _enumerate_min_max(unit)
    else:
        u = _simplex_min_max(unit, spread)
        level = (u[:, None, :] * unit).sum(axis=-1).max(axis=-1)
    value = (lo + spread * level).reshape(batch)
    return (float(value) if not batch else value), u.reshape(*batch, n)


def solve_matrix_game(M, tol=1e-8):
    """Solve min_u max_v u'Mv over mixed strategies; u indexes rows.

    ``M`` has shape (..., n, m).  Pure saddles are read off directly
    (lowest-index arg ties); the other games solve both players' epigraph
    LPs, and their values must agree to ``tol`` times the payoff spread
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
        allowed = tol * (hi - lo) + 4 * _ULP * np.maximum(np.abs(hi), np.abs(lo))
        worst = int(np.argmax(gap - allowed))
        if gap[worst] > allowed[worst]:
            raise LPNumericalFailure(
                f"duality gap {gap[worst]:.3e} exceeds {tol:g} x payoff spread "
                f"{hi[worst] - lo[worst]:.3e} on a {n}x{m} game")
        value[mixed] = value_min
    value = value.reshape(batch)
    return SaddleSolution(float(value) if not batch else value,
                          u.reshape(*batch, n), v.reshape(*batch, m))


def best_response_value(M, u):
    """The maximizer's best pure response to a mixed row strategy.

    Returns (value, column index), lowest index on ties.
    """
    scores = np.asarray(u, dtype=float) @ np.asarray(M, dtype=float)
    j = int(np.argmax(scores))
    return float(scores[j]), j
