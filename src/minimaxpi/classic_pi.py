"""Classical policy-iteration baselines and the oscillation they can exhibit.

Two families: the safe-but-expensive scheme whose evaluation solves the
opponent's full decision problem per iteration (Hoffman-Karp, on any
half-stage problem, with the certified loop of :mod:`minimaxpi.core`),
and the cheap all-pairs scheme (exact or optimistic evaluation) that
amounts to Newton's method on the value equation and may cycle between
policy pairs instead of converging.  Both all-pairs methods, on Markov
games and on separated problems, run one loop that owns the residuals
and the cycle test.  A fixed 2x2 one-state game, on which that scheme
cycles with period 2, is the oscillating instance.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (_EVAL_SWEEPS, PolicyPair, ValueTable, _iterate, _sweep, check_floor,
                   check_tol, rounding_floor)
from .matrix_game import solve_matrix_game
from .models import DiscountedMarkovGame, stage_matrix


class PIStatus(Enum):
    CONVERGED = "Converged"
    CYCLED = "Cycled"
    MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class PIResult:
    values: object
    iterations: int
    status: PIStatus
    cycle_length: int | None
    residuals: tuple


def detect_cycle(policy_history):
    """Smallest lag p >= 1 at which the latest policy signature repeats,
    or None when no repeat exists."""
    for p in range(1, len(policy_history)):
        if policy_history[-1 - p] == policy_history[-1]:
            return p
    return None


def _strategy_signature(mu, nu):
    # LP outputs are deterministic, so rounded strategies compare exactly
    return (
        tuple(map(tuple, np.round(np.atleast_2d(mu), 9))),
        tuple(map(tuple, np.round(np.atleast_2d(nu), 9))),
    )


def _saddle_sweep(game, j):
    """Saddle strategies of every state's stage game against continuation j."""
    sol = solve_matrix_game(stage_matrix(game, slice(None), j))
    return sol.u_star, sol.v_star


def hoffman_karp(problem, tol=1e-8, max_iters=10**4):
    """Hoffman-Karp policy iteration on any half-stage problem.

    Each iteration is one greedy composite sweep from J1 (zero at first).
    Its certificate (:func:`minimaxpi.core.certify`'s) stops the run once
    the bound is at most tol; else its minimizer picks mu are priced
    against the maximizer's best response, ``J1 <- T1^mu(T2 J1)`` iterated
    from the current J1 until certified within tol/10 or held by its floor.
    J1 after each evaluation is then nonincreasing up to twice that, so no
    cycle handling is needed; the sweeps follow :func:`~minimaxpi.core.check_floor`.
    ``max_iters`` counts iterations; each evaluation may take up to
    ``_EVAL_SWEEPS`` sweeps.  ``values`` is the last sweep's estimate on
    convergence, else the last evaluated J1; ``residuals[k]`` is the k-th sweep's r.
    """
    check_tol(tol)
    j1, residuals = problem.zero1(), []
    for t in range(1, max_iters + 1):
        estimate, bound, r, _, mu, floor = _sweep(problem, j1, None)
        residuals.append(r)
        if bound <= tol:
            return PIResult(estimate, t, PIStatus.CONVERGED, None, tuple(residuals))
        check_floor("Hoffman-Karp", f"iteration {t}", bound, tol, r, floor)
        j1 = _iterate(problem, j1, tol / 10, _EVAL_SWEEPS, PolicyPair(mu, None),
                      floor_ends=True).j1
    return PIResult(j1, max_iters, PIStatus.MAX_ITERS, None, tuple(residuals))


def _check_optimistic_k(optimistic_k):
    """Refuse zero sweeps, which evaluate nothing and would stop at once."""
    if optimistic_k is not None and optimistic_k < 1:
        raise ValueError(f"optimistic_k must be at least 1, got {optimistic_k}")


def _evaluate_pair(game, mu, nu, optimistic_k, j0):
    probs = np.einsum("xi,xijy,xj->xy", mu, game.transitions, nu)
    costs = np.einsum("xi,xij,xj->x", mu, game.payoffs, nu)
    if optimistic_k is None:
        return np.linalg.solve(np.eye(game.state_count) - game.alpha * probs, costs)
    j = j0.copy()
    for _ in range(optimistic_k):
        j = costs + game.alpha * probs @ j
    return j


def _all_pairs(loop, step, values, dist, floor, tol, max_iters):
    """All-pairs policy iteration from ``values``; ``step(values)`` improves
    and then evaluates, returning ``(policies, new values)``.

    Stops when a step moves the values by at most tol (``dist``), and at a
    cycle: a policy pair that recurs at a lag p >= 2 with values within tol
    of their earlier visit.  Before that, :func:`~minimaxpi.core.check_floor`
    applies to the values' rounding floor, ``floor(values)``.
    """
    residuals, sigs, hist = [], [], []
    for t in range(1, max_iters + 1):
        policies, new = step(values)
        residuals.append(dist(new, values))
        values = new
        check_floor(loop, f"iteration {t}", None, tol, residuals[-1], floor(values), "its values")
        if residuals[-1] <= tol:
            return PIResult(values, t, PIStatus.CONVERGED, None, tuple(residuals))
        sigs.append(_strategy_signature(policies.mu, policies.nu))
        hist.append(values)
        p = detect_cycle(sigs)
        if p is not None and p >= 2 and dist(values, hist[-1 - p]) <= tol:
            return PIResult(values, t, PIStatus.CYCLED, p, tuple(residuals))
    return PIResult(values, max_iters, PIStatus.MAX_ITERS, None, tuple(residuals))


def pollatschek_avi_itzhak(game, tol=1e-8, max_iters=10**4, optimistic_k=None):
    """All-pairs policy iteration: saddle improvement, then pair evaluation.

    Evaluation solves the linear fixed point of the current policy pair
    (or runs ``optimistic_k`` value-iteration sweeps).  Fast when it
    converges, but the underlying Newton iteration may oscillate; a
    repeated (policies, values) state is reported as a cycle.  Values J
    have the rounding floor ``4 eps |J| / (1 - contraction_factor())``.
    """
    def step(j):
        mu, nu = _saddle_sweep(game, j.values)
        new = _evaluate_pair(game, mu, nu, optimistic_k, j.values)
        return PolicyPair(mu, nu), ValueTable(game.space, new)

    per_norm = 4 * np.finfo(float).eps / (1.0 - game.contraction_factor())
    check_tol(tol)
    _check_optimistic_k(optimistic_k)
    return _all_pairs("Pollatschek-Avi-Itzhak", step, ValueTable.zeros(game.space),
                      ValueTable.diff_norm, lambda j: per_norm * j.norm(),
                      tol, max_iters)


def naive_separated_pi(problem, tol=1e-8, max_iters=10**4, optimistic_k=None):
    """All-pairs policy iteration on a separated problem, without safeguards.

    Greedy improvement against the last evaluated tables followed by joint
    evaluation of the new pair, which ends at its rounding floor if that
    exceeds tol/10.  Shares the oscillation risk of the all-pairs scheme,
    and its loop; tables ``(J1, J2)`` have J1's
    :func:`~minimaxpi.core.rounding_floor`.
    """
    def step(tables):
        j1, j2 = tables
        _, mu = problem.t1_greedy(j2)
        _, nu = problem.t2_greedy(j1, mu)
        policies = PolicyPair(mu, nu)
        if optimistic_k is None:
            return policies, problem.joint_policy_fixed_point(policies, tol / 10, j1)
        for _ in range(optimistic_k):
            j1, j2 = problem.t1_policy(mu, j2), problem.t2_policy(nu, j1)
        return policies, (j1, j2)

    def dist(a, b):
        return max(a[0].diff_bound(b[0]), a[1].diff_bound(b[1]))

    check_tol(tol)
    _check_optimistic_k(optimistic_k)
    return _all_pairs("naive policy iteration", step, (problem.zero1(), problem.zero2()),
                      dist, lambda tables: rounding_floor(problem, tables[0].norm()),
                      tol, max_iters)


# ---------------------------------------------------------------------------
# The oscillating instance
# ---------------------------------------------------------------------------

# a 2x2 one-state game: stage payoffs and per-pair effective discounts
_CYCLE_PAYOFFS = ((0, -1), (-2, -1))
_CYCLE_DISCOUNTS = ((0.8, 0.8), (0.2, 0.7))
_ENCODE_ALPHA = 0.9


def find_oscillating_game():
    """The 2x2 one-state terminating game on which all-pairs PI cycles,
    each discount p encoded at alpha 0.9 as transition mass ``p / 0.9``,
    and the report of one :func:`pollatschek_avi_itzhak` run on it.
    """
    g = np.array(_CYCLE_PAYOFFS, dtype=float)
    p = np.array(_CYCLE_DISCOUNTS, dtype=float)
    game = DiscountedMarkovGame(g.reshape(1, 2, 2), (p / _ENCODE_ALPHA).reshape(1, 2, 2, 1),
                                _ENCODE_ALPHA, terminating=True)
    exact = pollatschek_avi_itzhak(game, tol=1e-9, max_iters=300)
    # one more improvement+evaluation from the cycle maps onto its other point
    here = exact.values.values
    there = _evaluate_pair(game, *_saddle_sweep(game, here), None, here)
    report = {
        "payoffs": g.tolist(),
        "stage_discounts": p.tolist(),
        "cycle_length": exact.cycle_length,
        "cycling_values": sorted((float(here[0]), float(there[0]))),
    }
    return game, report
