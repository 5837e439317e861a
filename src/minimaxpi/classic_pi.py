"""Classical policy-iteration baselines and the oscillation they can exhibit.

Two families: the safe-but-expensive scheme whose evaluation solves the
opponent's full decision problem per iteration (Hoffman-Karp, on any
half-stage problem, with the certified loop of :mod:`minimaxpi.core`),
and the cheap all-pairs scheme (exact or optimistic evaluation) that
amounts to Newton's method on the value equation and may cycle between
policy pairs instead of converging.  Both all-pairs methods, on Markov
games and on separated problems, run one loop that owns the residuals
and the cycle test.  A grid search runs that scheme itself over 2x2
one-state candidates and returns the first instance on which it cycles
with period 2.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PolicyPair, ValueTable, _iterate, _sweep, check_floor
from .errors import SearchFailed
from .matrix_game import solve_matrix_game
from .models import DiscountedMarkovGame, separate_markov_game, stage_matrix

# sweeps allowed to each Hoffman-Karp evaluation: value_iterate's default
_EVAL_SWEEPS = 10**6


class PIStatus(Enum):
    CONVERGED = "Converged"
    CYCLED = "Cycled"
    MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class PIResult:
    values: object
    policies: object
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
    convergence, else the last evaluated J1; ``policies`` is ``(mu, None)``
    and ``residuals[k]`` is ``r`` of the k-th sweep.
    """
    j1, residuals, mu = problem.zero1(), [], None
    for t in range(1, max_iters + 1):
        estimate, bound, r, _, mu, floor = _sweep(problem, j1, None)
        residuals.append(r)
        if bound <= tol:
            return PIResult(estimate, PolicyPair(mu, None), t, PIStatus.CONVERGED, None,
                            tuple(residuals))
        check_floor("Hoffman-Karp", f"iteration {t}", bound, tol, r, floor)
        j1 = _iterate(problem, j1, tol / 10, _EVAL_SWEEPS, PolicyPair(mu, None),
                      floor_ends=True).j1
    return PIResult(j1, PolicyPair(mu, None), max_iters, PIStatus.MAX_ITERS, None,
                    tuple(residuals))


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


def _all_pairs(step, values, dist, tol, max_iters, stop_on_cycle):
    """All-pairs policy iteration from ``values``; ``step(values)`` improves
    and then evaluates, returning ``(policies, new values)``.

    Stops when a step moves the values by at most tol (``dist``).  A
    policy pair that recurs at a lag p >= 2 with values within tol of
    their earlier visit is a cycle: reported at once, or, with
    ``stop_on_cycle`` off, as the status after the whole budget.
    """
    residuals, sigs, hist = [], [], []
    policies = cycle = None
    for t in range(1, max_iters + 1):
        policies, new = step(values)
        residuals.append(dist(new, values))
        values = new
        if residuals[-1] <= tol:
            return PIResult(values, policies, t, PIStatus.CONVERGED, None, tuple(residuals))
        sigs.append(_strategy_signature(policies.mu, policies.nu))
        hist.append(values)
        p = detect_cycle(sigs)
        if p is not None and p >= 2 and dist(values, hist[-1 - p]) <= tol:
            if stop_on_cycle:
                return PIResult(values, policies, t, PIStatus.CYCLED, p, tuple(residuals))
            cycle = cycle or p
    status = PIStatus.MAX_ITERS if cycle is None else PIStatus.CYCLED
    return PIResult(values, policies, max_iters, status, cycle, tuple(residuals))


def pollatschek_avi_itzhak(game, tol=1e-8, max_iters=10**4,
                           optimistic_k=None, stop_on_cycle=True):
    """All-pairs policy iteration: saddle improvement, then pair evaluation.

    Evaluation solves the linear fixed point of the current policy pair
    (or runs ``optimistic_k`` value-iteration sweeps).  Fast when it
    converges, but the underlying Newton iteration may oscillate; a
    repeated (policies, values) state is reported as a cycle.
    """
    def step(j):
        mu, nu = _saddle_sweep(game, j.values)
        new = _evaluate_pair(game, mu, nu, optimistic_k, j.values)
        return PolicyPair(mu, nu), ValueTable(game.space, new)

    _check_optimistic_k(optimistic_k)
    return _all_pairs(step, ValueTable.zeros(game.space), ValueTable.diff_norm,
                      tol, max_iters, stop_on_cycle)


def _joint_evaluate(problem, policies, tol, optimistic_k, j1, j2):
    if optimistic_k is not None:
        for _ in range(optimistic_k):
            j1, j2 = (problem.t1_policy(policies.mu, j2),
                      problem.t2_policy(policies.nu, j1))
        return j1, j2
    return problem.joint_policy_fixed_point(policies, tol, j1)


def naive_separated_pi(problem, tol=1e-8, max_iters=10**4,
                       optimistic_k=None, stop_on_cycle=True):
    """All-pairs policy iteration on a separated problem, without safeguards.

    Greedy improvement against the last evaluated tables followed by joint
    evaluation of the new pair.  Shares the oscillation risk of the
    all-pairs scheme, and its loop.
    """
    def step(tables):
        j1, j2 = tables
        _, mu = problem.t1_greedy(j2)
        _, nu = problem.t2_greedy(j1, mu)
        policies = PolicyPair(mu, nu)
        return policies, _joint_evaluate(problem, policies, tol / 10, optimistic_k, j1, j2)

    def dist(a, b):
        return max(a[0].diff_bound(b[0]), a[1].diff_bound(b[1]))

    _check_optimistic_k(optimistic_k)
    return _all_pairs(step, (problem.zero1(), problem.zero2()), dist,
                      tol, max_iters, stop_on_cycle)


# ---------------------------------------------------------------------------
# Constructing an oscillating instance
# ---------------------------------------------------------------------------

_G_GRID = (-2, -1, 0, 1, 2)
_P_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
_ENCODE_ALPHA = 0.9


def _encode_candidate(g, p):
    payoffs = g.reshape(1, 2, 2)
    transitions = (p / _ENCODE_ALPHA).reshape(1, 2, 2, 1)
    return DiscountedMarkovGame(payoffs, transitions, _ENCODE_ALPHA, terminating=True)


def find_oscillating_game():
    """Grid-search a 2x2 one-state instance on which all-pairs PI cycles.

    Effective per-pair discounts live on a 0.1-step grid below 1, so every
    candidate passes the contraction screen.  Candidates are visited in a
    golden-ratio stride order; each is run through
    :func:`pollatschek_avi_itzhak` and then :func:`naive_separated_pi`,
    and the first on which the former cycles with period 2 and the latter
    cycles too is returned together with the cycle report.
    """
    g_combos = list(itertools.product(_G_GRID, repeat=4))
    p_combos = list(itertools.product(_P_GRID, repeat=4))
    total = len(g_combos) * len(p_combos)
    stride = 2_654_435_761 % total  # golden-ratio stride, coprime to the grid size
    idx = 0
    for _ in range(total):
        idx = (idx + stride) % total
        g = np.array(g_combos[idx // len(p_combos)], dtype=float).reshape(2, 2)
        p = np.array(p_combos[idx % len(p_combos)], dtype=float).reshape(2, 2)
        game = _encode_candidate(g, p)
        exact = pollatschek_avi_itzhak(game, tol=1e-9, max_iters=300)
        if exact.status is not PIStatus.CYCLED or exact.cycle_length != 2:
            continue
        naive = naive_separated_pi(separate_markov_game(game), tol=1e-9, max_iters=300)
        if naive.status is not PIStatus.CYCLED:
            continue
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
    raise SearchFailed("no cycling instance found in the grid")
