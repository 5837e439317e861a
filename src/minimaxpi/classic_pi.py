"""Classical policy-iteration baselines and the oscillation they can exhibit.

Two families: the safe-but-expensive scheme whose evaluation solves the
opponent's full decision problem per iteration, and the cheap all-pairs
scheme (exact or optimistic evaluation) that amounts to Newton's method
on the value equation and may cycle between policy pairs instead of
converging.  A grid search constructs a one-nonterminal-state instance
exhibiting a period-2 cycle.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PolicyPair, ValueTable
from .errors import MaxItersExceeded, SearchFailed
from .matrix_game import solve_matrix_game
from .models import DiscountedMarkovGame, separate_markov_game, stage_matrix

_INNER_CAP = 10**6


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


def detect_cycle(policy_history, values_converged=False):
    """Smallest lag p >= 1 at which the latest policy signature repeats.

    Returns None when the values converged (a constant tail is then
    convergence, not cycling) or when no repeat exists.
    """
    if values_converged or len(policy_history) < 2:
        return None
    latest = policy_history[-1]
    for p in range(1, len(policy_history)):
        if policy_history[-1 - p] == latest:
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


def _evaluate_vs_best_response(game, mu, tol, j0=None):
    """Value of the maximizer's decision problem against a fixed minimizer."""
    xi = game.space.weights
    acol = np.einsum("xi,xij->xj", mu, game.payoffs)
    pmat = np.einsum("xi,xijy->xjy", mu, game.transitions)
    j = np.zeros(game.state_count) if j0 is None else j0.copy()
    for _ in range(_INNER_CAP):
        new = (acol + game.alpha * pmat @ j).max(axis=1)
        res = float(np.max(np.abs(new - j) / xi))
        j = new
        if res <= tol:
            return j
    raise MaxItersExceeded("best-response evaluation did not reach tol")


def hoffman_karp(game, tol=1e-8, max_iters=10**4):
    """Alternate exact best-response evaluation with saddle-point improvement.

    Each iteration prices the current minimizer policy against an optimal
    adversary (a full inner solve), then improves by solving the per-state
    stage game.  Values decrease monotonically, so no cycle handling is
    needed.
    """
    xi = game.space.weights
    j = np.zeros(game.state_count)
    residuals = []
    mu = nu = None
    for t in range(1, max_iters + 1):
        mu, nu = _saddle_sweep(game, j)
        new = _evaluate_vs_best_response(game, mu, tol / 10, j0=j)
        res = float(np.max(np.abs(new - j) / xi))
        residuals.append(res)
        j = new
        if res <= tol:
            return PIResult(ValueTable(game.space, j), (mu, nu), t,
                            PIStatus.CONVERGED, None, tuple(residuals))
    return PIResult(ValueTable(game.space, j), (mu, nu), max_iters,
                    PIStatus.MAX_ITERS, None, tuple(residuals))


def _evaluate_pair(game, mu, nu, optimistic_k, j0):
    probs = np.einsum("xi,xijy,xj->xy", mu, game.transitions, nu)
    costs = np.einsum("xi,xij,xj->x", mu, game.payoffs, nu)
    if optimistic_k is None:
        return np.linalg.solve(np.eye(game.state_count) - game.alpha * probs, costs)
    j = j0.copy()
    for _ in range(optimistic_k):
        j = costs + game.alpha * probs @ j
    return j


def pollatschek_avi_itzhak(game, tol=1e-8, max_iters=10**4,
                           optimistic_k=None, stop_on_cycle=True):
    """All-pairs policy iteration: saddle improvement, then pair evaluation.

    Evaluation solves the linear fixed point of the current policy pair
    (or runs ``optimistic_k`` value-iteration sweeps).  Fast when it
    converges, but the underlying Newton iteration may oscillate; a
    repeated (policies, values) state is reported as a cycle.
    """
    xi = game.space.weights
    j = np.zeros(game.state_count)
    residuals, sigs, j_hist = [], [], []
    cycle = None
    mu = nu = None
    for t in range(1, max_iters + 1):
        mu, nu = _saddle_sweep(game, j)
        new = _evaluate_pair(game, mu, nu, optimistic_k, j)
        res = float(np.max(np.abs(new - j) / xi))
        residuals.append(res)
        j = new
        if res <= tol:
            return PIResult(ValueTable(game.space, j), (mu, nu), t,
                            PIStatus.CONVERGED, None, tuple(residuals))
        sigs.append(_strategy_signature(mu, nu))
        j_hist.append(j)
        p = detect_cycle(sigs)
        if p is not None and p >= 2 \
                and float(np.max(np.abs(j - j_hist[-1 - p]) / xi)) <= tol:
            cycle = p if cycle is None else cycle
            if stop_on_cycle:
                return PIResult(ValueTable(game.space, j), (mu, nu), t,
                                PIStatus.CYCLED, p, tuple(residuals))
    if cycle is not None:
        return PIResult(ValueTable(game.space, j), (mu, nu), max_iters,
                        PIStatus.CYCLED, cycle, tuple(residuals))
    return PIResult(ValueTable(game.space, j), (mu, nu), max_iters,
                    PIStatus.MAX_ITERS, None, tuple(residuals))


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
    all-pairs scheme; cycles are detected the same way.
    """
    j1, j2 = problem.zero1(), problem.zero2()
    residuals, sigs, hist = [], [], []
    cycle = None
    policies = problem.first_policies()
    for t in range(1, max_iters + 1):
        _, mu = problem.t1_greedy(j2)
        _, nu = problem.t2_greedy(j1, mu)
        policies = PolicyPair(mu, nu)
        n1, n2 = _joint_evaluate(problem, policies, tol / 10, optimistic_k, j1, j2)
        res = max(j1.diff_bound(n1), j2.diff_bound(n2))
        residuals.append(res)
        j1, j2 = n1, n2
        if res <= tol:
            return PIResult((j1, j2), policies, t,
                            PIStatus.CONVERGED, None, tuple(residuals))
        sigs.append(_strategy_signature(policies.mu, policies.nu))
        hist.append((j1, j2))
        p = detect_cycle(sigs)
        if p is not None and p >= 2:
            o1, o2 = hist[-1 - p]
            if max(j1.diff_bound(o1), j2.diff_bound(o2)) <= tol:
                cycle = p if cycle is None else cycle
                if stop_on_cycle:
                    return PIResult((j1, j2), policies, t,
                                    PIStatus.CYCLED, p, tuple(residuals))
    status = PIStatus.CYCLED if cycle is not None else PIStatus.MAX_ITERS
    return PIResult((j1, j2), policies, max_iters, status, cycle, tuple(residuals))


# ---------------------------------------------------------------------------
# Constructing an oscillating instance
# ---------------------------------------------------------------------------

_G_GRID = (-2, -1, 0, 1, 2)
_P_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
_ENCODE_ALPHA = 0.9


def _screen_candidate(g, p, iters=60):
    """Cheap pure-pair orbit test for a period-2 all-pairs PI cycle.

    Plain-float arithmetic on the 2x2 instance; rejects trajectories that
    settle, leave the pure-saddle regime, or fail to alternate.
    """
    (g11, g12), (g21, g22) = g
    (p11, p12), (p21, p22) = p
    j = 0.0
    prev_pair = prev2_pair = None
    prev_j = prev2_j = None
    for _ in range(iters):
        m11 = g11 + p11 * j
        m12 = g12 + p12 * j
        m21 = g21 + p21 * j
        m22 = g22 + p22 * j
        r0 = m11 if m11 >= m12 else m12
        r1 = m21 if m21 >= m22 else m22
        c0 = m11 if m11 <= m21 else m21
        c1 = m12 if m12 <= m22 else m22
        minmax = r0 if r0 <= r1 else r1
        maxmin = c0 if c0 >= c1 else c1
        if minmax != maxmin:
            return False  # mixed saddle: outside the pure-pair regime
        pair = (0 if r0 <= r1 else 1, 0 if c0 >= c1 else 1)
        if pair == (0, 0):
            jn = g11 / (1.0 - p11)
        elif pair == (0, 1):
            jn = g12 / (1.0 - p12)
        elif pair == (1, 0):
            jn = g21 / (1.0 - p21)
        else:
            jn = g22 / (1.0 - p22)
        if pair == prev_pair and prev_j is not None and abs(jn - prev_j) < 1e-12:
            return False  # settled on a fixed pair
        if pair == prev2_pair and pair != prev_pair and prev2_j is not None \
                and abs(jn - prev2_j) < 1e-12 and abs(jn - prev_j) > 1e-9:
            return True
        prev2_pair, prev_pair = prev_pair, pair
        prev2_j, prev_j = prev_j, jn
        j = jn
    return False


def _encode_candidate(g, p):
    payoffs = g.reshape(1, 2, 2)
    transitions = (p / _ENCODE_ALPHA).reshape(1, 2, 2, 1)
    return DiscountedMarkovGame(payoffs, transitions, _ENCODE_ALPHA, terminating=True)


def find_oscillating_game():
    """Grid-search a 2x2 one-state instance on which all-pairs PI cycles.

    Effective per-pair discounts live on a 0.1-step grid below 1, so every
    candidate passes the contraction screen; the first candidate confirmed
    to cycle under both the all-pairs scheme and its separated counterpart
    is returned together with the cycle report.
    """
    g_combos = list(itertools.product(_G_GRID, repeat=4))
    p_combos = list(itertools.product(_P_GRID, repeat=4))
    total = len(g_combos) * len(p_combos)
    stride = 2_654_435_761 % total  # golden-ratio stride, coprime to the grid size
    idx = 0
    for _ in range(total):
        idx = (idx + stride) % total
        gf = g_combos[idx // len(p_combos)]
        pf = p_combos[idx % len(p_combos)]
        if not _screen_candidate((gf[:2], gf[2:]), (pf[:2], pf[2:])):
            continue
        g = np.array(gf, dtype=float).reshape(2, 2)
        p = np.array(pf, dtype=float).reshape(2, 2)
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
