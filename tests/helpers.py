"""Shared instance generators for the test suite."""

import json
import os
import sys

import numpy as np
import pytest

from minimaxpi import classic_pi
from minimaxpi.core import SeparatedProblem, WeightedSpace
from minimaxpi.models import (DiscountedMarkovGame, MinimaxControlModel,
                              SeparatedMinimaxModel)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_payload(generator, *args, seed=3):
    """The payload ``generator`` of the benchmark's ``perfbench/workloads.py``
    draws from ``default_rng(seed)``."""
    if ROOT not in sys.path:
        sys.path.append(ROOT)
    from perfbench import workloads

    return getattr(workloads, generator)(np.random.default_rng(seed), *args)


def bench_file(directory, generator, *args):
    """Path of a problem file holding ``bench_payload(generator, *args)``,
    written into ``directory``."""
    path = os.path.join(directory, f"{generator}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench_payload(generator, *args), fh)
    return path


def blind_to_cycles(monkeypatch):
    """Make all-pairs policy iteration run its whole budget: its cycle test
    sees no repeat.  Returns the list into which each call appends the lag
    :func:`~minimaxpi.classic_pi.detect_cycle` would have returned."""
    lags, detect = [], classic_pi.detect_cycle

    def blind(history):
        lags.append(detect(history))
        return None

    monkeypatch.setattr(classic_pi, "detect_cycle", blind)
    return lags


def random_markov_game(rng, states=3, n=2, m=2, alpha=0.9, terminating=False,
                       payoff_scale=1.0):
    payoffs = rng.uniform(-payoff_scale, payoff_scale, (states, n, m))
    q = rng.uniform(0.05, 1.0, (states, n, m, states))
    q /= q.sum(axis=3, keepdims=True)
    if terminating:
        q *= rng.uniform(0.5, 1.0, (states, n, m))[..., None]
    return DiscountedMarkovGame(payoffs, q, alpha, terminating=terminating)


def random_separated_model(rng, s1=3, s2=4, alpha=0.8, max_actions=3):
    next1 = tuple(rng.integers(0, s2, int(rng.integers(1, max_actions + 1)))
                  for _ in range(s1))
    cost1 = tuple(rng.uniform(-1, 1, a.size) for a in next1)
    next2 = tuple(rng.integers(0, s1, int(rng.integers(1, max_actions + 1)))
                  for _ in range(s2))
    cost2 = tuple(rng.uniform(-1, 1, a.size) for a in next2)
    return SeparatedMinimaxModel(WeightedSpace.unit(s1), WeightedSpace.unit(s2),
                                 next1, cost1, next2, cost2, alpha)


def random_control_model(rng, states=3, alpha=0.9, max_u=2, max_v=2,
                         stochastic=False):
    outcomes = []
    for _ in range(states):
        per_u = []
        for _ in range(int(rng.integers(1, max_u + 1))):
            per_v = []
            for _ in range(int(rng.integers(1, max_v + 1))):
                if stochastic:
                    k = int(rng.integers(2, 4))
                    p = rng.dirichlet(np.ones(k))
                    per_v.append([[p[i], float(rng.uniform(-1, 1)),
                                   int(rng.integers(states))] for i in range(k)])
                else:
                    per_v.append([[1.0, float(rng.uniform(-1, 1)),
                                   int(rng.integers(states))]])
            per_u.append(tuple(per_v))
        outcomes.append(tuple(per_u))
    return MinimaxControlModel(WeightedSpace.unit(states), tuple(outcomes), alpha)


def scalar_problem(slope1=0.5, cost2=1.0, slope2=0.5):
    """One state per side: J1 = slope1*J2, J2 = cost2 + slope2*J1."""
    return SeparatedProblem(
        space1=WeightedSpace.unit(1), space2=WeightedSpace.unit(1),
        actions1=((0,),), actions2=((0,),),
        eval1=lambda x, u, j2: slope1 * j2[0],
        eval2=lambda x, v, j1: cost2 + slope2 * j1[0],
        alpha=max(abs(slope1), abs(slope2)))


def closure_problem(model, alpha):
    """The separated model through the closure adapter, one call per move."""
    return SeparatedProblem(
        space1=model.space1, space2=model.space2,
        actions1=tuple(range(a.size) for a in model.next1),
        actions2=tuple(range(a.size) for a in model.next2),
        eval1=lambda x, u, j2: model.cost1[x][u] + model.alpha * j2[model.next1[x][u]],
        eval2=lambda x, v, j1: model.cost2[x][v] + model.alpha * j1[model.next2[x][v]],
        alpha=alpha)


def highs_min_max(offsets, coeffs):
    """Oracle: min_u max_l (offset_l + u'coeffs_l) by scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n_lines, n = coeffs.shape
    # variables (u, z): min z s.t. coeffs u - z <= -offsets, sum u = 1, u >= 0
    res = linprog(np.r_[np.zeros(n), 1.0],
                  A_ub=np.c_[coeffs, -np.ones(n_lines)], b_ub=-offsets,
                  A_eq=np.r_[np.ones(n), 0.0][None], b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs",
                  # the default 1e-7 feasibility tolerances are looser than
                  # the 1e-9 x spread gates this oracle serves
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.fun


def highs_game_values(game, target=1e-12):
    """Equilibrium values of a Markov game, certified to ``target`` by
    sweeps whose stage games go to HiGHS.

    Plain sweeps of the batched stage-game solver, with no stop rule, only
    bring the start near the fixed point.  The values returned come from
    HiGHS sweeps: a sweep that moves them by r leaves them within
    r*a/(1-a) of the fixed point (a the game's modulus), whatever the start.
    """
    from minimaxpi.matrix_game import solve_matrix_game
    from minimaxpi.models import stage_matrix

    a = game.contraction_factor()
    j = np.zeros(game.state_count)
    for _ in range(400):
        j = solve_matrix_game(stage_matrix(game, slice(None), j)).value
    for _ in range(20):
        new = np.array([highs_min_max(np.zeros(m.shape[1]), m.T)
                        for m in stage_matrix(game, slice(None), j)])
        r, j = float(np.max(np.abs(new - j) / game.space.weights)), new
        if r * a / (1.0 - a) <= target:
            return j
    raise AssertionError("HiGHS sweeps did not certify the reference")


def swept_j1(problem, sweeps=2000):
    """The minimizer's table after a fixed number of greedy sweeps from zero,
    with no stop rule.  At modulus 0.95 the sweeps shrink the start's error
    by 0.95**2000 (about 3e-45), so only rounding is left."""
    j1, j2 = problem.zero1(), problem.zero2()
    for _ in range(sweeps):
        j1, j2 = problem.t1_greedy(j2)[0], problem.t2_greedy(j1)[0]
    return j1.values
