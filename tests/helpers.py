"""Shared instance generators for the test suite."""

import numpy as np

from minimaxpi.core import SeparatedProblem, WeightedSpace
from minimaxpi.models import (DiscountedMarkovGame, MinimaxControlModel,
                              SeparatedMinimaxModel)


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
