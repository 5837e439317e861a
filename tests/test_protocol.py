"""The solvers call the problem protocol and nothing else.

``Protocol`` forwards only the members of :class:`HalfStageProblem` that a
problem kind supplies; everything else it has is the protocol's own code.
A solver that reached past the protocol (to a kind's arrays, its score
primitive or any other attribute) would fail on it, and one that took
another path through the protocol would answer differently.
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from minimaxpi.async_pi import round_robin, run
from minimaxpi.classic_pi import hoffman_karp, naive_separated_pi
from minimaxpi.core import HalfStageProblem, ValueTable, value_iterate
from minimaxpi.models import (ColumnMaxTable, minimax_control_to_problem,
                              separate_markov_game)

from helpers import random_control_model, random_markov_game

_FORWARDED = ("space1", "space2", "alpha", "min_eval_values", "max_eval_entries",
              "min_improve", "max_improve", "table2", "zero2", "first_policies", "shift",
              "evals_repeat_improvements", "joint_policy_fixed_point")


class Protocol(HalfStageProblem):
    """A problem that has only the protocol's members, forwarded."""

    def __init__(self, inner):
        for name in _FORWARDED:
            setattr(self, name, getattr(inner, name))


def bits(answer):
    """A solver's answer with every float and array as its bytes."""
    if isinstance(answer, ValueTable):
        return bits(answer.values)
    if isinstance(answer, ColumnMaxTable):
        return bits(answer.cols)
    if isinstance(answer, np.ndarray):
        return answer.dtype.str, answer.shape, answer.tobytes()
    if isinstance(answer, float):
        return answer.hex()
    if is_dataclass(answer):
        return type(answer).__name__, tuple(bits(getattr(answer, f.name)) for f in fields(answer))
    if isinstance(answer, (tuple, list)):
        return type(answer).__name__, tuple(map(bits, answer))
    return answer


SOLVERS = {
    "vi": value_iterate,
    "hk": hoffman_karp,
    "naive": naive_separated_pi,
    "async": lambda problem: run(problem, round_robin(), trace_out=[]),
}


def problems():
    rng = np.random.default_rng
    return {
        "control": minimax_control_to_problem(
            random_control_model(rng(50), 6, 0.9, 3, 3, stochastic=True)),
        "game": separate_markov_game(random_markov_game(rng(51), 4, 2, 3, alpha=0.9)),
    }


@pytest.mark.parametrize("kind", ["control", "game"])
def test_value_iteration_builds_one_greedy_maximizer_table_per_sweep(kind):
    """vi's answer is its certified J1 alone: no T2 of it after the last sweep."""
    wrapped, calls = Protocol(problems()[kind]), []
    improve = wrapped.max_improve
    wrapped.max_improve = lambda *args: calls.append(1) or improve(*args)
    result = value_iterate(wrapped)
    assert len(calls) == result.iterations


@pytest.mark.parametrize("kind", ["control", "game"])
@pytest.mark.parametrize("algo", list(SOLVERS))
def test_solvers_read_only_the_protocol(kind, algo):
    problem = problems()[kind]
    wrapped = Protocol(problem)
    assert not hasattr(wrapped, "game") and not hasattr(wrapped, "scores")
    assert bits(SOLVERS[algo](wrapped)) == bits(SOLVERS[algo](problem))
