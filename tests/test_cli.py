import contextlib
import io
import itertools
import json

import numpy as np
import pytest

from minimaxpi import cli
from minimaxpi.async_pi import Schedule, round_robin, run
from minimaxpi.classic_pi import hoffman_karp, naive_separated_pi
from minimaxpi.errors import NonContractive, ParseError, ValidationError
from minimaxpi.core import ValueTable, certify, value_iterate
from minimaxpi.models import (DiscountedMarkovGame, minimax_control_to_problem,
                              separated_model_to_problem, shapley_value_iteration)
from minimaxpi.problem_io import game_payload, load_problem, save_problem

from helpers import (bench_file, random_control_model, random_markov_game,
                     random_separated_model)
from instruments import markov_game_to_control


def write_game(tmp_path, game, name="game.json", **extra):
    path = tmp_path / name
    save_problem({**game_payload(game), **extra}, path)
    return str(path)


def write_separated(tmp_path, model, name="sep.json"):
    path = tmp_path / name
    save_problem({"format": 1, "kind": "separated_model", "alpha": model.alpha,
                  "size1": model.space1.size, "size2": model.space2.size,
                  **{k: [a.tolist() for a in getattr(model, k)]
                     for k in ("next1", "cost1", "next2", "cost2")}}, path)
    return str(path)


def write_control(tmp_path, model, name="control.json"):
    path = tmp_path / name
    save_problem({"format": 1, "kind": "minimax_control", "alpha": model.alpha,
                  "outcomes": [[[cell.tolist() for cell in per_v] for per_v in per_u]
                               for per_u in model.outcomes]}, path)
    return str(path)


def slow_control_model():
    """Stochastic control at alpha 0.95: the split's modulus sqrt(0.95) lets
    residual-stopped vi sit up to ~38 tol from the fixed point."""
    return random_control_model(np.random.default_rng(0), states=4, alpha=0.95,
                                stochastic=True)


def minimal_game_payload(alpha=0.7):
    return {
        "format": 1,
        "kind": "discounted_markov_game",
        "alpha": alpha,
        "payoffs": [[[1.0]]],
        "transitions": [[[[1.0]]]],
    }


def two_state_separated_payload(**fields):
    return {"format": 1, "kind": "separated_model", "alpha": 0.5,
            "size1": 2, "size2": 2,
            "next1": [[0], [1]], "cost1": [[1.0], [0.5]],
            "next2": [[0], [1]], "cost2": [[2.0], [0.0]], **fields}


def one_triple_control_payload(cost=1.0, target=0):
    return {"format": 1, "kind": "minimax_control", "alpha": 0.5,
            "outcomes": [[[[[1.0, cost, target]]]]]}


NAN, INF = float("nan"), float("inf")


def separated_with(**fields):
    """Two states per side, two moves at x1 = 0 and x2 = 1."""
    return {"format": 1, "kind": "separated_model", "alpha": 0.5, "size1": 2, "size2": 2,
            "next1": [[0, 1], [1]], "cost1": [[1.0, 0.0], [0.5]],
            "next2": [[0], [1, 0]], "cost2": [[2.0], [0.0, 1.0]], **fields}


def control_with(outcomes=None, **fields):
    """Two states, two controls each; without ``outcomes``, six cells, one
    of them stochastic."""
    if outcomes is None:
        outcomes = [[[[[1.0, 1.0, 0]], [[0.5, 1.0, 1], [0.5, 0.0, 0]]], [[[1.0, 1.0, 1]]]],
                    [[[[1.0, 2.0, 0]]], [[[1.0, 1.0, 1]], [[1.0, 0.5, 0]]]]]
    return {"format": 1, "kind": "minimax_control", "alpha": 0.5, "outcomes": outcomes,
            **fields}


def control_cell(x, u, v, triples):
    payload = control_with()
    payload["outcomes"][x][u][v] = triples
    return payload


def game_with(payoffs, transitions, **fields):
    return {"format": 1, "kind": "discounted_markov_game", "alpha": 0.5,
            "payoffs": payoffs, "transitions": transitions, **fields}


# Malformed files and the exit code and stderr each gives, as recorded from
# the per-entry loaders that the flat checks replaced: the same entry is
# named, in the same order, when a file holds several faults.
RECORDED_ERRORS = {
    "sep-cost-nan-second-state": (separated_with(cost1=[[1.0, 0.0], [NAN]]),
                                  "$.cost1[1][0]: cost1[1][0] must be finite"),
    "sep-cost-inf-last-entry": (separated_with(cost2=[[2.0], [0.0, -INF]]),
                                "$.cost2[1][1]: cost2[1][1] must be finite"),
    "sep-cost-null": (separated_with(cost1=[[1.0, None], [0.5]]),
                      "$.cost1[0][1]: cost1[0][1] must be finite"),
    "sep-target-out-of-range-second-entry": (
        separated_with(next1=[[0, 2], [1]]),
        "$.next1[0][1]: next1[0][1] next state must be an integer in [0, 2)"),
    "sep-target-fractional": (
        separated_with(next2=[[0], [1, 0.5]]),
        "$.next2[1][1]: next2[1][1] next state must be an integer in [0, 2)"),
    "sep-target-negative": (
        separated_with(next2=[[0], [-1, 0]]),
        "$.next2[1][0]: next2[1][0] next state must be an integer in [0, 2)"),
    "sep-target-nan": (
        separated_with(next1=[[0, 1], [NAN]]),
        "$.next1[1][0]: next1[1][0] next state must be an integer in [0, 2)"),
    "sep-cost-then-later-target": (
        separated_with(cost1=[[NAN, 0.0], [0.5]], next1=[[0, 1], [7]]),
        "$.next1[1][0]: next1[1][0] next state must be an integer in [0, 2)"),
    "sep-side1-cost-and-side2-target": (
        separated_with(cost1=[[1.0, INF], [0.5]], next2=[[5], [1, 0]]),
        "$.cost1[0][1]: cost1[0][1] must be finite"),
    "sep-target-and-alpha": (
        separated_with(next1=[[0, 9], [1]], alpha=1.5),
        "$.next1[0][1]: next1[0][1] next state must be an integer in [0, 2)"),
    "sep-cost-and-later-length": (
        separated_with(cost1=[[1.0, NAN], [0.5, 1.0]]),
        "$: each state needs matching nonempty move/cost lists"),
    "sep-alpha": (separated_with(alpha=1.0), "$: discount must lie in (0, 1)"),
    "sep-empty-next": (separated_with(next1=[]), "$: need one move list per state"),
    "sep-empty-rows": (separated_with(next1=[[], [1]], cost1=[[], [0.5]]),
                       "$: each state needs matching nonempty move/cost lists"),
    "sep-empty-cost-row": (separated_with(cost1=[[1.0, 0.0], []]),
                           "$: each state needs matching nonempty move/cost lists"),
    "sep-lengths-differ": (separated_with(cost1=[[1.0], [0.5]]),
                           "$: each state needs matching nonempty move/cost lists"),
    "sep-lengths-differ-side2": (separated_with(next2=[[0, 1], [1, 0]]),
                                 "$: each state needs matching nonempty move/cost lists"),
    "sep-string-for-a-row": (separated_with(next1=["01", [1]]),
                             "$: each state needs matching nonempty move/cost lists"),
    "sep-number-for-a-row": (separated_with(next1=[0, [1]], cost1=[1.0, [0.5]]),
                             "$: each state needs matching nonempty move/cost lists"),
    "ctl-second-cell": (
        control_cell(0, 0, 1, [[0.5, 1.0, 1], [0.4, 0.0, 0]]),
        "$.outcomes[0][0][1]: outcomes[0][0][1] must be a nonnegative distribution summing to 1"),
    "ctl-last-cell": (
        control_cell(1, 1, 1, [[0.7, 0.5, 0]]),
        "$.outcomes[1][1][1]: outcomes[1][1][1] must be a nonnegative distribution summing to 1"),
    "ctl-negative-probability": (
        control_cell(1, 0, 0, [[1.5, 2.0, 0], [-0.5, 0.0, 1]]),
        "$.outcomes[1][0][0]: outcomes[1][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-nan-probability": (
        control_cell(0, 1, 0, [[NAN, 1.0, 1]]),
        "$.outcomes[0][1][0]: outcomes[0][1][0] must be a nonnegative distribution summing to 1"),
    "ctl-target-fractional": (
        control_cell(1, 1, 0, [[1.0, 0.0, 0.5]]),
        "$.outcomes[1][1][0][0]: outcomes[1][1][0][0] next state must be an integer in [0, 2)"),
    "ctl-target-out-of-range": (
        control_cell(0, 0, 1, [[0.5, 1.0, 1], [0.5, 0.0, 2]]),
        "$.outcomes[0][0][1][1]: outcomes[0][0][1][1] next state must be an integer in [0, 2)"),
    "ctl-target-negative": (
        control_cell(1, 0, 0, [[1.0, 2.0, -1]]),
        "$.outcomes[1][0][0][0]: outcomes[1][0][0][0] next state must be an integer in [0, 2)"),
    "ctl-cost-nan": (control_cell(1, 1, 1, [[1.0, NAN, 0]]),
                     "$.outcomes[1][1][1][0][1]: outcomes[1][1][1][0][1] must be finite"),
    "ctl-cost-inf": (control_cell(0, 0, 1, [[0.5, INF, 1], [0.5, 0.0, 0]]),
                     "$.outcomes[0][0][1][0][1]: outcomes[0][0][1][0][1] must be finite"),
    "ctl-null-cost": (control_cell(1, 0, 0, [[1.0, None, 0]]),
                      "$.outcomes[1][0][0][0][1]: outcomes[1][0][0][0][1] must be finite"),
    "ctl-cost-then-later-distribution": (
        control_with([[[[[1.0, NAN, 0]], [[0.6, 0.0, 0]]]], [[[[1.0, 0.0, 1]]]]]),
        "$.outcomes[0][0][1]: outcomes[0][0][1] must be a nonnegative distribution summing to 1"),
    "ctl-target-then-later-cost": (
        control_with([[[[[1.0, 0.0, 5]]]], [[[[1.0, INF, 1]]]]]),
        "$.outcomes[1][0][0][0][1]: outcomes[1][0][0][0][1] must be finite"),
    "ctl-distribution-then-no-control": (
        control_with([[[[[0.6, 0.0, 0]]]], []]),
        "$.outcomes[0][0][0]: outcomes[0][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-no-control-then-distribution": (
        control_with([[[[[1.0, 0.0, 0]]]], [], [[[[0.6, 0.0, 0]]]]]),
        "$: every state needs at least one control"),
    "ctl-no-move-then-distribution": (
        control_with([[[[[1.0, 0.0, 0]]], []], [[[[0.6, 0.0, 0]]]]]),
        "$: every (state, control) needs an adversary move"),
    "ctl-distribution-then-no-move": (
        control_with([[[[[0.6, 0.0, 0]]], []], [[[[1.0, 0.0, 0]]]]]),
        "$.outcomes[0][0][0]: outcomes[0][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-distribution-then-short-triple": (
        control_with([[[[[0.6, 0.0, 0]], [[0.5, 1.0]]]]]),
        "$.outcomes[0][0][0]: outcomes[0][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-target-and-alpha": (
        control_with([[[[[1.0, 0.0, 3]]]]], alpha=2.0),
        "$.outcomes[0][0][0][0]: outcomes[0][0][0][0] next state must be an integer in [0, 1)"),
    "ctl-distribution-then-number-for-controls": (
        control_with([[[[[0.6, 0.0, 0]]]], 7]),
        "$.outcomes[0][0][0]: outcomes[0][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-distribution-then-number-for-moves": (
        control_with([[[[[0.6, 0.0, 0]]], 3]]),
        "$.outcomes[0][0][0]: outcomes[0][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-no-controls": (control_with([[]]), "$: every state needs at least one control"),
    "ctl-no-moves": (control_with([[[]]]), "$: every (state, control) needs an adversary move"),
    "ctl-no-triples": (
        control_with([[[[]]]]),
        "$.outcomes[0][0][0]: outcomes[0][0][0] must be a nonnegative distribution summing to 1"),
    "ctl-alpha": (control_with(alpha=0.0), "$: discount must lie in (0, 1)"),
    "game-row-sum": (
        game_with([[[1.0, 0.0]], [[0.0, 1.0]]],
                  [[[[1.0, 0.0], [0.5, 0.5]]], [[[0.25, 0.5], [0.0, 1.0]]]]),
        "$.transitions[1][0][0]: row sums to 0.75, expected 1"),
    "game-row-nan": (game_with([[[1.0]]], [[[[NAN]]]]),
                     "$.transitions[0][0][0]: row sums to nan, expected 1"),
    "game-payoff-nan-and-row-sum": (
        game_with([[[NAN]], [[0.0]]], [[[[1.0, 0.0]]], [[[0.0, 0.9]]]]),
        "$.transitions[1][0][0]: row sums to 0.9, expected 1"),
    "game-alpha-and-row-sum": (
        game_with([[[1.0]]], [[[[0.5]]]], alpha=1.5),
        "$.transitions[0][0][0]: row sums to 0.5, expected 1"),
    "game-negative-probability": (
        game_with([[[1.0]], [[0.0]]], [[[[1.5, -0.5]]], [[[0.0, 1.0]]]]),
        "$: transition probabilities must be nonnegative"),
}

NOT_TRIPLES = "must be a list of [probability, cost, next] triples"

# Files outside the format, which the per-entry loaders crashed on with a
# traceback, refused with a numpy message or another fault's, or solved (a
# cost list spread over the moves of other states, a cell outside the
# triple layout), and the error naming the fault that each now exits 1 with.
MENDED_ERRORS = {
    "sep-length-and-later-string": (separated_with(next1=[[0], ["x"]]),
                                          "$.next1: next1 entries must be numbers"),
    "sep-dict-entry": (separated_with(cost1=[[1.0, {"c": 0.0}], [0.5]]),
                       "$.cost1: cost1 entries must be numbers"),
    "sep-list-entries": (separated_with(next1=[[[0], [1]], [1]]),
                         "$.next1: next1 entries must be numbers"),
    "ctl-number-for-controls": (control_with([3]), "$: every state needs a list of controls"),
    "ctl-number-for-moves": (
        control_with([[3]]), "$: every (state, control) needs a list of adversary moves"),
    "ctl-number-for-moves-then-distribution": (
        control_with([[3, [[[0.6, 0.0, 0]]]]]),
        "$: every (state, control) needs a list of adversary moves"),
    "ctl-two-entry-triple": (control_with([[[[[0.5, 1.0]]]]]),
                             f"$.outcomes[0][0][0]: outcomes[0][0][0] {NOT_TRIPLES}"),
    "ctl-short-triple-then-distribution": (
        control_with([[[[[0.5, 1.0]], [[0.6, 0.0, 0]]]]]),
        f"$.outcomes[0][0][0]: outcomes[0][0][0] {NOT_TRIPLES}"),
    "ctl-four-entry-triple": (
        control_cell(1, 0, 0, [[1.0, 2.0, 0, 5]]),
        f"$.outcomes[1][0][0]: outcomes[1][0][0] {NOT_TRIPLES}"),
    "ctl-empty-triple": (control_with([[[[[]]]]]),
                         f"$.outcomes[0][0][0]: outcomes[0][0][0] {NOT_TRIPLES}"),
    "ctl-unwrapped-triple": (control_cell(0, 1, 0, [1.0, 1.0, 1]),
                             f"$.outcomes[0][1][0]: outcomes[0][1][0] {NOT_TRIPLES}"),
    "ctl-nested-triple": (control_cell(1, 1, 1, [[[1.0, 0.5, 0]]]),
                          f"$.outcomes[1][1][1]: outcomes[1][1][1] {NOT_TRIPLES}"),
    "ctl-dict-cell": (control_cell(0, 0, 0, {"p": 1.0}),
                      f"$.outcomes[0][0][0]: outcomes[0][0][0] {NOT_TRIPLES}"),
    "ctl-string-entry": (control_cell(1, 0, 0, [[1.0, "x", 0]]),
                         "$.outcomes: outcomes entries must be numbers"),
    "sep-no-states": (separated_with(size1=0, next1=[], cost1=[]),
                      "$: space must contain at least one state"),
    "sep-fewer-cost-rows": (separated_with(cost1=[[1.0, 0.0]]),
                            "$: each state needs matching nonempty move/cost lists"),
    "sep-more-cost-rows": (separated_with(cost1=[[1.0, 0.0], [0.5], [2.0]]),
                           "$: each state needs matching nonempty move/cost lists"),
    "sep-no-cost-rows": (separated_with(cost2=[]),
                         "$: each state needs matching nonempty move/cost lists"),
    "sep-one-cost-for-three-moves": (separated_with(next1=[[0], [1, 0]], cost1=[[1.0]]),
                                     "$: each state needs matching nonempty move/cost lists"),
    "ctl-no-states": (control_with([]), "$: space must contain at least one state"),
    "game-ragged-payoffs": (
        game_with([[[1.0], [2.0, 3.0]]], [[[[1.0]], [[1.0]]]]),
        "$.payoffs: payoffs must be a rectangular list of numbers"),
    "game-ragged-transitions": (
        game_with([[[1.0], [2.0]]], [[[[1.0]], [[0.5, 0.5]]]]),
        "$.transitions: transitions must be a rectangular list of numbers"),
    "game-string-payoff": (game_with([[["a"]]], [[[[1.0]]]]),
                           "$.payoffs: payoffs must be a rectangular list of numbers"),
    "game-ragged-weights": (game_with([[[1.0]]], [[[[1.0]]]], weights=[[1.0], []]),
                            "$.weights: weights must be a rectangular list of numbers"),
    "sep-string-weights": (separated_with(weights1=["a", 1.0]),
                           "$.weights1: weights1 must be a rectangular list of numbers"),
    "ctl-dict-weights": (control_with(weights=[{"w": 1.0}, 1.0]),
                         "$.weights: weights must be a rectangular list of numbers"),
    "game-string-beta": (game_with([[[1.0]]], [[[[1.0]]]], beta="abc"),
                         f"$.beta: expected {(int, float)}"),
    "sep-list-beta": (separated_with(beta=[1.5]), f"$.beta: expected {(int, float)}"),
    "ctl-dict-beta": (control_with(beta={"b": 2}), f"$.beta: expected {(int, float)}"),
}


def padded_stage(rows, pad):
    """``prob``, ``cost`` and ``next`` arrays filled entry by entry from
    nested lists: ``rows[x][a]`` lists action a's (prob, cost, next)
    outcomes; a state's missing actions get one sure outcome at ``pad``."""
    width = max(map(len, rows))
    depth = max(len(outcomes) for actions in rows for outcomes in actions)
    prob, cost = np.zeros((len(rows), width, depth)), np.zeros((len(rows), width, depth))
    nxt = np.zeros((len(rows), width, depth), dtype=int)
    for x, actions in enumerate(rows):
        for a in range(width):
            if a >= len(actions):
                prob[x, a, 0], cost[x, a, 0] = 1.0, pad
                continue
            for k, (p, c, n) in enumerate(actions[a]):
                prob[x, a, k], cost[x, a, k], nxt[x, a, k] = p, c, n
    return prob, cost, nxt


def assert_stage_is(stage, rows, pad):
    for built, expected in zip((stage.prob, stage.cost, stage.next), padded_stage(rows, pad)):
        assert built.dtype == expected.dtype and np.array_equal(built, expected)


def solve_exit_and_stderr(tmp_path, payload):
    path = tmp_path / "problem.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(path), "--algo", "vi"])
    return code, out.getvalue(), err.getvalue()


class TestLoadProblem:
    def test_minimal_game_echoes_alpha(self, tmp_path):
        path = tmp_path / "mini.json"
        save_problem(minimal_game_payload(alpha=0.7), path)
        loaded = load_problem(str(path))
        assert loaded.kind == "discounted_markov_game"
        assert loaded.model.alpha == 0.7

    def test_substochastic_row_rejected_with_location(self, tmp_path):
        payload = minimal_game_payload()
        payload["transitions"] = [[[[0.9]]]]
        path = tmp_path / "bad.json"
        save_problem(payload, path)
        with pytest.raises(ValidationError) as err:
            load_problem(str(path))
        assert "transitions[0][0][0]" in str(err.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_problem(str(path))

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        game = random_markov_game(rng, 3, 2, 2, alpha=0.9)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_problem({**game_payload(game), "beta": 1.03}, first)
        loaded = load_problem(str(first))
        save_problem({**game_payload(loaded.model), "beta": loaded.beta}, second)
        assert first.read_bytes() == second.read_bytes()

    def test_terminating_contraction_screen(self, tmp_path):
        payload = {
            "format": 1,
            "kind": "terminating_markov_game",
            "alpha": 0.9,
            "payoffs": [[[0.0]], [[0.0]]],
            "transitions": [[[[0.0, 1.0]]], [[[1.0, 0.0]]]],
            "weights": [1.0, 20.0],
        }
        path = tmp_path / "term.json"
        save_problem(payload, path)
        with pytest.raises(NonContractive):
            load_problem(str(path))

    def test_separated_model_round_trip(self, tmp_path):
        payload = {
            "format": 1,
            "kind": "separated_model",
            "alpha": 0.5,
            "size1": 1, "size2": 1,
            "next1": [[0]], "cost1": [[1.0]],
            "next2": [[0]], "cost2": [[2.0]],
        }
        path = tmp_path / "sep.json"
        save_problem(payload, path)
        loaded = load_problem(str(path))
        assert loaded.kind == "separated_model"
        assert loaded.model.alpha == 0.5

    def test_minimax_control_kind(self, tmp_path, capsys):
        payload = {
            "format": 1,
            "kind": "minimax_control",
            "alpha": 0.5,
            "outcomes": [[[[[1.0, 1.0, 0]]]]],
        }
        path = tmp_path / "ctrl.json"
        save_problem(payload, path)
        loaded = load_problem(str(path))
        assert loaded.kind == "minimax_control"
        code = cli.main(["solve", str(path), "--algo", "vi", "--tol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.strip().splitlines()[0].split(",")[1])
        assert value == pytest.approx(2.0, abs=1e-7)

    def test_bad_outcome_distribution_rejected(self, tmp_path):
        payload = {
            "format": 1,
            "kind": "minimax_control",
            "alpha": 0.5,
            "outcomes": [[[[[0.7, 1.0, 0]]]]],
        }
        path = tmp_path / "bad_ctrl.json"
        save_problem(payload, path)
        with pytest.raises(ValidationError) as err:
            load_problem(str(path))
        assert err.value.path == "$.outcomes[0][0][0]"

    # json reads NaN and Infinity; each such file exits 1 naming the field
    def test_nan_outcome_probability_exits_1(self, tmp_path, capsys):
        payload = {"format": 1, "kind": "minimax_control", "alpha": 0.5,
                   "outcomes": [[[[[float("nan"), 1.0, 0]]]]]}
        path = tmp_path / "nan_ctrl.json"
        save_problem(payload, path)
        code = cli.main(["solve", str(path), "--algo", "vi"])
        err = capsys.readouterr().err
        assert code == 1
        assert "outcomes[0][0][0]" in err

    def test_infinite_weight_exits_1(self, tmp_path, capsys):
        payload = minimal_game_payload()
        payload["weights"] = [float("inf")]
        path = tmp_path / "inf_weight.json"
        save_problem(payload, path)
        code = cli.main(["solve", str(path), "--algo", "vi"])
        err = capsys.readouterr().err
        assert code == 1
        assert "$.weights" in err

    # a fractional target was truncated and solved; a non-finite entry was
    # refused at "$" without naming its field
    @pytest.mark.parametrize("payload,field", [
        (two_state_separated_payload(next1=[[0.6], [1]]), "$.next1[0][0]"),
        (two_state_separated_payload(next2=[[0], [NAN]]), "$.next2[1][0]"),
        (one_triple_control_payload(target=0.7), "$.outcomes[0][0][0][0]"),
        (one_triple_control_payload(target=INF), "$.outcomes[0][0][0][0][2]"),
        (one_triple_control_payload(cost=NAN), "$.outcomes[0][0][0][0][1]"),
        (two_state_separated_payload(cost1=[[1.0], [NAN]]), "$.cost1[1][0]"),
        (two_state_separated_payload(cost2=[[INF], [0.0]]), "$.cost2[0][0]"),
        ({**minimal_game_payload(), "payoffs": [[[NAN]]]}, "$.payoffs[0][0][0]"),
        ({**minimal_game_payload(), "kind": "terminating_markov_game",
          "transitions": [[[[NAN]]]]}, "$.transitions[0][0][0][0]"),
    ], ids=["next1-fractional", "next2-nan", "control-target-fractional",
            "control-target-inf", "control-cost-nan", "cost1-nan", "cost2-inf",
            "payoff-nan", "terminating-transition-nan"])
    def test_bad_entry_exits_1_naming_it(self, tmp_path, capsys, payload, field):
        path = tmp_path / "bad.json"
        save_problem(payload, path)
        code = cli.main(["solve", str(path), "--algo", "vi"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {field}:")


    def test_built_separated_stages_match_the_nested_view(self, tmp_path):
        model = random_separated_model(np.random.default_rng(21), 7, 5, max_actions=4)
        problem = separated_model_to_problem(load_problem(write_separated(tmp_path, model)).model)
        for stage, nexts, costs, pad in ((problem.stage1, model.next1, model.cost1, np.inf),
                                         (problem.stage2, model.next2, model.cost2, -np.inf)):
            assert_stage_is(stage, [[[(1.0, c, n)] for n, c in zip(nx, cx)]
                                    for nx, cx in zip(nexts, costs)], pad)

    @pytest.mark.parametrize("kind", ["deterministic", "stochastic", "terminating-game"])
    def test_built_control_stages_match_the_nested_view(self, tmp_path, kind):
        rng = np.random.default_rng(22)
        if kind == "terminating-game":
            model = markov_game_to_control(
                random_markov_game(rng, 4, 2, 3, alpha=0.9, terminating=True))
        else:
            model = random_control_model(rng, 6, max_u=3, max_v=3,
                                         stochastic=kind == "stochastic")
        problem = minimax_control_to_problem(load_problem(write_control(tmp_path, model)).model)
        pairs = [per_v for per_u in model.outcomes for per_v in per_u]
        offsets = np.cumsum([0] + [len(per_u) for per_u in model.outcomes])
        assert_stage_is(problem.stage1, [[[(1.0, 0.0, offsets[x] + u)] for u in range(len(per_u))]
                                         for x, per_u in enumerate(model.outcomes)], np.inf)
        assert_stage_is(problem.stage2, [[cell.tolist() for cell in per_v] for per_v in pairs],
                        -np.inf)

    @pytest.mark.parametrize("case", RECORDED_ERRORS)
    def test_malformed_file_gives_the_recorded_error(self, tmp_path, case):
        payload, line = RECORDED_ERRORS[case]
        assert solve_exit_and_stderr(tmp_path, payload) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("case", MENDED_ERRORS)
    def test_file_outside_the_format_exits_1_naming_the_fault(self, tmp_path, case):
        payload, line = MENDED_ERRORS[case]
        assert solve_exit_and_stderr(tmp_path, payload) == (1, "", f"error: {line}\n")


class TestScheduleParser:
    def test_round_robin_params(self):
        sched = cli.parse_schedule("round_robin:k=5")
        assert isinstance(sched, Schedule)
        problem = separated_model_to_problem(random_separated_model(np.random.default_rng(0)))
        assert sched.period(problem) == 12

    def test_random_requires_seed(self):
        with pytest.raises(ValidationError):
            cli.parse_schedule("random")
        assert cli.parse_schedule("random:seed=3").name == "random:seed=3"

    def test_partitioned(self):
        assert cli.parse_schedule("partitioned:p=2").name == "partitioned:p=2"

    def test_delayed_wraps_inner(self):
        sched = cli.parse_schedule("delayed:B=3,inner=round_robin:k=4")
        assert sched.staleness == 3
        assert "round_robin:k=4" in sched.name

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            cli.parse_schedule("mystery:x=1")

    @pytest.mark.parametrize("spec, param", [
        ("round_robin:k=abc", "k"), ("random:seed=x", "seed"), ("partitioned:p=0", "p"),
        ("round_robin:k=-1", "k"), ("delayed:B=-1,inner=round_robin", "B"),
        ("random:seed=-1", "seed"), ("round_robin:k=3,seed=4", "seed"),
        ("partitioned:p=4,q=9", "q"), ("delayed:B=3,inner=delayed:B=2,inner=round_robin", "inner"),
        # a repeated parameter, and a bound numpy's generator cannot draw
        ("random:seed=1,seed=2", "seed"), ("partitioned:p=4,p=8", "p"),
        ("delayed:B=1,B=2,inner=round_robin", "B"),
        ("delayed:B=9223372036854775808,inner=round_robin", "B"),
    ])
    def test_bad_parameter_exits_1_naming_it(self, tmp_path, capsys, spec, param):
        path = write_game(tmp_path, random_markov_game(np.random.default_rng(1), 2, 2, 2))
        code = cli.main(["solve", path, "--algo", "async", "--schedule", spec])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: schedule parameter {param} ")


class TestSolveCommand:
    def test_zero_game_all_algorithms(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(1), 2, 2, 2, alpha=0.5)
        zero = type(game)(np.zeros_like(game.payoffs), game.transitions, 0.5)
        path = write_game(tmp_path, zero)
        for algo in ("vi", "hk", "poa", "naive", "async"):
            code = cli.main(["solve", path, "--algo", algo, "--tol", "1e-9"])
            out = capsys.readouterr().out
            assert code == 0, algo
            values = [float(line.split(",")[1]) for line in out.strip().splitlines()]
            assert max(abs(v) for v in values) <= 1e-7, algo

    def test_outputs_and_exit_codes_on_counterexample(self, tmp_path, capsys):
        code = cli.main(["counterexample", "--out", str(tmp_path / "ce.json")])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "ce.json").exists()
        assert (tmp_path / "ce.json.cycle.txt").exists()
        loaded = load_problem(str(tmp_path / "ce.json"))
        assert loaded.kind == "terminating_markov_game"
        assert loaded.model.contraction_factor() < 1.0  # screen passes

        code = cli.main(["solve", str(tmp_path / "ce.json"), "--algo", "poa",
                         "--max-steps", "2000"])
        capsys.readouterr()
        assert code == 2

        out_file = tmp_path / "j.csv"
        code = cli.main(["solve", str(tmp_path / "ce.json"), "--algo", "async",
                         "--tol", "1e-8", "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        oracle = shapley_value_iteration(loaded.model, tol=1e-11)
        rows = out_file.read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(values - oracle.j1.values)) <= 1e-6

    def test_max_iters_exit_code(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(2), 3, 2, 2, alpha=0.9)
        path = write_game(tmp_path, game)
        code = cli.main(["solve", path, "--algo", "async", "--tol", "1e-10",
                         "--max-steps", "10"])
        capsys.readouterr()
        assert code == 3

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        code = cli.main(["solve", str(path), "--algo", "vi"])
        capsys.readouterr()
        assert code == 1

    def test_trace_files_are_deterministic(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(3), 2, 2, 2, alpha=0.8)
        path = write_game(tmp_path, game)
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for target in (t1, t2):
            code = cli.main(["solve", path, "--algo", "async", "--tol", "1e-8",
                             "--schedule", "random:seed=4", "--seed", "9",
                             "--trace", str(target)])
            capsys.readouterr()
            assert code == 0
        assert t1.read_bytes() == t2.read_bytes()
        header = t1.read_text().splitlines()[0]
        assert header == "step,algorithm,kind,subset,residual1,residual2,wall_clock"

    def test_delayed_schedule_solve(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(7), 3, 2, 2, alpha=0.9)
        path = write_game(tmp_path, game)
        code = cli.main(["solve", path, "--algo", "async", "--tol", "1e-8",
                         "--schedule", "delayed:B=3,inner=round_robin:k=8",
                         "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        oracle = shapley_value_iteration(game, tol=1e-11)
        values = np.array([float(l.split(",")[1]) for l in out.strip().splitlines()])
        assert np.max(np.abs(values - oracle.j1.values)) <= 1e-6

    @pytest.mark.parametrize("command,extra", [
        pytest.param(["solve", "--algo", "vi"], ["--no-such-flag"], id="extra0"),
        pytest.param(["solve", "--algo", "vi"], ["--parallel", "2"], id="extra1"),
        # an option the subcommand does not read is refused, not ignored
        pytest.param(["compare", "--algos", "vi,async"], ["--trace", "t.csv"], id="extra2"),
        pytest.param(["aggregate-solve"], ["--schedule", "bogus:zzz", "--seed", "5",
                                           "--optimistic-k", "3", "--trace", "t.csv"],
                     id="extra3"),
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, monkeypatch, command, extra):
        monkeypatch.chdir(tmp_path)
        game = random_markov_game(np.random.default_rng(8), 3, 2, 2, alpha=0.9)
        path = write_game(tmp_path, game)
        code = cli.main([command[0], path, *command[1:], *extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_ERROR
        assert "usage:" in captured.err
        assert all(flag in captured.err for flag in extra if flag.startswith("--"))
        assert captured.out == "" and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("option,value", [("--tol", "0"), ("--tol", "-1"),
                                              ("--tol", "nan"), ("--tol", "inf"),
                                              ("--max-steps", "0")])
    @pytest.mark.parametrize("command", [["solve", "--algo", "vi"],
                                         ["solve", "--algo", "async"],
                                         ["compare", "--algos", "vi,naive"],
                                         ["aggregate-solve"]])
    def test_budget_it_cannot_honour_exits_1(self, tmp_path, capsys, command, option, value):
        path = write_control(tmp_path, random_control_model(np.random.default_rng(4), 3))
        code = cli.main([command[0], path, *command[1:], option, value])
        captured = capsys.readouterr()
        assert code == cli.EXIT_ERROR and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + option)

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("generator,sizes,command", [
        ("separated_payload", (5, 5, 2, 0.9), ["compare", "--algos", "vi,naive"]),
        ("game_payload", (3, 2, 2, 0.9), ["solve", "--algo", "poa"]),
        ("game_payload", (3, 2, 2, 0.9), ["solve", "--algo", "naive"]),
    ], ids=["sep-compare", "game-poa", "game-naive"])
    def test_optimistic_k_below_one_exits_1(self, tmp_path, capsys, generator, sizes,
                                            command, k):
        """Zero sweeps evaluate nothing: poa and naive stopped after one step
        reporting convergence, 2.67 from vi on the separated file."""
        path = bench_file(tmp_path, generator, *sizes)
        code = cli.main([command[0], path, *command[1:], "--optimistic-k", k])
        captured = capsys.readouterr()
        assert code == cli.EXIT_ERROR and captured.out == ""
        assert captured.err == f"error: --optimistic-k must be at least 1, got {k}\n"

    @pytest.mark.parametrize("generator,sizes", [
        ("separated_payload", (250, 250, 3, 0.9)), ("control_payload", (100, 3, 3, 0.9)),
    ], ids=["sep", "control"])
    def test_tol_at_the_rounding_floor(self, tmp_path, capsys, generator, sizes):
        """hk's evaluations aim at tol/10 but end at their own rounding
        floor, so hk certifies the tols vi does; below the floor hk and async
        refuse tol at once, as vi does, with one line naming tol and floor.
        Without these rules hk fails at 1e-13 naming tol/10, and async runs
        out its step budget at 1e-15."""
        path = bench_file(tmp_path, generator, *sizes)
        for algo in ("vi", "hk", "async"):
            assert cli.main(["solve", path, "--algo", algo, "--tol", "1e-13"]) == cli.EXIT_OK
        capsys.readouterr()
        for algo, loop in (("vi", "value iteration"), ("hk", "Hoffman-Karp"), ("async", "async")):
            code = cli.main(["solve", path, "--algo", algo, "--tol", "1e-15",
                             "--max-steps", "100000"])
            captured = capsys.readouterr()
            assert code == cli.EXIT_MAX_ITERS and captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: {loop} bound ")
            assert " > 1.000e-15 is held by the rounding floor " in line

    @pytest.mark.parametrize("generator,sizes", [
        ("separated_payload", (250, 250, 3, 0.9)), ("control_payload", (100, 3, 3, 0.9)),
    ], ids=["sep", "control"])
    def test_naive_at_the_rounding_floor(self, tmp_path, capsys, generator, sizes):
        """naive's pair evaluations end at their rounding floor, as hk's do,
        so naive certifies 1e-13 where vi does; below the floor of the J1 it
        prints, an iteration that moves its tables by no more than that floor
        ends the run at once.  Without the first rule naive fails at 1e-13
        naming tol/10; without the second it exits 0 at 1e-15, its bound
        above tol."""
        path = bench_file(tmp_path, generator, *sizes)
        assert cli.main(["solve", path, "--algo", "naive", "--tol", "1e-13"]) == cli.EXIT_OK
        capsys.readouterr()
        for tol in ("1e-15", "1e-17"):
            code = cli.main(["solve", path, "--algo", "naive", "--tol", tol])
            captured = capsys.readouterr()
            assert code == cli.EXIT_MAX_ITERS and captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: naive policy iteration tol {float(tol):.3e} "
                                   "is below the rounding floor ")

    @pytest.mark.parametrize("sizes", [(10, 3, 3, 0.9, True), (4, 2, 2, 0.9)],
                             ids=["cyclic-10", "small-4"])
    def test_poa_at_the_rounding_floor(self, tmp_path, capsys, sizes):
        """Below the rounding floor of the game values, ``4 eps |J| / (1 - a)``,
        poa stops at the first iteration that moves them by no more than the
        floor, instead of running out its budget with no message; above it,
        nothing changes."""
        path = bench_file(tmp_path, "game_payload", *sizes)
        assert cli.main(["solve", path, "--algo", "poa", "--tol", "1e-13"]) == cli.EXIT_OK
        capsys.readouterr()
        for tol in ("1e-15", "1e-17"):
            code = cli.main(["solve", path, "--algo", "poa", "--tol", tol, "--max-steps", "3000"])
            captured = capsys.readouterr()
            assert code == cli.EXIT_MAX_ITERS and captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: Pollatschek-Avi-Itzhak tol {float(tol):.3e} "
                                   "is below the rounding floor ")

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        """A delayed schedule seeds numpy's generator, which refuses -1."""
        path = bench_file(tmp_path, "game_payload", 3, 2, 2, 0.9)
        code = cli.main(["solve", path, "--algo", "async", "--seed", "-1",
                         "--schedule", "delayed:B=2,inner=round_robin"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_ERROR and captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -1\n"

    def test_separated_kind_rejects_game_algorithms(self, tmp_path, capsys):
        payload = {
            "format": 1, "kind": "separated_model", "alpha": 0.5,
            "size1": 1, "size2": 1,
            "next1": [[0]], "cost1": [[1.0]],
            "next2": [[0]], "cost2": [[2.0]],
        }
        path = tmp_path / "sep.json"
        save_problem(payload, path)
        code = cli.main(["solve", str(path), "--algo", "poa"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: algorithm 'poa' needs a Markov game problem\n"
        for algo in ("vi", "hk"):
            code = cli.main(["solve", str(path), "--algo", algo])
            out = capsys.readouterr().out
            assert code == 0
            assert float(out.strip().splitlines()[0].split(",")[1]) == pytest.approx(
                8.0 / 3.0, abs=1e-7)


class TestCompareCommand:
    def test_three_way_agreement(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(5), 3, 2, 2, alpha=0.9)
        path = write_game(tmp_path, game)
        code = cli.main(["compare", path, "--algos", "vi,hk,async",
                         "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Converged") == 3

    def test_four_by_four_game(self, tmp_path, capsys):
        # the minimizer's guard has 8 lines here, so its improvements and
        # stop checks go through the simplex
        game = random_markov_game(np.random.default_rng(4), 3, 4, 4, alpha=0.9)
        path = write_game(tmp_path, game)
        code = cli.main(["compare", path, "--algos", "vi,hk,async"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Converged") == 3

    def test_every_algorithm_but_poa_on_a_separated_file(self, tmp_path, capsys):
        path = write_separated(
            tmp_path, random_separated_model(np.random.default_rng(33), 6, 5, alpha=0.9))
        code = cli.main(["compare", path, "--algos", "vi,hk,naive,async"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [ln.split()[1] for ln in lines[1:5]] == ["Converged"] * 4
        pairs = [ln.split() for ln in lines if ln.startswith("# |")]
        assert len(pairs) == 6
        for *_, gap, _, gate in pairs:
            assert float(gap) <= float(gate.rstrip(")"))

    def test_single_algorithm_rejected(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(6), 2, 2, 2, alpha=0.5)
        path = write_game(tmp_path, game)
        code = cli.main(["compare", path, "--algos", "poa"])
        capsys.readouterr()
        assert code == 1

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        # an unknown name used to run as async on a game file
        game = random_markov_game(np.random.default_rng(6), 2, 2, 2, alpha=0.5)
        code = cli.main(["compare", write_game(tmp_path, game), "--algos", "vi,bogus"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: unknown algorithm 'bogus'\n"

    def test_async_residual_is_the_composite_greedy_residual(self, tmp_path, capsys):
        path = write_separated(
            tmp_path, random_separated_model(np.random.default_rng(12), 6, 5, alpha=0.8))
        code = cli.main(["compare", path, "--algos", "vi,async", "--tol", "1e-8"])
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        assert code == 0
        problem = separated_model_to_problem(load_problem(path).model)
        state, _ = run(problem, round_robin(), tol=1e-8)
        # |J1 - T1(T2 J1)|, both sweeps greedy, of the returned (certified) J1
        residual = state.j1.diff_norm(problem.t1_greedy(problem.t2_greedy(state.j1)[0])[0])
        assert rows["async"][3] == f"{residual:.3e}"
        assert residual == certify(problem, state.j1)[2]
        # J1 within 1e-8 of the fixed point moves by at most (1 + alpha**2) 1e-8
        assert 0.0 < residual <= 1e-8 * (1.0 + problem.alpha ** 2)

    def test_pairs_gated_at_their_error_bounds(self, tmp_path, capsys):
        model = slow_control_model()
        path = write_control(tmp_path, model)
        out = str(tmp_path / "vals")
        code = cli.main(["compare", path, "--algos", "vi,naive", "--tol", "1e-6", "--out", out])
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: line.split() for line in lines}
        line = [ln for ln in lines if ln.startswith("# |vi")][0]
        gap, gate = line.split()[5], line.split()[7].rstrip(")")
        assert code == 0 and float(gap) <= float(gate)
        # the gate sums the certified bounds, in the printed scale
        problem = minimax_control_to_problem(model)
        beta = 1.0 / np.sqrt(model.alpha)
        vi = cli.value_iterate(problem, tol=1e-6)
        naive = certify(problem, naive_separated_pi(problem, tol=1e-6).values[0])
        assert gate == f"{beta * (vi.error_bound + naive[1]):.3e}"
        # each bound gates the table printed: the certified estimates
        for algo, j1 in (("vi", vi.j1), ("naive", naive[0])):
            printed = (tmp_path / f"vals.{algo}.csv").read_text().splitlines()[1:]
            assert [float(r.split(",")[1]) for r in printed] == list(beta * j1.values)
        # vi's residual is r of the printed table, not its last sweep's
        # change, which still moved the tables by far more than the bound
        assert rows["vi"][3] == f"{certify(problem, vi.j1)[2]:.3e}"
        assert vi.error_bound <= 1e-6 < vi.residuals[-1]

    def test_pair_beyond_its_gate_fails(self, tmp_path, capsys, monkeypatch):
        real = cli.value_iterate

        def off_by_1e3(problem, tol=1e-8, max_iters=10**6):
            result = real(problem, tol, max_iters)
            return type(result)(ValueTable(result.j1.space, result.j1.values + 1e-3),
                                result.iterations, result.residuals, result.error_bound)

        monkeypatch.setattr(cli, "value_iterate", off_by_1e3)
        path = write_control(tmp_path, slow_control_model())
        code = cli.main(["compare", path, "--algos", "vi,naive", "--tol", "1e-6"])
        err = capsys.readouterr().err
        assert code == 1
        assert "|vi - naive|" in err and "> gate" in err

    def test_naive_residual_is_the_greedy_residual(self, tmp_path, capsys):
        model = slow_control_model()
        path = write_control(tmp_path, model)
        out = str(tmp_path / "vals")
        cli.main(["compare", path, "--algos", "vi,naive", "--tol", "1e-6", "--out", out])
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        problem = minimax_control_to_problem(model)
        result = naive_separated_pi(problem, tol=1e-6)
        j1 = certify(problem, result.values[0])[0]
        printed = (tmp_path / "vals.naive.csv").read_text().splitlines()[1:]
        beta = 1.0 / np.sqrt(model.alpha)
        assert [float(r.split(",")[1]) for r in printed] == list(beta * j1.values)
        # r of the printed table: |J1 - T1(T2 J1)|, both sweeps greedy, as async's
        residual = j1.diff_norm(problem.t1_greedy(problem.t2_greedy(j1)[0])[0])
        assert residual == certify(problem, j1)[2]
        assert rows["naive"][3] == f"{residual:.3e}"
        # not the change between naive's last two evaluations
        assert rows["naive"][3] != f"{result.residuals[-1]:.3e}"

    def test_naive_bound_certifies_j1_on_games(self, tmp_path, capsys):
        # naive's J2 on a game is a policy section: a bound from the pair's
        # greedy residual gated this pair at 18.6
        path = write_game(tmp_path, random_markov_game(np.random.default_rng(1), 3, 2, 2,
                                                       alpha=0.9))
        code = cli.main(["compare", path, "--algos", "vi,naive,async"])
        lines = capsys.readouterr().out.splitlines()
        gate = float([ln for ln in lines if ln.startswith("# |vi - naive|")][0]
                     .split()[-1].rstrip(")"))
        assert code == 0 and gate <= 1e-6

    def test_counterexample_split_verdict(self, tmp_path, capsys):
        ce = tmp_path / "ce.json"
        assert cli.main(["counterexample", "--out", str(ce)]) == 0
        capsys.readouterr()
        code = cli.main(["compare", str(ce), "--algos", "naive,async",
                         "--tol", "1e-8", "--max-steps", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cycled" in out and "Converged" in out


class TestAggregateSolve:
    @pytest.mark.parametrize("block, field", [
        ({"phi1": [[0.5, 0.0], [0.0, 1.0]], "phi2": [[1.0, 0.0], [0.0, 1.0]]}, "phi1"),
        ({"phi1": [[1.0], [1.0]], "phi2": [[1.0, 0.0], [0.0, 1.0]]}, "phi1"),
        ({"reps1": [5]}, "reps1"),
        ({"reps2": [-1, 0]}, "reps2"),
        ({"reps1": ["a"]}, "reps1"),
        ({"reps1": [0.7, 1]}, "reps1"),
        ({"phi1": [[1.0, 0.0], [1.0]], "phi2": [[1.0, 0.0], [0.0, 1.0]]}, "phi1"),
        ({"phi1": [[1.0, 0.0], [0.0, 1.0]], "phi2": [[float("nan"), 1.0], [0.0, 1.0]]},
         "phi2"),
    ], ids=["phi-row-sum", "phi-shape", "reps-beyond-space", "reps-negative",
            "reps-not-numbers", "reps-not-integers", "phi-ragged", "phi-nan"])
    def test_malformed_block_exits_1_naming_the_field(self, tmp_path, capsys, block, field):
        path = tmp_path / "sep.json"
        save_problem(two_state_separated_payload(
            aggregation={"reps1": [0, 1], "reps2": [0, 1], **block}), path)
        code = cli.main(["aggregate-solve", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"$.aggregation.{field}:" in err

    def test_requires_aggregation_block(self, tmp_path, capsys):
        payload = two_state_separated_payload()
        path = tmp_path / "sep.json"
        save_problem(payload, path)
        code = cli.main(["aggregate-solve", str(path)])
        capsys.readouterr()
        assert code == 1
        payload["aggregation"] = {"reps1": [0, 1], "reps2": [0, 1]}
        save_problem(payload, path)
        code = cli.main(["aggregate-solve", str(path), "--tol", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gap" in out

    def test_control_model_with_identity_aggregation(self, tmp_path, capsys):
        # one state, one control: the adversary's pair space is a single state
        payload = {
            "format": 1,
            "kind": "minimax_control",
            "alpha": 0.5,
            "outcomes": [[[[[1.0, 1.0, 0]]]]],
            "aggregation": {"reps1": [0], "reps2": [0]},
        }
        path = tmp_path / "ctrl.json"
        save_problem(payload, path)
        code = cli.main(["aggregate-solve", str(path), "--tol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(2.0, abs=1e-7)


def solve_outcome(argv):
    """The SolveOutcome of one solve or compare command line, per algorithm."""
    args = cli.build_parser().parse_args(argv)
    loaded = load_problem(args.problem)
    problem, scale = cli._half_stage_problem(loaded, args)
    algos = args.algos.split(",") if argv[0] == "compare" else [args.algo]
    return {algo: cli._solve(loaded, problem, scale, algo, args) for algo in algos}


class TestCertificate:
    """Every printed table lies within its printed bound of the fixed point."""

    @pytest.mark.parametrize("algo, kind", [
        *itertools.product(["hk", "poa", "vi"], ["discounted", "terminating"]),
        ("hk", "separated"), ("hk", "control")])
    def test_solve_table_within_its_bound(self, tmp_path, capsys, algo, kind):
        rng = np.random.default_rng(31)
        if kind == "separated":
            path = write_separated(tmp_path, random_separated_model(rng, 6, 5, alpha=0.9))
        elif kind == "control":
            path = write_control(tmp_path, random_control_model(rng, 6, 0.9, 3, 3,
                                                                stochastic=True))
        else:
            game = random_markov_game(rng, 5, 3, 3, alpha=0.9,
                                      terminating=kind == "terminating")
            path = write_game(tmp_path, game)
        argv = ["solve", path, "--algo", algo, "--tol", "1e-8"]
        assert cli.main(argv) == 0
        printed = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()]
        outcome = solve_outcome(argv)[algo]
        assert list(outcome.values) == printed
        problem, scale = cli._half_stage_problem(load_problem(path),
                                                 cli.build_parser().parse_args(argv))
        if kind in ("separated", "control"):
            reference = scale * value_iterate(problem, tol=1e-13).j1.values
        else:
            reference = shapley_value_iteration(game, tol=1e-13).j1.values
        assert np.max(np.abs(outcome.values - reference)) <= outcome.error_bound + 1e-13
        if algo == "hk":   # certify's bound of hk's own table, at most tol
            bound = certify(problem, hoffman_karp(problem, tol=1e-8).values)[1]
            assert bound <= 1e-8
            assert outcome.error_bound == scale * bound

    @pytest.mark.parametrize("algo", ["vi", "hk", "poa", "naive", "async"])
    def test_default_split_of_a_weighted_game(self, tmp_path, capsys, algo):
        """Weights [1, 1.7] with every move landing in state 1 give the game
        modulus 0.85 >= sqrt(alpha): the split 1/sqrt(alpha) has a second
        half-stage at 0.85/sqrt(0.5) > 1, so the default is 1/sqrt(0.85)."""
        rng = np.random.default_rng(34)
        transitions = np.zeros((2, 2, 2, 2))
        transitions[..., 1] = 1.0
        game = DiscountedMarkovGame(rng.uniform(-1, 1, (2, 2, 2)), transitions, 0.5,
                                    weights=[1.0, 1.7])
        assert game.contraction_factor() == pytest.approx(0.85)
        path = write_game(tmp_path, game)
        argv = ["solve", path, "--algo", algo, "--tol", "1e-8"]
        assert cli.main(argv) == 0
        printed = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()]
        problem = cli._half_stage_problem(load_problem(path),
                                          cli.build_parser().parse_args(argv))[0]
        assert problem.beta == 1.0 / np.sqrt(game.contraction_factor())
        outcome = solve_outcome(argv)[algo]
        assert list(outcome.values) == printed
        reference = shapley_value_iteration(game, tol=1e-13).j1.values
        assert np.max(np.abs(outcome.values - reference)) <= outcome.error_bound + 1e-13

    @pytest.mark.parametrize("algo", ["vi", "hk", "naive", "async"])
    def test_default_split_of_a_weighted_control_file(self, tmp_path, capsys, algo):
        """The game's rule on a control file: state 0 moves to state 1 at cost
        1, state 1 stays at cost 0, and weights [1, 1.2] at alpha 0.81 give the
        modulus 0.972 >= sqrt(alpha).  The split 1/sqrt(alpha) would put the
        second half-stage at 1.08, so the default is 1/sqrt(0.972)."""
        path = tmp_path / "control.json"
        path.write_text(json.dumps({"format": 1, "kind": "minimax_control", "alpha": 0.81,
                                    "weights": [1.0, 1.2],
                                    "outcomes": [[[[[1.0, 1.0, 1]]]], [[[[1.0, 0.0, 1]]]]]}))
        beta = float(1.0 / np.sqrt(0.81 * 1.2))
        outcomes = []
        for extra in ([], ["--beta", repr(beta)]):
            argv = ["solve", str(path), "--algo", algo, "--tol", "1e-8", *extra]
            assert cli.main(argv) == 0
            printed = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()]
            assert cli._half_stage_problem(load_problem(str(path)),
                                           cli.build_parser().parse_args(argv))[1] == beta
            outcome = solve_outcome(argv)[algo]
            assert list(outcome.values) == printed
            assert np.max(np.abs(outcome.values - [1.0, 0.0])) <= outcome.error_bound + 1e-13
            outcomes.append(outcome)
        default, explicit = outcomes
        gap = np.max(np.abs(default.values - explicit.values))
        assert gap <= default.error_bound + explicit.error_bound

    def test_async_out_of_steps_prints_a_certified_table(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(2), 3, 2, 2, alpha=0.9)
        path = write_game(tmp_path, game)
        argv = ["solve", path, "--algo", "async", "--tol", "1e-10", "--max-steps", "10"]
        assert cli.main(argv) == cli.EXIT_MAX_ITERS
        capsys.readouterr()
        outcome = solve_outcome(argv)["async"]
        assert outcome.status == "MaxIters" and np.isfinite(outcome.residual())
        reference = shapley_value_iteration(game, tol=1e-13).j1.values
        assert np.max(np.abs(outcome.values - reference)) <= outcome.error_bound < np.inf

    def test_compare_gates_every_pair_at_its_certified_bounds(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(32), 5, 3, 3, alpha=0.9)
        path = write_game(tmp_path, game)
        argv = ["compare", path, "--algos", "vi,hk,poa,naive,async", "--out",
                str(tmp_path / "vals")]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        outcomes = solve_outcome(argv)
        reference = shapley_value_iteration(game, tol=1e-13).j1.values
        # naive cycles here: its table is certified too, but not gated
        converged = [a for a, o in outcomes.items() if o.status == "Converged"]
        assert converged == ["vi", "hk", "poa", "async"]
        for algo, outcome in outcomes.items():
            printed = (tmp_path / f"vals.{algo}.csv").read_text().splitlines()[1:]
            assert [float(r.split(",")[1]) for r in printed] == list(outcome.values)
            assert np.max(np.abs(outcome.values - reference)) <= outcome.error_bound + 1e-13
        pairs = [ln.split() for ln in lines if ln.startswith("# |")]
        assert len(pairs) == 6
        for _, a, _, b, _, gap, _, gate in pairs:
            a, b = a.lstrip("|"), b.rstrip("|")
            bound = outcomes[a].error_bound + outcomes[b].error_bound
            assert gate.rstrip(")") == f"{bound:.3e}" and float(gap) <= bound
