import json

import numpy as np
import pytest

from minimaxpi import cli
from minimaxpi.async_pi import Schedule, round_robin, run
from minimaxpi.classic_pi import naive_separated_pi
from minimaxpi.errors import NonContractive, ParseError, ValidationError
from minimaxpi.core import ValueTable
from minimaxpi.models import (minimax_control_to_problem, separated_model_to_problem,
                              shapley_value_iteration)
from minimaxpi.problem_io import game_payload, load_problem, save_problem

from helpers import random_control_model, random_markov_game, random_separated_model


def write_game(tmp_path, game, name="game.json", **extra):
    path = tmp_path / name
    save_problem(game_payload(game, **extra), path)
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
        save_problem(game_payload(game, beta=1.03), first)
        loaded = load_problem(str(first))
        save_problem(loaded.payload, second)
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
        with pytest.raises(ValidationError):
            load_problem(str(path))


class TestScheduleParser:
    def test_round_robin_params(self):
        sched = cli.parse_schedule("round_robin:k=5")
        assert isinstance(sched, Schedule)
        assert sched.period == 12

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
        ("random:seed=-1", "seed"),
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
        assert np.max(np.abs(values - oracle.values)) <= 1e-6

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
        assert np.max(np.abs(values - oracle.values)) <= 1e-6

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

    def test_separated_kind_rejects_game_algorithms(self, tmp_path, capsys):
        payload = {
            "format": 1, "kind": "separated_model", "alpha": 0.5,
            "size1": 1, "size2": 1,
            "next1": [[0]], "cost1": [[1.0]],
            "next2": [[0]], "cost2": [[2.0]],
        }
        path = tmp_path / "sep.json"
        save_problem(payload, path)
        code = cli.main(["solve", str(path), "--algo", "hk"])
        capsys.readouterr()
        assert code == 1
        code = cli.main(["solve", str(path), "--algo", "vi"])
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

    def test_single_algorithm_rejected(self, tmp_path, capsys):
        game = random_markov_game(np.random.default_rng(6), 2, 2, 2, alpha=0.5)
        path = write_game(tmp_path, game)
        code = cli.main(["compare", path, "--algos", "poa"])
        capsys.readouterr()
        assert code == 1

    def test_async_residual_is_the_composite_greedy_residual(self, tmp_path, capsys):
        model = random_separated_model(np.random.default_rng(12), 6, 5, alpha=0.8)
        payload = {"format": 1, "kind": "separated_model", "alpha": model.alpha,
                   "size1": 6, "size2": 5,
                   **{k: [a.tolist() for a in getattr(model, k)]
                      for k in ("next1", "cost1", "next2", "cost2")}}
        path = tmp_path / "sep.json"
        save_problem(payload, path)
        code = cli.main(["compare", str(path), "--algos", "vi,async", "--tol", "1e-8"])
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        assert code == 0
        problem = separated_model_to_problem(load_problem(str(path)).model)
        state, _ = run(problem, round_robin(), tol=1e-8)
        # |J1 - T1(T2 J1)|, both sweeps greedy, certifies J1 to 1e-8
        residual = state.j1.diff_norm(problem.t1_greedy(problem.t2_greedy(state.j1)[0])[0])
        assert rows["async"][3] == f"{residual:.3e}"
        assert 0.0 < residual <= 1e-8 * (1.0 - problem.alpha ** 2)

    def test_pairs_gated_at_their_error_bounds(self, tmp_path, capsys):
        path = write_control(tmp_path, slow_control_model())
        code = cli.main(["compare", path, "--algos", "vi,naive", "--tol", "1e-6"])
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("# |vi")][0]
        gap, gate = float(line.split()[5]), float(line.split()[7].rstrip(")"))
        # vi's documented accuracy tol*a/(1-a) exceeds the old 10*tol gate
        assert code == 0 and 10 * 1e-6 < gap <= gate

    def test_pair_beyond_its_gate_fails(self, tmp_path, capsys, monkeypatch):
        real = cli.value_iterate

        def off_by_1e3(problem, tol, max_iters):
            result = real(problem, tol=tol, max_iters=max_iters)
            return type(result)(ValueTable(result.j1.space, result.j1.values + 1e-3),
                                result.j2, result.iterations, result.residuals)

        monkeypatch.setattr(cli, "value_iterate", off_by_1e3)
        path = write_control(tmp_path, slow_control_model())
        code = cli.main(["compare", path, "--algos", "vi,naive", "--tol", "1e-6"])
        err = capsys.readouterr().err
        assert code == 1
        assert "|vi - naive|" in err and "> gate" in err

    def test_naive_residual_is_the_greedy_residual(self, tmp_path, capsys):
        model = slow_control_model()
        path = write_control(tmp_path, model)
        cli.main(["compare", path, "--algos", "vi,naive", "--tol", "1e-6"])
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        problem = minimax_control_to_problem(model)
        result = naive_separated_pi(problem, tol=1e-6)
        j1, j2 = result.values
        residual = max(j1.diff_bound(problem.t1_greedy(j2)[0]),
                       j2.diff_bound(problem.t2_greedy(j1)[0]))
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
    def test_requires_aggregation_block(self, tmp_path, capsys):
        payload = {
            "format": 1, "kind": "separated_model", "alpha": 0.5,
            "size1": 2, "size2": 2,
            "next1": [[0], [1]], "cost1": [[1.0], [0.5]],
            "next2": [[0], [1]], "cost2": [[2.0], [0.0]],
        }
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
