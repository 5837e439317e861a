"""Command-line front end: solve, compare, counterexample, aggregate-solve.

Exit codes: 0 converged, 2 cycled, 3 iteration budget exhausted, 1 for
I/O, validation, or usage errors.  Value tables and traces are CSV with a
header row; problem files are versioned JSON.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import async_pi, models
from .aggregation import (AggregationProbabilities, RepresentativeSets,
                          solve_with_aggregation)
from .classic_pi import (PIStatus, find_oscillating_game, hoffman_karp,
                         naive_separated_pi, pollatschek_avi_itzhak)
from .core import ValueTable, certify, value_iterate
from .errors import (InputFieldError, MaxItersExceeded, MaxStepsExceeded,
                     MinimaxPIError, ValidationError)
from .problem_io import game_payload, load_problem, save_problem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CYCLED = 2
EXIT_MAX_ITERS = 3

_ALGOS = ("vi", "hk", "poa", "naive", "async")
_GAME_KINDS = ("discounted_markov_game", "terminating_markov_game")
_STATUS_EXIT = {PIStatus.CONVERGED: EXIT_OK, PIStatus.CYCLED: EXIT_CYCLED,
                PIStatus.MAX_ITERS: EXIT_MAX_ITERS}


_SCHEDULE_PARAMS = {"round_robin": ("k",), "random": ("seed", "k"),
                    "partitioned": ("p", "k"), "delayed": ("B", "inner")}


def _parse_params(name, text):
    params = {}
    for item in filter(None, text.split(",")):
        key, _, value = item.partition("=")
        if not value:
            raise ValidationError(f"bad schedule parameter {item!r}")
        if key not in _SCHEDULE_PARAMS[name]:
            raise ValidationError(f"schedule parameter {key} is not one of {name}'s: "
                                  + ", ".join(_SCHEDULE_PARAMS[name]))
        if key in params:
            raise ValidationError(f"schedule parameter {key} is given twice")
        params[key] = value
    return params


def _int_param(params, key, default, low):
    """Schedule parameter ``key`` (``default`` if absent), an integer >= ``low`` >= 0."""
    text = params.get(key, str(default))
    if not text.isdecimal() or int(text) < low:
        raise ValidationError(f"schedule parameter {key} must be an integer >= {low}, "
                              f"got {text!r}")
    return int(text)


def _below_2_63(key, value):
    """``value``, refused from 2**63 up: numpy's generator draws no wider
    bound (B), and a cycle repeats an operation no more often (k)."""
    if value >= 2**63:
        raise ValidationError(f"schedule parameter {key} must be below 2**63, got {value}")
    return value


def parse_schedule(spec):
    """Build a schedule from the mini-language, e.g. ``round_robin:k=10``,
    ``random:seed=7``, ``partitioned:p=4``, ``delayed:B=3,inner=round_robin``.
    A parameter the schedule does not take or that is given twice, and a
    delayed inner schedule, are refused."""
    if spec is None:
        return async_pi.round_robin()
    name, _, rest = spec.partition(":")
    if name not in _SCHEDULE_PARAMS:
        raise ValidationError(f"unknown schedule {name!r}")
    if name == "delayed":
        head, found, inner_spec = rest.partition("inner=")
        if not found:
            raise ValidationError("delayed schedule needs inner=<spec>")
        params = _parse_params(name, head.rstrip(","))
        if inner_spec.partition(":")[0] == "delayed":
            raise ValidationError(f"schedule parameter inner must not be delayed, "
                                  f"got {inner_spec!r}")
        staleness = _below_2_63("B", _int_param(params, "B", 1, 0))
        return async_pi.delayed(parse_schedule(inner_spec), staleness)
    params = _parse_params(name, rest)
    k = _below_2_63("k", _int_param(params, "k", async_pi.DEFAULT_EVALS, 0))
    if name == "round_robin":
        return async_pi.round_robin(k)
    if name == "random":
        if "seed" not in params:
            raise ValidationError("random schedule needs seed=<int>")
        return async_pi.random_fair(_int_param(params, "seed", None, 0), k)
    return async_pi.partitioned(_int_param(params, "p", async_pi.DEFAULT_BLOCKS, 1), k)


@dataclass
class SolveOutcome:
    exit_code: int
    values: np.ndarray
    iterations: int
    residual: callable   # () -> float: only compare prints it, so computed on demand
    status: str
    trace: list
    error_bound: float   # certified error of values, as printed


def _half_stage_problem(loaded, args):
    """The half-stage problem of a loaded file and the scale its J1 prints
    at: 1 for a separated model, else :func:`models.split_beta` of
    ``--beta``, the file's, or none."""
    if loaded.kind == "separated_model":
        return models.separated_model_to_problem(loaded.model), 1.0
    beta = models.split_beta(loaded.model, args.beta if args.beta is not None else loaded.beta)
    build = (models.separate_markov_game if loaded.kind in _GAME_KINDS
             else models.minimax_control_to_problem)
    return build(loaded.model, beta), beta


def _outcome(problem, scale, j1, status, iterations, rows, bound=None):
    """The printed answer: J1 at ``scale`` and its certified bound.

    ``bound`` is the certificate a solver already holds for j1 (vi's, or
    tol for a converged async run); without one the answer is
    :func:`certify`'s estimate of j1 and its bound.  The residual is ``r``
    of the printed table."""
    if bound is None:
        j1, bound, _ = certify(problem, j1)
    return SolveOutcome(_STATUS_EXIT[status], scale * j1.values, iterations,
                        lambda: certify(problem, j1)[2], status.value, rows,
                        scale * float(np.max(problem.space1.weights)) * bound)


def _rows(kind, residuals):
    return [(t + 1, kind, "all", r, 0.0) for t, r in enumerate(residuals)]


def _solve(loaded, problem, scale, algo, args):
    """Run ``algo`` and certify its J1 on the half-stage ``problem``."""
    if algo == "hk":
        # stops once certify's bound of its J1 is at most tol; the estimate
        # it returns is certified again here
        result = hoffman_karp(problem, tol=args.tol, max_iters=args.max_steps)
        return _outcome(problem, scale, result.values, result.status, result.iterations,
                        _rows("Iteration", result.residuals))
    if algo == "poa":
        if loaded.kind not in _GAME_KINDS:
            raise ValidationError(f"algorithm {algo!r} needs a Markov game problem")
        # stops when a step moves the game values by at most tol
        result = pollatschek_avi_itzhak(loaded.model, tol=args.tol, max_iters=args.max_steps,
                                        optimistic_k=args.optimistic_k)
        return _outcome(problem, scale, ValueTable(problem.space1, result.values.values / scale),
                        result.status, result.iterations, _rows("Iteration", result.residuals))
    if algo == "vi":
        result = value_iterate(problem, tol=args.tol, max_iters=args.max_steps)
        return _outcome(problem, scale, result.j1, PIStatus.CONVERGED, result.iterations,
                        _rows("Sweep", result.residuals), result.error_bound)
    if algo == "naive":
        # naive's J2 on a game is a policy section, so J1 is certified alone
        result = naive_separated_pi(problem, tol=args.tol, max_iters=args.max_steps,
                                    optimistic_k=args.optimistic_k)
        return _outcome(problem, scale, result.values[0], result.status, result.iterations,
                        _rows("Iteration", result.residuals))
    schedule = parse_schedule(args.schedule)
    try:
        state, trace = async_pi.run(problem, schedule, tol=args.tol,
                                    max_steps=args.max_steps, seed=args.seed,
                                    trace_out=[] if args.trace else None)
        status, bound = PIStatus.CONVERGED, args.tol
    except MaxStepsExceeded as exc:
        state, trace, status, bound = exc.state, exc.trace, PIStatus.MAX_ITERS, None
    # trace rows are (step, kind, subset, residual1, residual2) tuples already
    return _outcome(problem, scale, state.j1, status, state.t, trace, bound)


def _write_values(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def _write_trace(path, algorithm, rows):
    # the wall_clock column is reserved: emitting measured times would break
    # the command's byte-for-byte determinism guarantee
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,algorithm,kind,subset,residual1,residual2,wall_clock\n")
        for step, kind, subset, r1, r2 in rows:
            fh.write(f"{step},{algorithm},{kind},{subset},{float(r1)!r},{float(r2)!r},0.0\n")


def cmd_solve(args):
    loaded = load_problem(args.problem)
    outcome = _solve(loaded, *_half_stage_problem(loaded, args), args.algo, args)
    for i, v in enumerate(outcome.values):
        print(f"{i},{float(v)!r}")
    print(f"# status={outcome.status} iterations={outcome.iterations}", file=sys.stderr)
    if args.out:
        _write_values(args.out, outcome.values)
    if args.trace:
        _write_trace(args.trace, args.algo, outcome.trace)
    return outcome.exit_code


def cmd_compare(args):
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if len(algos) < 2:
        raise ValidationError("compare needs at least two algorithms")
    for algo in algos:
        if algo not in _ALGOS:
            raise ValidationError(f"unknown algorithm {algo!r}")
    loaded = load_problem(args.problem)
    problem, scale = _half_stage_problem(loaded, args)
    outcomes = {algo: _solve(loaded, problem, scale, algo, args) for algo in algos}
    print(f"{'algorithm':<10} {'status':<10} {'iterations':>10} {'residual':>12}")
    for algo in algos:
        o = outcomes[algo]
        print(f"{algo:<10} {o.status:<10} {o.iterations:>10} {o.residual():>12.3e}")
    # each pair may differ by the sum of its answers' certified error bounds
    converged = [a for a in algos if outcomes[a].status == "Converged"]
    disagree = []
    for i, a in enumerate(converged):
        for b in converged[i + 1 :]:
            gap = float(np.max(np.abs(outcomes[a].values - outcomes[b].values)))
            gate = outcomes[a].error_bound + outcomes[b].error_bound
            print(f"# |{a} - {b}| = {gap!r} (gate {gate:.3e})")
            if gap > gate:
                disagree.append(f"|{a} - {b}| = {gap!r} > gate {gate:.3e}")
    if args.out:
        for algo in algos:
            _write_values(f"{args.out}.{algo}.csv", outcomes[algo].values)
    if disagree:
        print("# converged algorithms disagree beyond their error bounds: "
              + "; ".join(disagree), file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_counterexample(args):
    game, report = find_oscillating_game()
    save_problem(game_payload(game), args.out)
    note = args.out + ".cycle.txt"
    with open(note, "w", encoding="utf-8") as fh:
        fh.write("All-pairs policy iteration oscillates on this instance.\n")
        fh.write(f"cycle length: {report['cycle_length']}\n")
        fh.write(f"alternating values: {report['cycling_values']}\n")
        fh.write(f"stage payoffs: {report['payoffs']}\n")
        fh.write(f"per-pair effective discounts: {report['stage_discounts']}\n")
    print(f"wrote {args.out} (cycle of length {report['cycle_length']}; "
          f"values alternate between {report['cycling_values']})")
    return EXIT_OK


def cmd_aggregate_solve(args):
    loaded = load_problem(args.problem)
    if loaded.kind in _GAME_KINDS:
        raise ValidationError("aggregate-solve needs a separated or control problem")
    problem, scale = _half_stage_problem(loaded, args)
    block = loaded.aggregation
    if not block or "reps1" not in block or "reps2" not in block:
        raise ValidationError("problem file lacks an aggregation block with reps1/reps2")
    try:
        reps = RepresentativeSets(block["reps1"], block["reps2"])
        phi = None
        if block.get("phi1") is not None or block.get("phi2") is not None:
            if block.get("phi1") is None or block.get("phi2") is None:
                raise ValidationError("supply both phi1 and phi2 or neither")
            phi = AggregationProbabilities(block["phi1"], block["phi2"])
        sol = solve_with_aggregation(problem, reps, phi, tol=args.tol,
                                     max_steps=args.max_steps)
    except InputFieldError as exc:
        raise ValidationError(str(exc), f"$.aggregation.{exc.field}") from exc
    print(f"# lookahead-pair value vs exact fixed point: gap = {sol.gap!r}")
    for i, v in enumerate(sol.j1_full.values):
        print(f"{i},{float(scale * v)!r}")
    if args.out:
        _write_values(args.out, scale * sol.j1_full.values)
    return EXIT_OK


def _add_common(parser):
    """The problem file and the options every solving subcommand reads."""
    parser.add_argument("problem")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--max-steps", type=int, default=10**6)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--out", default=None)


def _add_algorithm_options(parser):
    parser.add_argument("--schedule", default=None,
                        help="round_robin:k=10 | random:seed=S | partitioned:p=4 "
                             "| delayed:B=3,inner=round_robin")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--optimistic-k", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minimaxpi",
        description="Solvers for sequential zero-sum games and minimax control")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on a problem file")
    _add_common(p)
    p.add_argument("--algo", required=True, choices=_ALGOS)
    _add_algorithm_options(p)
    p.add_argument("--trace", default=None)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("compare", help="run several algorithms and cross-check")
    _add_common(p)
    p.add_argument("--algos", required=True, help="comma-separated list")
    _add_algorithm_options(p)
    # compare writes no trace, so its async solves keep none
    p.set_defaults(handler=cmd_compare, trace=None)

    p = sub.add_parser("counterexample",
                       help="emit a game on which all-pairs policy iteration cycles")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("aggregate-solve",
                       help="solve a reduced problem over representative states")
    _add_common(p)
    p.set_defaults(handler=cmd_aggregate_solve)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 on --help
        if exc.code in (0, None):
            raise
        return EXIT_ERROR
    try:   # refuse a --tol, --max-steps, --optimistic-k or --seed no solver can honour
        if not 0.0 < vars(args).get("tol", 1.0) < np.inf:
            raise ValidationError(f"--tol must be positive and finite, got {args.tol!r}")
        if vars(args).get("max_steps", 1) < 1:
            raise ValidationError(f"--max-steps must be at least 1, got {args.max_steps}")
        if vars(args).get("optimistic_k") is not None and args.optimistic_k < 1:
            raise ValidationError(f"--optimistic-k must be at least 1, got {args.optimistic_k}")
        if vars(args).get("seed", 0) < 0:
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        return args.handler(args)
    except (MaxItersExceeded, MaxStepsExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_ITERS
    except (MinimaxPIError, OSError) as exc:   # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
