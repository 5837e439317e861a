"""Command-line front end: solve, compare, counterexample, aggregate-solve.

Exit codes: 0 converged, 2 cycled, 3 iteration budget exhausted, 1 for
I/O, validation, or usage errors.  Value tables and traces are CSV with a
header row; problem files are versioned JSON.  Set MINIMAXPI_LOG to
debug/info/warning/error for verbosity.
"""

import argparse
import functools
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import async_pi, models
from .aggregation import (AggregationProbabilities, RepresentativeSets,
                          solve_with_aggregation)
from .classic_pi import (PIStatus, find_oscillating_game, hoffman_karp,
                         naive_separated_pi, pollatschek_avi_itzhak)
from .core import bellman_residual, certify, value_iterate
from .errors import (MaxItersExceeded, MaxStepsExceeded, MinimaxPIError,
                     ValidationError)
from .problem_io import game_payload, load_problem, save_problem

log = logging.getLogger("minimaxpi")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CYCLED = 2
EXIT_MAX_ITERS = 3

_GAME_KINDS = ("discounted_markov_game", "terminating_markov_game")
_STATUS_EXIT = {PIStatus.CONVERGED: EXIT_OK, PIStatus.CYCLED: EXIT_CYCLED,
                PIStatus.MAX_ITERS: EXIT_MAX_ITERS}


def _setup_logging():
    level = os.environ.get("MINIMAXPI_LOG", "warning").lower()
    chosen = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "error": logging.ERROR}.get(level)
    if chosen is None:
        chosen = logging.WARNING
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")


def _parse_params(text):
    params = {}
    if text:
        for item in text.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if not value:
                raise ValidationError(f"bad schedule parameter {item!r}")
            params[key] = value
    return params


def _int_param(params, key, default, low):
    """Schedule parameter ``key``: an integer of at least ``low`` (>= 0)."""
    text = params.get(key, default)
    if not text.isdecimal() or int(text) < low:
        raise ValidationError(f"schedule parameter {key} must be an integer >= {low}, "
                              f"got {text!r}")
    return int(text)


def parse_schedule(spec):
    """Build a schedule from the mini-language, e.g. ``round_robin:k=10``,
    ``random:seed=7``, ``partitioned:p=4``, ``delayed:B=3,inner=round_robin``."""
    if spec is None:
        return async_pi.round_robin()
    name, _, rest = spec.partition(":")
    if name == "delayed":
        if "inner=" not in rest:
            raise ValidationError("delayed schedule needs inner=<spec>")
        head, inner_spec = rest.split("inner=", 1)
        params = _parse_params(head.rstrip(","))
        return async_pi.delayed(parse_schedule(inner_spec), _int_param(params, "B", "1", 0))
    params = _parse_params(rest)
    k = _int_param(params, "k", "10", 0)
    if name == "round_robin":
        return async_pi.round_robin(k)
    if name == "random":
        if "seed" not in params:
            raise ValidationError("random schedule needs seed=<int>")
        return async_pi.random_fair(_int_param(params, "seed", None, 0), k)
    if name == "partitioned":
        return async_pi.partitioned(_int_param(params, "p", "4", 1), k)
    raise ValidationError(f"unknown schedule {name!r}")


@dataclass
class SolveOutcome:
    exit_code: int
    values: np.ndarray | None
    iterations: int
    residual: callable   # () -> float: only compare prints it, so computed on demand
    status: str
    trace: list
    error_bound: callable   # () -> float: certified error of values, as printed


def _per_unit(space, scale):
    """Largest printed-value change per unit of weighted-norm change."""
    return scale * float(np.max(space.weights))


def _stopped_bound(tol, modulus):
    """Error bound of an iterate whose last step moved it by at most tol."""
    return tol * modulus / (1.0 - modulus) if modulus < 1.0 else float("inf")


def _pi_outcome(result, values, error_bound, residual=None):
    if residual is None:
        res = result.residuals[-1] if result.residuals else 0.0
        residual = lambda: res
    trace = [(t + 1, "Iteration", "all", r, 0.0) for t, r in enumerate(result.residuals)]
    return SolveOutcome(_STATUS_EXIT[result.status], values, result.iterations,
                        residual, result.status.value, trace, error_bound)


def _sweep_trace(residuals):
    return [(k + 1, "Sweep", "all", r, 0.0) for k, r in enumerate(residuals)]


def _solve_naive(problem, args, scale):
    result = naive_separated_pi(problem, tol=args.tol, max_iters=args.max_steps,
                                optimistic_k=args.optimistic_k)
    j1 = result.values[0]
    residual = functools.cache(lambda: bellman_residual(problem, *result.values))
    # the bound certifies J1 alone (naive's J2 on a game is a policy section)
    bound = lambda: _per_unit(problem.space1, scale) * certify(problem, j1)[1]
    return _pi_outcome(result, scale * j1.values, bound, residual)


def _solve_game(game, algo, args, file_beta=None):
    beta = args.beta if args.beta is not None else file_beta
    modulus = game.contraction_factor()
    stopped = lambda: _per_unit(game.space, 1.0) * _stopped_bound(args.tol, modulus)
    if algo == "vi":
        result = models.shapley_value_iteration(game, tol=args.tol, max_iters=args.max_steps)
        return SolveOutcome(EXIT_OK, result.values, result.iterations,
                            lambda: result.residuals[-1], "Converged",
                            _sweep_trace(result.residuals), stopped)
    if algo == "hk":
        result = hoffman_karp(game, tol=args.tol, max_iters=args.max_steps)
        return _pi_outcome(result, result.values.values, stopped)
    if algo == "poa":
        result = pollatschek_avi_itzhak(game, tol=args.tol, max_iters=args.max_steps,
                                        optimistic_k=args.optimistic_k)
        return _pi_outcome(result, result.values.values, stopped)
    sep = models.separate_markov_game(game, beta)
    if algo == "naive":
        return _solve_naive(sep, args, sep.beta.beta)
    return _solve_async(sep, args, scale=sep.beta.beta)


def _solve_async(problem, args, scale=1.0):
    schedule = parse_schedule(args.schedule)
    try:
        state, trace = async_pi.run(problem, schedule, tol=args.tol,
                                    max_steps=args.max_steps, seed=args.seed,
                                    trace_out=[] if args.trace else None)
    except MaxStepsExceeded as exc:
        rows = [(r.step, r.kind, r.subset, r.residual1, r.residual2)
                for r in (exc.trace or [])]
        values = scale * exc.state.j1.values if exc.state is not None else None
        return SolveOutcome(EXIT_MAX_ITERS, values,
                            exc.state.t if exc.state else args.max_steps,
                            lambda: float("nan"), "MaxIters", rows, lambda: float("nan"))
    rows = [(r.step, r.kind, r.subset, r.residual1, r.residual2) for r in trace]
    return SolveOutcome(EXIT_OK, scale * state.j1.values, state.t,
                        lambda: certify(problem, state.j1)[0], "Converged", rows,
                        lambda: _per_unit(problem.space1, scale) * args.tol)


def _solve_separated(problem, scale, algo, args):
    if algo == "vi":
        result = value_iterate(problem, tol=args.tol, max_iters=args.max_steps)
        return SolveOutcome(EXIT_OK, scale * result.j1.values, result.iterations,
                            lambda: result.residuals[-1], "Converged",
                            _sweep_trace(result.residuals),
                            lambda: (_per_unit(problem.space1, scale)
                                     * _stopped_bound(args.tol, problem.alpha)))
    if algo == "naive":
        return _solve_naive(problem, args, scale)
    if algo == "async":
        return _solve_async(problem, args, scale=scale)
    raise ValidationError(f"algorithm {algo!r} needs a Markov game problem")


def _explicit_problem(loaded, args):
    """A separated or control file's problem and the scale its table prints
    at: 1, or the control split's beta (``--beta``, the file's, or default)."""
    if loaded.kind == "separated_model":
        return models.separated_model_to_problem(loaded.model), 1.0
    beta = models._as_beta(args.beta if args.beta is not None else loaded.beta,
                           loaded.model.alpha)
    return models.minimax_control_to_problem(loaded.model, beta), beta.beta


def _solve_dispatch(loaded, algo, args):
    if loaded.kind in _GAME_KINDS:
        return _solve_game(loaded.model, algo, args, file_beta=loaded.beta)
    return _solve_separated(*_explicit_problem(loaded, args), algo, args)


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
    outcome = _solve_dispatch(loaded, args.algo, args)
    log.info("solve %s with %s: %s after %d iterations",
             args.problem, args.algo, outcome.status, outcome.iterations)
    if outcome.values is not None:
        for i, v in enumerate(outcome.values):
            print(f"{i},{float(v)!r}")
    print(f"# status={outcome.status} iterations={outcome.iterations}", file=sys.stderr)
    if args.out and outcome.values is not None:
        _write_values(args.out, outcome.values)
    if args.trace:
        _write_trace(args.trace, args.algo, outcome.trace)
    return outcome.exit_code


def cmd_compare(args):
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if len(algos) < 2:
        raise ValidationError("compare needs at least two algorithms")
    loaded = load_problem(args.problem)
    outcomes = {}
    for algo in algos:
        outcomes[algo] = _solve_dispatch(loaded, algo, args)
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
            gate = outcomes[a].error_bound() + outcomes[b].error_bound()
            print(f"# |{a} - {b}| = {gap!r} (gate {gate:.3e})")
            if gap > gate:
                disagree.append(f"|{a} - {b}| = {gap!r} > gate {gate:.3e}")
    if args.out:
        for algo in algos:
            if outcomes[algo].values is not None:
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
    problem, scale = _explicit_problem(loaded, args)
    block = loaded.aggregation
    if not block or "reps1" not in block or "reps2" not in block:
        raise ValidationError("problem file lacks an aggregation block with reps1/reps2")
    reps = RepresentativeSets(np.asarray(block["reps1"], dtype=int),
                              np.asarray(block["reps2"], dtype=int))
    phi = None
    if block.get("phi1") is not None or block.get("phi2") is not None:
        if block.get("phi1") is None or block.get("phi2") is None:
            raise ValidationError("supply both phi1 and phi2 or neither")
        phi = AggregationProbabilities(np.asarray(block["phi1"], dtype=float),
                                       np.asarray(block["phi2"], dtype=float))
    sol = solve_with_aggregation(problem, reps, phi, tol=args.tol,
                                 max_steps=args.max_steps)
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
    p.add_argument("--algo", required=True, choices=("vi", "hk", "poa", "naive", "async"))
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
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 on --help
        if exc.code in (0, None):
            raise
        return EXIT_ERROR
    try:
        return args.handler(args)
    except (MaxItersExceeded, MaxStepsExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_ITERS
    except MinimaxPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
