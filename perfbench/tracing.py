"""Per-layer spans and counters, recorded from outside the library.

The traced pass rebinds public names where ``minimaxpi`` looks them up at
call time (a module global, a name one module imported from another, or a
class attribute) with a wrapper that opens a span around the call.  Spans
nest on a stack; each closes into an aggregate keyed by (request, span,
parent span) holding its call count, inclusive time and self time (its
duration minus the time its child spans cover).

A hook whose target is missing is skipped and listed; every metric that
needs it is left out of the report instead of failing the run.
"""

import contextlib
import functools
import importlib
import os
from collections import Counter
from time import perf_counter

KERNELS = ("min_eval", "min_improve", "max_eval", "max_improve")
_KERNEL_METHODS = dict(zip(KERNELS, ("min_eval_values", "min_improve",
                                     "max_eval_entries", "max_improve")))
STEP_KINDS = ("MinEval", "MinImprove", "MaxEval", "MaxImprove")


def _count_subset(tracer, args, result):
    tracer.counters["kernel.state_updates"] += len(args[1])


def _count_table(nbytes):
    def after(tracer, args, result):
        tracer.counters["table.bytes_copied"] += nbytes(args[0])
    return after


def _count_load(tracer, args, result):
    tracer.counters["io.bytes_read"] += os.path.getsize(args[0])


def _count_trace_file(tracer, args, result):
    tracer.counters["io.trace_bytes"] += os.path.getsize(args[0])


def _count_gap(tracer, args, result):
    if tracer.active["stop.check"]:
        tracer.counters["stop.exact_gap_calls"] += 1


def _count_lp(tracer, args, result):
    if tracer.active["stop.check"]:
        tracer.counters["stop.lp_calls"] += 1


def _count_step(tracer, args, result):
    tracer.counters["exec.steps." + args[2].kind.value] += 1


def _count_check(tracer, args, result):
    tracer.counters["stop.hits"] += bool(result)
    if not tracer.active["agg.solve"]:
        tracer.counters["solver.async.checks_to_stop"] += 1


def _count_run(tracer, args, result):
    state, trace = result
    tracer.counters["exec.trace_rows"] += len(trace)
    if not tracer.active["agg.solve"]:
        tracer.counters["solver.async.iterations"] += state.t


def _count_iterations(algo):
    def after(tracer, args, result):
        tracer.counters[f"solver.{algo}.iterations"] += result.iterations
    return after


def _count_evaluators(tracer, args, result):
    problem = args[0]
    counters = tracer.counters

    def counted(fn):
        @functools.wraps(fn)
        def call(*a):
            counters["kernel.evaluator_calls"] += 1
            return fn(*a)
        return call

    object.__setattr__(problem, "eval1", counted(problem.eval1))
    object.__setattr__(problem, "eval2", counted(problem.eval2))


def _kernel_hooks():
    hooks = []
    for owner in ("minimaxpi.core:SeparatedProblem",
                  "minimaxpi.models:MarkovSeparatedProblem"):
        for kernel, method in _KERNEL_METHODS.items():
            hooks.append((f"kernel.{kernel}", f"{owner}.{method}", _count_subset))
    return hooks


# (span name, "module:attribute path", after-call counter or None).  A span
# name may have several hooks: one per place the library looks the name up.
HOOKS = [
    ("matrix_game.lp", "minimaxpi.matrix_game:min_simplex_max_linear", _count_lp),
    ("matrix_game.lp", "minimaxpi.models:min_simplex_max_linear", _count_lp),
    ("matrix_game.saddle", "minimaxpi.models:solve_matrix_game", None),
    ("matrix_game.saddle", "minimaxpi.classic_pi:solve_matrix_game", None),
    ("matrix_game.fallback", "minimaxpi.matrix_game:_enumerate_min_max", None),
    *_kernel_hooks(),
    ("problem.init", "minimaxpi.core:SeparatedProblem.__post_init__",
     _count_evaluators),
    ("table.build", "minimaxpi.core:ValueTable.__post_init__",
     _count_table(lambda t: t.values.nbytes)),
    ("table.build", "minimaxpi.models:ColumnMaxTable.__post_init__",
     _count_table(lambda t: sum(c.nbytes for c in t.cols))),
    ("table.exact_gap", "minimaxpi.models:ColumnMaxTable.diff_norm", _count_gap),
    ("stop.check", "minimaxpi.async_pi:_converged", _count_check),
    ("exec.run", "minimaxpi.async_pi:run", _count_run),
    ("exec.step", "minimaxpi.async_pi:_apply", _count_step),
    ("exec.probe", "minimaxpi.async_pi:_probe_diff", None),
    ("solver.vi", "minimaxpi.cli:value_iterate", _count_iterations("vi")),
    ("solver.vi", "minimaxpi.models:shapley_value_iteration", _count_iterations("vi")),
    ("solver.hk", "minimaxpi.cli:hoffman_karp", _count_iterations("hk")),
    ("solver.poa", "minimaxpi.cli:pollatschek_avi_itzhak", _count_iterations("poa")),
    ("io.load", "minimaxpi.cli:load_problem", _count_load),
    ("io.build", "minimaxpi.models:separated_model_to_problem", None),
    ("io.build", "minimaxpi.models:separate_markov_game", None),
    ("io.build", "minimaxpi.models:minimax_control_to_problem", None),
    ("io.write_values", "minimaxpi.cli:_write_values", None),
    ("io.write_trace", "minimaxpi.cli:_write_trace", _count_trace_file),
    ("agg.solve", "minimaxpi.cli:solve_with_aggregation", None),
    ("agg.build", "minimaxpi.aggregation:build_aggregate", None),
    ("agg.pair_eval", "minimaxpi.aggregation:policy_pair_value", None),
    ("agg.exact", "minimaxpi.core:value_iterate", None),
]


def _resolve(target):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


class Tracer:
    """Span stack, span aggregates and counters for one traced pass."""

    def __init__(self):
        self.stack = []
        self.stats = {}
        self.counters = Counter()
        self.active = Counter()
        self.request = None
        self.available = set()
        self.missing = []
        self._originals = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name):
        self.active[name] += 1
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        self.active[name] -= 1
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += duration
        key = (self.request, name, parent)
        agg = self.stats.get(key)
        if agg is None:
            agg = self.stats[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def install(self, hooks=HOOKS):
        for name, target, after in hooks:
            owner, attr = _resolve(target)
            if owner is None:
                self.missing.append(target)
                continue
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))
            self.available.add(name)
        # a span name counts as hooked only if every place it is looked up is
        for name, target, _ in hooks:
            if target in self.missing:
                self.available.discard(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- report ---------------------------------------------------------------

    def spans(self):
        """Aggregated spans: one row per (request, span, parent span)."""
        return [{"request": req, "span": name, "parent": parent, "calls": c,
                 "incl_s": incl, "self_s": own}
                for (req, name, parent), (c, incl, own) in sorted(
                    self.stats.items(), key=lambda kv: (str(kv[0][0]), -kv[1][1]))]

    def _total(self, name, field=1, under=None):
        """Sum one aggregate field over spans of a name (optionally by parent)."""
        return sum(v[field] for (_, n, p), v in self.stats.items()
                   if n == name and (under is None or p == under))

    def metrics(self):
        """Per-layer metrics whose hooks are all in place: {name: (value, unit)}."""
        c, total = self.counters, self._total
        out = {}

        def put(needs, name, value, unit):
            if all(n in self.available for n in needs):
                out[name] = (float(value), unit)

        lp_calls = total("matrix_game.lp", 0)
        put(["matrix_game.lp"], "matrix_game.lp_calls", lp_calls, "count")
        put(["matrix_game.lp"], "matrix_game.lp_s", total("matrix_game.lp"), "s")
        put(["matrix_game.lp"], "matrix_game.lp_us_per_call",
            1e6 * total("matrix_game.lp") / max(lp_calls, 1), "us")
        put(["matrix_game.saddle"], "matrix_game.saddle_calls",
            total("matrix_game.saddle", 0), "count")
        put(["matrix_game.saddle"], "matrix_game.saddle_s",
            total("matrix_game.saddle"), "s")
        fallbacks = total("matrix_game.fallback", 0)
        put(["matrix_game.fallback"], "matrix_game.fallbacks", fallbacks, "count")
        put(["matrix_game.fallback", "matrix_game.lp"], "matrix_game.fallback_frac",
            fallbacks / max(lp_calls, 1), "ratio")

        kernel_names = [f"kernel.{k}" for k in KERNELS]
        for k in KERNELS:
            put([f"kernel.{k}"], f"kernel.{k}.calls", total(f"kernel.{k}", 0), "count")
            put([f"kernel.{k}"], f"kernel.{k}.self_s", total(f"kernel.{k}", 2), "s")
        updates = c["kernel.state_updates"]
        put(kernel_names, "kernel.state_updates", updates, "count")
        put(kernel_names, "kernel.ns_per_state_update",
            1e9 * sum(total(n, 2) for n in kernel_names) / max(updates, 1), "ns")
        put(["problem.init"], "kernel.evaluator_calls",
            c["kernel.evaluator_calls"], "count")

        put(["table.build"], "table.builds", total("table.build", 0), "count")
        put(["table.build"], "table.build_s", total("table.build"), "s")
        put(["table.build"], "table.bytes_copied", c["table.bytes_copied"], "bytes")

        checks = total("stop.check", 0)
        put(["stop.check"], "stop.checks", checks, "count")
        put(["stop.check"], "stop.s", total("stop.check"), "s")
        put(["stop.check", "matrix_game.lp"], "stop.lp_calls", c["stop.lp_calls"], "count")
        put(["stop.check", "table.exact_gap"], "stop.exact_gap_calls",
            c["stop.exact_gap_calls"], "count")
        put(["stop.check", "exec.run"], "stop.share",
            total("stop.check") / max(total("exec.run"), 1e-12), "ratio")
        put(["stop.check"], "stop.hit_frac", c["stop.hits"] / max(checks, 1), "ratio")

        steps = total("exec.step", 0)
        put(["exec.step"], "exec.steps", steps, "count")
        for kind in STEP_KINDS:
            put(["exec.step"], f"exec.steps.{kind}", c["exec.steps." + kind], "count")
        put(["exec.run", "exec.step"], "exec.step_overhead_us",
            1e6 * total("exec.run", 2) / max(steps, 1), "us")
        put(["exec.probe"], "exec.probe_s", total("exec.probe"), "s")
        put(["exec.run"], "exec.trace_rows", c["exec.trace_rows"], "count")

        for algo in ("vi", "hk", "poa"):
            put([f"solver.{algo}"], f"solver.{algo}.iterations",
                c[f"solver.{algo}.iterations"], "count")
        put(["exec.run"], "solver.async.iterations", c["solver.async.iterations"], "count")
        put(["exec.run", "stop.check"], "solver.async.checks_to_stop",
            c["solver.async.checks_to_stop"], "count")

        put(["io.load"], "io.load_s", total("io.load"), "s")
        put(["io.load"], "io.bytes_read", c["io.bytes_read"], "bytes")
        put(["io.build"], "io.build_s", total("io.build"), "s")
        put(["io.write_values"], "io.write_values_s", total("io.write_values"), "s")
        put(["io.write_trace"], "io.write_trace_s", total("io.write_trace"), "s")
        put(["io.write_trace"], "io.trace_bytes", c["io.trace_bytes"], "bytes")

        put(["agg.build"], "agg.build_s", total("agg.build"), "s")
        put(["agg.solve", "exec.run"], "agg.reduced_solve_s",
            total("exec.run", under="agg.solve"), "s")
        put(["agg.pair_eval"], "agg.pair_eval_s", total("agg.pair_eval"), "s")
        put(["agg.exact"], "agg.exact_s", total("agg.exact"), "s")
        return out


@contextlib.contextmanager
def request_span(tracer, request):
    """Mark one request as the root of the spans it causes."""
    tracer.request = request.name
    tracer.enter("request." + request.algo)
    try:
        yield
    finally:
        tracer.exit()
        tracer.request = None
