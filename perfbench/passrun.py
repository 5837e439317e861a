"""One pass of a workload in a fresh process.

Reads the plan the driver wrote (problem files, requests, oracle tables),
runs every request through ``minimaxpi.cli.main`` in process, checks each
answer against its oracle outside the timed region, and writes a JSON
report: per-request seconds and verdicts, the set-up time, peak resident
memory and, for a traced pass, the span aggregates and per-layer metrics.
The set-up and the quick requests are timed as medians of samples taken
after every long request (see ``QuickJob``); a traced pass repeats
nothing, so its counts are those of one run of each request.

Usage: python3 perfbench/passrun.py PLAN.json REPORT.json [--traced]
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from workloads import Request

SHORT_S = 0.05   # a request quicker than this is re-timed after later long requests
SLOT_S = 0.02    # time given to each quick job after every long request


def _build(loaded, models):
    """The solver problem the CLI builds for a loaded file."""
    if loaded.kind == "separated_model":
        return models.separated_model_to_problem(loaded.model)
    if loaded.kind == "minimax_control":
        return models.minimax_control_to_problem(loaded.model, loaded.beta)
    return models.separate_markov_game(loaded.model, loaded.beta)


class QuickJob:
    """A job too quick to time once, re-timed in a slot after every long request.

    Spreading the samples over the whole pass, instead of taking them in one
    burst, exposes them to the same machine load as the long requests.
    ``run`` returns a result; a repeat whose result differs from the first
    marks the job as inconsistent.
    """

    def __init__(self, run, samples=(), first=None):
        self.run = run
        self.samples = list(samples)
        self.first = first
        self.consistent = True

    def slot(self):
        spent = 0.0
        while spent < SLOT_S:
            start = perf_counter()
            result = self.run()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
            if self.first is None:
                self.first = result
            elif result != self.first:
                self.consistent = False

    def median(self):
        return statistics.median(self.samples)


def _rerun(cli, request):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(request.argv))
        return rc, out.getvalue()
    return run


def _parse_values(text):
    values = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        index, _, value = line.partition(",")
        if int(index) != len(values):
            raise ValueError(f"value rows out of order at {line!r}")
        values.append(float(value))
    return np.array(values)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(request, rc, stdout, oracle, oracle_err):
    """Judge one request; returns (reason or None, err, err / bound, output hashes)."""
    if rc != request.exit_code:
        return f"exit code {rc}, expected {request.exit_code}", None, None, {}
    hashes = {}
    for path in request.outputs:
        if not os.path.exists(path):
            return f"missing output {path}", None, None, {}
        hashes[os.path.basename(path)] = _sha256(path)
    if request.oracle is None:
        return None, None, None, hashes
    try:
        values = _parse_values(stdout)
    except ValueError as exc:
        return f"unreadable table: {exc}", None, None, hashes
    if values.shape != oracle.shape:
        return f"{values.size} values, expected {oracle.size}", None, None, hashes
    err = float(np.max(np.abs(values - oracle)))
    ratio = err / request.bound
    for path in request.outputs:
        if path.endswith(".values.csv"):
            with open(path, encoding="utf-8") as fh:
                written = _parse_values("\n".join(fh.read().splitlines()[1:]))
            if not np.array_equal(written, values):
                return f"{path} differs from the printed table", err, ratio, hashes
    # the oracle's own certified error is given to the answer's benefit
    if not err <= request.bound + oracle_err:
        return f"misses the oracle by {err:.3e} > {request.bound:.3e}", err, ratio, hashes
    return None, err, ratio, hashes


def run_pass(plan, traced):
    root = plan["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    from minimaxpi import cli, models, problem_io

    def set_up():
        for path in plan["problems"]:
            _build(problem_io.load_problem(path), models)

    oracles = np.load(plan["oracle"])
    tracer = setup = None
    quick = []
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup = QuickJob(set_up)
        quick.append(setup)
        setup.slot()
    rows = []
    for spec in plan["requests"]:
        request = Request(**{**spec, "argv": tuple(spec["argv"]),
                             "outputs": tuple(spec["outputs"])})
        for path in request.outputs:
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        span = tracing.request_span(tracer, request) if tracer else contextlib.nullcontext()
        error = None
        start = perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(request.argv))
            except Exception as exc:   # a crash is a failed request, not a failed pass
                rc, error = None, repr(exc)
        seconds = perf_counter() - start
        oracle = oracle_err = None
        if request.oracle is not None:
            oracle = oracles[request.oracle]
            oracle_err = float(oracles[request.oracle + ".err"])
        reason, miss, ratio, hashes = check(request, rc, out.getvalue(), oracle, oracle_err)
        status = err.getvalue().partition("# status=")[2].split()
        rows.append({"name": request.name, "algo": request.algo, "kind": request.kind,
                     "seconds": seconds, "status": " ".join(status[:2]),
                     "failure": error or reason, "err": miss,
                     "err_over_bound": ratio, "hashes": hashes})
        if seconds >= SHORT_S:
            for job in quick:
                job.slot()
        elif not traced and not request.outputs and error is None:
            rows[-1]["job"] = QuickJob(_rerun(cli, request), [seconds], (rc, out.getvalue()))
            quick.append(rows[-1]["job"])
    for row in rows:
        job = row.pop("job", None)
        if job is not None:
            row["seconds"] = job.median()
            if not job.consistent:
                row["failure"] = row["failure"] or "a repeated run gave a different answer"
    report = {"setup_s": setup.median() if setup else None, "requests": rows,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        report["spans"] = tracer.spans()
        report["missing_hooks"] = tracer.missing
    return report


def main(argv):
    plan_path, report_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    report = run_pass(plan, "--traced" in argv[2:])
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
