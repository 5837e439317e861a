"""minimaxpi benchmark: time to a certified answer, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload games --seed 1 --seconds 55 --trace 0

The seed generates the problem files; the independent oracles in
``oracle.py`` solve them outside any timed region.  Each pass runs in a
fresh single-threaded process (``passrun.py``) that times the set-up and
every request through ``minimaxpi.cli.main``, and checks every answer.
With ``--trace 0`` passes repeat while the time allows and the end-to-end
metrics are medians over them; with ``--trace 1`` one untraced and one
traced pass give the per-layer metrics and the tracing overhead.  The
last line of output is one JSON object with the result.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PASS_TIMEOUT_S = 170
ORACLE_MAX_ERR = 1e-10

for _var in BLAS_VARS:   # before numpy loads, here and in every pass process
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "solve_s": "s", "async_s": "s",
              "baseline_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed):
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "machine": platform.machine(), "seed": seed, "commit": _git_commit()}


def build_plan(name, seed, workdir):
    """Write the seeded problem files, solve the oracles, return the plan."""
    import dataclasses
    from minimaxpi import cli

    import oracle

    cx = os.path.join(workdir, workloads.COUNTEREXAMPLE)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["counterexample", "--out", cx])
    if rc != 0:
        raise RuntimeError(f"minimaxpi counterexample exited with {rc}")
    wl = workloads.BUILDERS[name](seed, workdir)
    tables = {}
    for key, (values, err) in oracle.solve(wl.oracle_specs).items():
        if not err <= ORACLE_MAX_ERR:
            raise RuntimeError(f"oracle {key} certified only to {err:.3e}")
        tables[key], tables[key + ".err"] = values, np.float64(err)
    oracle_path = os.path.join(workdir, "oracle.npz")
    np.savez(oracle_path, **tables)
    return {"root": ROOT, "oracle": oracle_path, "problems": wl.problems,
            "requests": [dataclasses.asdict(r) for r in wl.requests]}


def run_pass(plan_path, workdir, index, traced=False):
    """One pass in a fresh process; returns (report, wall seconds)."""
    report = os.path.join(workdir, f"pass{index}.json")
    cmd = [sys.executable, os.path.join(BENCH, "passrun.py"), plan_path, report]
    if traced:
        cmd.append("--traced")
    start = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, timeout=PASS_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"pass process failed ({done.returncode}):\n{done.stderr}")
    with open(report, encoding="utf-8") as fh:
        return json.load(fh), wall


def tally(passes):
    """Count attempted and failed requests, byte-comparing repeated outputs."""
    attempted = failed = 0
    first = {}
    failures = []
    for p in passes:
        for row in p["requests"]:
            attempted += 1
            reason = row["failure"]
            ref = first.setdefault(row["name"], row["hashes"])
            if reason is None and row["hashes"] != ref:
                reason = "output files differ from the first pass"
            if reason is not None:
                failed += 1
                failures.append(f"{row['name']}: {reason}")
    return attempted, failed, failures


def solve_times(passes):
    """solve_s and its async/baseline parts: sums of per-request medians over passes."""
    names = [row["name"] for row in passes[0]["requests"]]
    median_s = {n: statistics.median(r["seconds"] for p in passes for r in p["requests"]
                                     if r["name"] == n) for n in names}
    kind = {row["name"]: row["kind"] for row in passes[0]["requests"]}
    return {
        "solve_s": sum(median_s.values()),
        "async_s": sum(s for n, s in median_s.items() if kind[n] == "async"),
        "baseline_s": sum(s for n, s in median_s.items() if kind[n] == "baseline"),
    }


def err_over_bound(passes):
    """The largest miss of each algorithm as a share of its documented accuracy."""
    worst = {}
    for p in passes:
        for row in p["requests"]:
            if row["err_over_bound"] is not None:
                worst[row["algo"]] = max(worst.get(row["algo"], 0.0), row["err_over_bound"])
    return worst


def print_requests(passes):
    print(f"{'request':<28} {'algo':<10} {'median_s':>9} {'err/bound':>10}  status")
    names = [row["name"] for row in passes[0]["requests"]]
    for n in names:
        rows = [r for p in passes for r in p["requests"] if r["name"] == n]
        ratio = max((r["err_over_bound"] or 0.0) for r in rows)
        print(f"{n:<28} {rows[0]['algo']:<10} "
              f"{statistics.median(r['seconds'] for r in rows):>9.3f} {ratio:>10.3f}"
              f"  {rows[0]['status']}")


def print_spans(spans):
    """Per span and parent, summed over requests: calls, inclusive and self time."""
    merged = {}
    for s in spans:
        key = (s["span"], s["parent"])
        calls, incl, own = merged.get(key, (0, 0.0, 0.0))
        merged[key] = (calls + s["calls"], incl + s["incl_s"], own + s["self_s"])
    print(f"{'span':<22} {'parent':<22} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
    for (name, parent), (calls, incl, own) in sorted(merged.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<22} {str(parent):<22} {calls:>9} {incl:>9.3f} {own:>9.3f}")


def measure(args, plan_path, workdir):
    """Run the passes; returns (passes, metrics {name: (value, unit)})."""
    if args.trace:
        plain, _ = run_pass(plan_path, workdir, 0)
        traced, _ = run_pass(plan_path, workdir, 1, traced=True)
        passes = [plain, traced]
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        overhead = solve_times([traced])["solve_s"] / solve_times([plain])["solve_s"] - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        worst = err_over_bound(passes)
        for algo in workloads.ALGOS:
            metrics[f"check.err_over_bound.{algo}"] = (worst.get(algo, 0.0), "ratio")
        print_spans(traced["spans"])
        if traced["missing_hooks"]:
            print("hooks not installed (their metrics are absent): "
                  + ", ".join(traced["missing_hooks"]))
        with open(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(args.seed), "layers": metrics,
                       "spans": traced["spans"]}, fh, indent=1)
        return passes, metrics
    passes = []
    start = perf_counter()
    longest = 0.0
    while not passes or perf_counter() - start + longest <= args.seconds:
        report, wall = run_pass(plan_path, workdir, len(passes))
        passes.append(report)
        longest = max(longest, wall)
    e2e = {"setup_s": statistics.median(p["setup_s"] for p in passes), **solve_times(passes),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    return passes, {k: (v, END_TO_END[k]) for k, v in e2e.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "minimaxpi", "cli.py")):
        print(f"error: no minimaxpi sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = build_plan(args.workload, args.seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        passes, metrics = measure(args, plan_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failures = tally(passes)
    print_requests([p for p in passes if "layers" not in p])
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"passes: {len(passes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)")
    if not args.trace:
        for algo, ratio in sorted(err_over_bound(passes).items()):
            print(f"check.err_over_bound.{algo} = {ratio:.6g} ratio")
    for line in failures:
        print("FAILED " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
