"""Check that two source trees answer every benchmark request alike, or
write the manifest of this tree's answers that the test suite checks.

Usage: python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT [--seeds 3 7 13]
       python3 tools/same_outputs.py --manifest tests/outputs_manifest.json

For each seed, each tree runs in a fresh process: it writes both
workloads' problem files with ``perfbench/workloads.py`` (this checkout's,
read only), writes the counterexample file with its own
``minimaxpi counterexample``, and runs every request through its own
``minimaxpi.cli.main`` in process, together with ``EXTRA``: requests on
the same files for the CLI paths the benchmark does not take.  Paths are
relative to a fresh working directory, so the two trees see the same
command lines.  Per request the script compares the exit code, stdout,
stderr and the bytes of every file the request writes; it prints the
requests that differ, with the number of ``certify`` calls the async stop
check made and of steps the async executor applied (``_apply`` calls) on
each side, and exits 1 if any differ.  A request whose outputs match is
printed too where those counts differ.

With ``--manifest PATH`` it runs this checkout alone at ``MANIFEST_SEED``,
on the same requests, and writes a SHA-256 of each request's exit code,
stdout, stderr and output files, with the numpy version, Python version
and platform it ran under.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sep-control", "games")
COUNTEREXAMPLE = ("counterexample", "--out", "counterexample.json")
MANIFEST_SEED = 3
# (name, file, command, options, outputs): run at the workloads' tol; the
# files in outputs are hashed too.  The delayed requests read the opposite
# side as it stood before its last write, which the benchmark's own
# delayed request (k >= B on its inner schedule) never does.
EXTRA = (
    ("sep.naive", "sep.json", "solve", ("--algo", "naive"), ()),
    ("control.naive", "control.json", "solve", ("--algo", "naive"), ()),
    ("game0.naive", "game0.json", "solve", ("--algo", "naive"), ()),
    ("sep.hk", "sep.json", "solve", ("--algo", "hk"), ()),
    ("control.compare", "control.json", "compare", ("--algos", "vi,hk,naive,async"), ()),
    ("small1.compare", "small1.json", "compare", ("--algos", "vi,hk,poa,naive,async"), ()),
    ("game1.poa.k5", "game1.json", "solve", ("--algo", "poa", "--optimistic-k", "5"), ()),
    *((name, path, "solve", ("--algo", "async", "--schedule", schedule, *steps,
                             "--trace", name + ".trace.csv"), (name + ".trace.csv",))
      for name, path, schedule, steps in (
          ("sep.stale", "sep.json", "delayed:B=20,inner=partitioned:p=20,k=2", ()),
          ("sep.stale.rr", "sep.json", "delayed:B=6,inner=round_robin:k=0", ()),
          ("control.stale", "control.json", "delayed:B=3,inner=partitioned:p=8,k=0", ()),
          ("small0.stale", "small0.json", "delayed:B=1000,inner=random:seed=1",
           ("--max-steps", "20000")),
          ("small1.stale", "small1.json", "delayed:B=7,inner=partitioned:p=2,k=1", ()),
          ("game0.stale", "game0.json", "delayed:B=5,inner=random:seed=2", ()),
          ("cx.stale", "counterexample.json", "delayed:B=4,inner=random:seed=3", ()))),
)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return _sha(fh.read())
    except OSError:
        return None


def _run_request(cli, argv, outputs):
    """Exit code, stdout, stderr, output-file digests, certify calls and
    applied async steps."""
    from minimaxpi import async_pi

    calls, certify, steps, apply = [], async_pi.certify, [], async_pi._apply
    async_pi.certify = lambda *a: calls.append(1) or certify(*a)
    async_pi._apply = lambda *a: steps.append(1) or apply(*a)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:   # a traceback is an answer to compare too
                code = f"raised {type(exc).__name__}: {exc}"
    finally:
        async_pi.certify, async_pi._apply = certify, apply
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": {path: _digest(path) for path in outputs}, "certify": len(calls),
            "applied": len(steps)}


def benchmark_results(seed):
    """Write the counterexample and both workloads' files at ``seed`` into
    the current directory and run the counterexample command, every
    benchmark request and then ``EXTRA``: ``{request name: _run_request's
    record}``.  Needs ``minimaxpi`` and perfbench's ``workloads`` importable."""
    from minimaxpi import cli

    import workloads

    results = {"counterexample": _run_request(
        cli, COUNTEREXAMPLE, (COUNTEREXAMPLE[2], COUNTEREXAMPLE[2] + ".cycle.txt"))}
    for name in WORKLOADS:
        for request in workloads.BUILDERS[name](seed, ".").requests:
            results[request.name] = _run_request(cli, request.argv, request.outputs)
    for name, path, command, options, outputs in EXTRA:
        argv = (command, os.path.join(".", path), *options, "--tol", repr(workloads.TOL))
        results[name] = _run_request(cli, argv, outputs)
    return results


def environment():
    """What the outputs may depend on beyond the source tree."""
    import numpy

    return {"numpy": numpy.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


def manifest(results):
    """A SHA-256 per request and stream of ``benchmark_results``' records;
    output files are keyed by base name."""
    return {name: {"exit": _sha(repr(r["exit"]).encode()),
                   "stdout": _sha(r["stdout"].encode()),
                   "stderr": _sha(r["stderr"].encode()),
                   "files": {os.path.basename(path): digest
                             for path, digest in sorted(r["files"].items())}}
            for name, r in results.items()}


def child(root, seed, mode):
    """Run the requests at ``seed`` with the tree at ``root``, in the
    current directory; print the results (``compare``) or the manifest
    (``manifest``) as JSON."""
    sys.dont_write_bytecode = True   # leave both trees as they are
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(HERE, "perfbench"))
    results = benchmark_results(seed)
    if mode == "manifest":
        json.dump({"seed": seed, "environment": environment(),
                   "requests": manifest(results)}, sys.stdout, indent=1, sort_keys=True)
        return
    json.dump(results, sys.stdout)


def _child_output(root, seed, mode="compare"):
    with tempfile.TemporaryDirectory() as workdir:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", root, str(seed), mode],
            cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=False)
    if done.returncode != 0:
        sys.exit(f"error: the run of {root} at seed {seed} failed:\n{done.stderr}")
    return done.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 13])
    parser.add_argument("--manifest", metavar="PATH",
                        help="write this checkout's manifest to PATH instead")
    args = parser.parse_args(argv)
    if args.manifest:
        text = _child_output(HERE, MANIFEST_SEED, "manifest")
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.manifest}")
        return 0
    if args.change is None:
        parser.error("give PARENT_ROOT and CHANGE_ROOT, or --manifest PATH")
    differ = total = 0
    for seed in args.seeds:
        parent = json.loads(_child_output(os.path.abspath(args.parent), seed))
        change = json.loads(_child_output(os.path.abspath(args.change), seed))
        for name in sorted(parent.keys() | change.keys()):
            total += 1
            a, b = parent.get(name, {}), change.get(name, {})
            calls = f"certify calls {a.get('certify')} -> {b.get('certify')}"
            if a.get("applied") != b.get("applied"):
                calls += f", applied steps {a.get('applied')} -> {b.get('applied')}"
            fields = [k for k in ("exit", "stdout", "stderr", "files") if a.get(k) != b.get(k)]
            if fields:
                differ += 1
                print(f"seed {seed} {name}: differs in {', '.join(fields)} ({calls})")
            elif a.get("certify") != b.get("certify") or a.get("applied") != b.get("applied"):
                print(f"seed {seed} {name}: same outputs ({calls})")
    print(f"{total - differ} of {total} requests identical")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:   # one tree at one seed, started by _child_output
        child(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        sys.exit(main())
