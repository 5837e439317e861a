"""Check that two source trees answer every benchmark request alike.

Usage: python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT [--seeds 3 7 13]

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
check made on each side, and exits 1 if any differ.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sep-control", "games")
COUNTEREXAMPLE = ("counterexample", "--out", "counterexample.json")
# (name, file, command, options): run at the workloads' tol
EXTRA = (
    ("sep.naive", "sep.json", "solve", ("--algo", "naive")),
    ("control.naive", "control.json", "solve", ("--algo", "naive")),
    ("game0.naive", "game0.json", "solve", ("--algo", "naive")),
    ("sep.hk", "sep.json", "solve", ("--algo", "hk")),
    ("control.compare", "control.json", "compare", ("--algos", "vi,hk,naive,async")),
    ("small1.compare", "small1.json", "compare", ("--algos", "vi,hk,poa,naive,async")),
    ("game1.poa.k5", "game1.json", "solve", ("--algo", "poa", "--optimistic-k", "5")),
)


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _run_request(cli, argv, outputs):
    """Exit code, stdout, stderr, output-file digests and certify calls."""
    from minimaxpi import async_pi

    calls, certify = [], async_pi.certify
    async_pi.certify = lambda *a: calls.append(1) or certify(*a)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:   # a traceback is an answer to compare too
                code = f"raised {type(exc).__name__}: {exc}"
    finally:
        async_pi.certify = certify
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": {path: _digest(path) for path in outputs}, "certify": len(calls)}


def child(root, seed):
    """Run every request of both workloads at ``seed`` with the tree at
    ``root``, in the current directory; print the results as JSON."""
    sys.dont_write_bytecode = True   # leave both trees as they are
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(HERE, "perfbench"))
    from minimaxpi import cli

    import workloads

    results = {"counterexample": _run_request(
        cli, COUNTEREXAMPLE, (COUNTEREXAMPLE[2], COUNTEREXAMPLE[2] + ".cycle.txt"))}
    for name in WORKLOADS:
        for request in workloads.BUILDERS[name](seed, ".").requests:
            results[request.name] = _run_request(cli, request.argv, request.outputs)
    for name, path, command, options in EXTRA:
        argv = (command, os.path.join(".", path), *options, "--tol", repr(workloads.TOL))
        results[name] = _run_request(cli, argv, ())
    json.dump(results, sys.stdout)


def _results(root, seed):
    with tempfile.TemporaryDirectory() as workdir:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", root, str(seed)],
            cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=False)
    if done.returncode != 0:
        sys.exit(f"error: the run of {root} at seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 13])
    args = parser.parse_args(argv)
    differ = total = 0
    for seed in args.seeds:
        parent = _results(os.path.abspath(args.parent), seed)
        change = _results(os.path.abspath(args.change), seed)
        for name in sorted(parent.keys() | change.keys()):
            total += 1
            a, b = parent.get(name, {}), change.get(name, {})
            calls = f"certify calls {a.get('certify')} -> {b.get('certify')}"
            fields = [k for k in ("exit", "stdout", "stderr", "files") if a.get(k) != b.get(k)]
            if fields:
                differ += 1
                print(f"seed {seed} {name}: differs in {', '.join(fields)} ({calls})")
            elif a["certify"] != b["certify"]:
                print(f"seed {seed} {name}: same outputs ({calls})")
    print(f"{total - differ} of {total} requests identical")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:   # one tree at one seed, started by _results
        child(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(main())
