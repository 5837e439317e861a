"""Checks on the benchmark itself.

Run from the repository root:  python3 perfbench/selftest.py

- Two traced passes of one seed count the same solver iterations,
  executor steps and LP calls, and write byte-identical CSVs.
- A hook whose target name is gone leaves its metrics out and the rest of
  the traced pass working.
- Without the program's sources the benchmark exits non-zero and prints
  no result.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (sets the BLAS thread variables first)
import tracing  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

REPEATABLE = ("solver.vi.iterations", "solver.async.iterations",
              "solver.hk.iterations", "solver.poa.iterations",
              "solver.async.checks_to_stop", "exec.steps", "matrix_game.lp_calls")


class TracedPassesRepeat(unittest.TestCase):

    def _two_traced_passes(self, workload, seed):
        os.makedirs(run.WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.WORK)
        try:
            plan = run.build_plan(workload, seed, workdir)
            plan_path = os.path.join(workdir, "plan.json")
            with open(plan_path, "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
            return [run.run_pass(plan_path, workdir, i, traced=True)[0] for i in range(2)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _assert_repeat(self, workload):
        first, second = self._two_traced_passes(workload, seed=11)
        for name in REPEATABLE:
            self.assertEqual(first["layers"][name], second["layers"][name], name)
        attempted, failed, failures = run.tally([first, second])
        self.assertEqual(failed, 0, failures)
        self.assertEqual(attempted, 2 * len(first["requests"]))
        return first

    def test_games(self):
        first = self._assert_repeat("games")
        self.assertGreater(first["layers"]["matrix_game.lp_calls"][0], 0)

    def test_sep_control_csvs(self):
        first = self._assert_repeat("sep-control")
        hashes = [r["hashes"] for r in first["requests"] if r["hashes"]]
        self.assertEqual(len(hashes), 1)
        self.assertEqual(sorted(hashes[0]), ["control.trace.csv", "control.values.csv"])


class MissingHook(unittest.TestCase):

    def test_metric_absent_and_rest_intact(self):
        from minimaxpi import async_pi, cli

        hooks = [h for h in tracing.HOOKS if h[0] != "stop.check"]
        hooks.append(("stop.check", "minimaxpi.async_pi:no_such_function", None))
        hooks.append(("io.load", "minimaxpi.no_such_module:load_problem", None))
        original_run = async_pi.run
        tracer = tracing.Tracer()
        tracer.install(hooks)
        try:
            self.assertIsNot(async_pi.run, original_run)
            counterexample = os.path.join(tempfile.mkdtemp(dir=run.WORK), "cx.json")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["counterexample", "--out", counterexample])
                rc = cli.main(["solve", counterexample, "--algo", "async"])
            shutil.rmtree(os.path.dirname(counterexample))
        finally:
            tracer.uninstall()
        self.assertEqual(rc, 0)
        self.assertIs(async_pi.run, original_run)
        metrics = tracer.metrics()
        self.assertEqual(len(tracer.missing), 2)
        for name in ("stop.checks", "stop.share", "solver.async.checks_to_stop",
                     "io.load_s", "io.bytes_read"):
            self.assertNotIn(name, metrics)
        self.assertGreater(metrics["exec.steps"][0], 0)


class NoSources(unittest.TestCase):

    def test_exits_nonzero_without_result(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.WORK)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "games",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
