"""Every benchmark request, and every extra request of
``tools/same_outputs.py``, answers byte for byte as the committed manifest
says.

The test regenerates the seed-3 files of both benchmark workloads and the
counterexample in a temporary directory, runs the ``counterexample``
command, every benchmark request and the tool's ``EXTRA`` requests (the
CLI paths the benchmark does not take) through ``cli.main`` in process,
and compares a SHA-256 of each request's exit code, stdout, stderr and output
files with ``outputs_manifest.json``.  A change that moves an output on
purpose rewrites the manifest with
``python3 tools/same_outputs.py --manifest tests/outputs_manifest.json``
and names every changed request in CHANGES.md.
"""

import importlib
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "outputs_manifest.json")


def _describe(env):
    return f"numpy {env['numpy']}, python {env['python']}, {env['platform']}"


def test_benchmark_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    monkeypatch.chdir(tmp_path)
    same_outputs = importlib.import_module("same_outputs")
    with open(MANIFEST, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = same_outputs.manifest(same_outputs.benchmark_results(expected["seed"]))
    envs = (f"manifest written under {_describe(expected['environment'])}; "
            f"this run under {_describe(same_outputs.environment())}")
    mismatches = [f"{name}: {stream} differs" if name in got else f"{name}: not run"
                  for name, streams in sorted(expected["requests"].items())
                  for stream in streams if got.get(name, {}).get(stream) != streams[stream]]
    mismatches += [f"{name}: not in the manifest" for name in sorted(got.keys()
                                                                   - expected["requests"].keys())]
    assert not mismatches, "; ".join(dict.fromkeys(mismatches)) + f" ({envs})"
