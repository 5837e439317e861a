"""The benchmark's per-layer hooks must name functions that exist.

A traced benchmark run skips a hook whose target is missing and drops the
metrics it fed, so a rename in the library would otherwise go unnoticed.
"""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_hook_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    missing = [target for _, target, _ in tracing.HOOKS
               if tracing._resolve(target) == (None, None)]
    assert missing == []
