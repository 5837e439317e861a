"""The library defines only what the library uses.

A function, class or method in ``src/minimaxpi`` that no other line of
``src/`` names is test surface: it belongs in ``tests/`` (the proof
instruments live in ``tests/instruments.py``).  A use is a name, an
attribute or an import; the package's ``__init__.py`` only re-exports, so
its imports are not uses.  A name the benchmark hooks (the last component
of a ``perfbench.tracing.HOOKS`` target) is exempt, because the benchmark
looks it up in the library.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "minimaxpi")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    """``(file name, syntax tree)`` of every module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _uses(tree):
    """Every name the tree reads, as a name, an attribute or an import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _unused():
    """``module:name`` of each definition no module but ``__init__.py`` uses."""
    defined, used = [], set()
    for module, tree in _modules():
        defined += [(module, node.name) for node in ast.walk(tree)
                    if isinstance(node, _DEFINITIONS) and not _is_dunder(node.name)]
        if module != "__init__.py":
            used |= _uses(tree)
    return [f"{module[:-3]}:{name}" for module, name in defined if name not in used]


def _hooked(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    return {target.rpartition(":")[2].rpartition(".")[2] for _, target, _ in tracing.HOOKS}


def test_every_definition_has_a_library_use(monkeypatch):
    hooked = _hooked(monkeypatch)
    unused = [name for name in _unused() if name.partition(":")[2] not in hooked]
    assert not unused, "defined in src/ but used by no library code: " + ", ".join(unused)


def test_the_hooks_exempt_only_shapley_value_iteration(monkeypatch):
    """Stage-form Shapley VI is the tests' oracle and a benchmark hook
    target, so it stays in the library until that hook goes."""
    hooked = _hooked(monkeypatch)
    assert [name for name in _unused() if name.partition(":")[2] in hooked] == [
        "models:shapley_value_iteration"]
