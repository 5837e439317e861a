"""The library defines only what the library uses.

A function, class or method in ``src/minimaxpi`` that no other line of
``src/`` names is test surface: it belongs in ``tests/`` (the proof
instruments live in ``tests/instruments.py``).  A module-level function
or class is used by a name, an attribute or an import; the package's
``__init__.py`` only re-exports, so its imports are not uses.  A class
member (method, property, field or class attribute) is used only by an
attribute read, ``obj.member``: a local variable of the same spelling is
no use.  Enum members and NamedTuple fields are exempt, and so are the
few documented views in ``_VIEWS``.  A name the benchmark hooks (the last
component of a ``perfbench.tracing.HOOKS`` target) is exempt, because the
benchmark looks it up in the library.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "minimaxpi")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
# class bodies whose assignments are members of another kind, not fields
_VALUE_CLASSES = ("Enum", "NamedTuple")
# members kept as documented reading aids for library users: the models'
# nested per-entry views and the aggregate answer's pair value
_VIEWS = ("aggregation:AggregateSolution.pair_value1",
          "models:MinimaxControlModel.outcomes",
          "models:SeparatedMinimaxModel.cost1", "models:SeparatedMinimaxModel.cost2",
          "models:SeparatedMinimaxModel.next1", "models:SeparatedMinimaxModel.next2")


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


def _attribute_reads(tree):
    """Every attribute the tree reads, ``obj.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _base_names(cls):
    return {base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            for base in cls.bases}


def _members(cls):
    """Names of the methods, properties, fields and class attributes a
    class body defines, dunders and Enum or NamedTuple entries aside."""
    values = not _base_names(cls).isdisjoint(_VALUE_CLASSES)
    for node in cls.body:
        if isinstance(node, _METHODS):
            names = [node.name]
        elif isinstance(node, (ast.AnnAssign, ast.Assign)) and not values:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not _is_dunder(name))


def _top_level(tree):
    """Module-level functions and classes, and those nested in functions."""
    members = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    return [node.name for node in ast.walk(tree)
            if isinstance(node, _DEFINITIONS) and id(node) not in members
            and not _is_dunder(node.name)]


def _unused():
    """``module:name`` of each definition, and ``module:Class.member`` of
    each class member, that no module but ``__init__.py`` uses."""
    defined, members, used, read = [], [], set(), set()
    for module, tree in _modules():
        defined += [(module, name) for name in _top_level(tree)]
        members += [(module, cls.name, name) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) for name in _members(cls)]
        if module != "__init__.py":
            used |= _uses(tree)
            read |= _attribute_reads(tree)
    return ([f"{module[:-3]}:{name}" for module, name in defined if name not in used]
            + [f"{module[:-3]}:{cls}.{name}" for module, cls, name in members
               if name not in read])


def _hooked(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    tracing = importlib.import_module("perfbench.tracing")
    return {target.rpartition(":")[2].rpartition(".")[2] for _, target, _ in tracing.HOOKS}


def _exempt(name, hooked):
    return name in _VIEWS or name.rpartition(":")[2].rpartition(".")[2] in hooked


def test_every_definition_has_a_library_use(monkeypatch):
    hooked = _hooked(monkeypatch)
    unused = [name for name in _unused() if not _exempt(name, hooked)]
    assert not unused, "defined in src/ but used by no library code: " + ", ".join(unused)


def test_the_hooks_exempt_only_shapley_value_iteration(monkeypatch):
    """Stage-form Shapley VI is the tests' oracle and a benchmark hook
    target, so it stays in the library until that hook goes."""
    hooked = _hooked(monkeypatch)
    assert [name for name in _unused()
            if name not in _VIEWS and _exempt(name, hooked)] == [
        "models:shapley_value_iteration"]


def test_the_views_are_pinned_and_each_still_unread():
    """The allow-list holds exactly the documented views, and each is
    still read by no library code (else it would not need the list)."""
    assert sorted(name for name in _unused() if name in _VIEWS) == sorted(_VIEWS) == [
        "aggregation:AggregateSolution.pair_value1",
        "models:MinimaxControlModel.outcomes",
        "models:SeparatedMinimaxModel.cost1", "models:SeparatedMinimaxModel.cost2",
        "models:SeparatedMinimaxModel.next1", "models:SeparatedMinimaxModel.next2"]
