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

A parameter with a default is an option, and an option no library call
sets is test surface too: every defaulted parameter of a ``def`` in
``src/`` must be passed by at least one call in ``src/`` to a callee of
that name, by keyword, by position, or through ``*args`` or ``**kwargs``.
A call of the class name counts for ``__init__``, and a method called as
an attribute (``obj.name(...)``) shifts its positions past ``self``.  A
function read as a value, not called (``build = f if c else g``), may be
called through that alias with any arguments, so such a read passes
every parameter.  A definition the benchmark alone calls (one the name rule exempts as a hook
target) is exempt, and so is ``cli.main``'s ``argv``: ``main`` is the
console entry point, which passes none.  The rule cannot see a default
that no library call relies on because every one passes the parameter
anyway: a ``phi=None`` on ``build_aggregate``, whose one library caller
passes ``phi``, would go unflagged.
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


def _looked_up(node):
    """The name an expression looks up, and whether as an attribute, ``obj.name``."""
    if isinstance(node, ast.Name):
        return node.id, False
    if isinstance(node, ast.Attribute):
        return node.attr, True
    return None, False


# what a read of a name as a value passes: every position and keyword
_ANY_CALL = (False, 0, True, set(), True)


def _calls():
    """``callee -> [(attribute, positions, starred from, keywords, **)]`` of
    every call in the package's modules, and ``_ANY_CALL`` of every read of
    a name or attribute as a value."""
    calls = {}
    for _, tree in _modules():
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in called \
                    and isinstance(node.ctx, ast.Load):
                calls.setdefault(_looked_up(node)[0], []).append(_ANY_CALL)
            if not isinstance(node, ast.Call):
                continue
            name, attribute = _looked_up(node.func)
            starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            calls.setdefault(name, []).append((
                attribute, starred[0] if starred else len(node.args),
                bool(starred), {kw.arg for kw in node.keywords} - {None},
                any(kw.arg is None for kw in node.keywords)))
    return calls


def _is_method(fn, owner):
    return owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _defaulted(fn):
    """``(name, position)`` of each parameter of ``fn`` with a default;
    position None for a keyword-only one."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _passes(call, method, init, position, name):
    """Whether ``call`` passes parameter ``name`` at ``position`` of a def,
    a method's positions counting ``self``."""
    attribute, positions, starred, keywords, double = call
    if name in keywords or double:
        return True
    if position is None:
        return False
    at = position - (method and (attribute or init))
    return 0 <= at < positions or (starred and at >= positions)


def _definitions():
    """``(module:qualified name, callee name, def, method, __init__)`` of
    every ``def`` in the package, nested ones included."""
    for module, tree in _modules():
        owners = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, _METHODS):
                owner = owners.get(id(fn))
                init = owner is not None and fn.name == "__init__"
                qualified = fn.name if owner is None else f"{owner.name}.{fn.name}"
                yield (f"{module[:-3]}:{qualified}", owner.name if init else fn.name, fn,
                       _is_method(fn, owner), init)


def _unpassed():
    """``module:name(parameter)`` of each defaulted parameter that no call
    in the package passes."""
    calls = _calls()
    return sorted(f"{where}({name})" for where, callee, fn, method, init in _definitions()
                  for name, position in _defaulted(fn)
                  if not any(_passes(call, method, init, position, name)
                             for call in calls.get(callee, ())))


def _hook_only(monkeypatch):
    """Definitions kept in the library only because the benchmark hooks them."""
    hooked = _hooked(monkeypatch)
    return {name for name in _unused() if name not in _VIEWS and _exempt(name, hooked)}


def _parameter_exempt(parameter, hook_only):
    return parameter == "cli:main(argv)" or parameter.partition("(")[0] in hook_only


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
    assert sorted(_hook_only(monkeypatch)) == ["models:shapley_value_iteration"]


def test_the_views_are_pinned_and_each_still_unread():
    """The allow-list holds exactly the documented views, and each is
    still read by no library code (else it would not need the list)."""
    assert sorted(name for name in _unused() if name in _VIEWS) == sorted(_VIEWS) == [
        "aggregation:AggregateSolution.pair_value1",
        "models:MinimaxControlModel.outcomes",
        "models:SeparatedMinimaxModel.cost1", "models:SeparatedMinimaxModel.cost2",
        "models:SeparatedMinimaxModel.next1", "models:SeparatedMinimaxModel.next2"]


def test_every_option_is_set_by_a_library_call(monkeypatch):
    hook_only = _hook_only(monkeypatch)
    unpassed = [p for p in _unpassed() if not _parameter_exempt(p, hook_only)]
    assert not unpassed, "defaulted in src/ but passed by no library call: " + ", ".join(unpassed)


def test_the_parameter_exemptions_are_pinned_and_each_still_unpassed(monkeypatch):
    """The parameter rule exempts exactly the console entry point's argv
    and the hooked Shapley oracle's options, and each is still passed by
    no library call (else it would not need the exemption)."""
    hook_only = _hook_only(monkeypatch)
    assert [p for p in _unpassed() if _parameter_exempt(p, hook_only)] == [
        "cli:main(argv)", "models:shapley_value_iteration(max_iters)",
        "models:shapley_value_iteration(tol)"]
