"""Dead names in ``src/refltower``: an import the importing module never
reads, and a module-level name nothing in ``src/``, ``tests/`` or
``perfbench/`` reads.  A name counts as read where it is loaded, taken
as an attribute, or spelled as a string (``monkeypatch.setattr`` and the
tracer's targets name functions that way).  Dunders, ``annotations``
and the package's ``__all__`` re-exports are exempt."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "refltower")


def _trees(*dirs):
    for top in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path) as fh:
                        yield path, ast.parse(fh.read(), path)


def _reads(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _exempt(name: str, exports: set) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return dunder or name == "annotations" or name in exports


def _exports(tree) -> set:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_every_import_is_read_where_it_is_bound():
    dead = []
    for path, tree in _trees(PACKAGE):
        reads, exports = _reads(tree), _exports(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in reads and not _exempt(name, exports):
                        dead.append("%s imports %s" % (os.path.basename(path), name))
    assert dead == []


def test_every_module_level_name_is_read_somewhere():
    trees = list(_trees("src", "tests", "perfbench"))
    reads = set().union(*(_reads(tree) for _, tree in trees))
    dead = []
    for path, tree in trees:
        if not path.startswith(PACKAGE + os.sep):
            continue
        exports = _exports(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += ["%s defines %s" % (os.path.basename(path), name) for name in names
                     if name not in reads and not _exempt(name, exports)]
    assert dead == []


def _defaulted(fn) -> list:
    """(position or None for keyword-only, name) of each parameter of fn
    with a default; positions leave out a method's self or cls."""
    a = fn.args
    pos = a.posonlyargs + a.args
    skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
    out = [(i - skip, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passed(call, pos, name) -> bool:
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return pos is not None and pos < len(call.args)


def test_every_defaulted_parameter_is_passed_somewhere():
    """A parameter with a default that no call in ``src/``, ``tests/`` or
    ``perfbench/`` passes, by keyword or by position, is a knob nothing
    sets.  Calls match by name (``f(...)`` or ``x.f(...)``); one with
    ``*args`` or ``**kw`` passes everything."""
    trees = list(_trees("src", "tests", "perfbench"))
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path, tree in trees:
        if not path.startswith(PACKAGE + os.sep):
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unset += ["%s(%s)" % (fn.name, name) for pos, name in _defaulted(fn)
                          if not any(_passed(c, pos, name) for c in calls.get(fn.name, ()))]
    assert unset == []
