"""Dead names in ``src/refltower``: an import the importing module never
reads, a module-level name nothing in ``src/``, ``tests/`` or
``perfbench/`` reads, a defaulted parameter no call passes, and a public
method or property nothing outside ``tests/`` reads.  A name counts as
read where it is loaded, taken as an attribute, or spelled as a string
(``monkeypatch.setattr`` and the tracer's targets name functions that
way).  Dunders, ``annotations`` and the package's ``__all__`` re-exports
are exempt, but ``FourierSeries`` may define no arithmetic operator."""

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


def test_every_public_method_is_read_by_the_program():
    """A public method or property of a ``src/refltower`` class whose name
    nothing in ``src/`` or ``perfbench/`` reads serves the tests alone;
    it belongs in ``tests/helpers.py`` as a function."""
    trees = list(_trees("src", "perfbench"))
    reads = set().union(*(_reads(tree) for _, tree in trees))
    unread = []
    for path, tree in trees:
        if not path.startswith(PACKAGE + os.sep):
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                unread += ["%s.%s" % (cls.name, fn.name) for fn in cls.body
                           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not fn.name.startswith("_") and fn.name not in reads]
    assert unread == []


_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "or", "xor")
_ARITHMETIC = ({"__%s%s__" % (p, op) for op in _BINARY for p in ("", "r", "i")}
               | {"__neg__", "__pos__", "__abs__", "__invert__"})


def test_fourier_series_defines_no_arithmetic_operator():
    """Series arithmetic in ``src/`` is named (``mul``, ``div``), so the
    public-method scan above sees whether the program calls it; sums and
    negations serve the tests alone and are ``tests/helpers`` functions
    (``add``, ``neg``, ``sub``).  An operator dunder, which that scan
    exempts, would bring back a test-only path unseen."""
    ops = [fn.name for path, tree in _trees(PACKAGE) for cls in ast.walk(tree)
           if isinstance(cls, ast.ClassDef) and cls.name == "FourierSeries"
           for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in _ARITHMETIC]
    assert ops == []


_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
             "setdefault", "update", "add", "discard", "sort", "reverse"}


def _process_state(tree) -> tuple:
    """(memos, caches) of one module: each module-level name some function
    body mutates (an item stored or deleted, an augmented assignment, a
    mutating method called) or rebinds as a ``global``, and each function
    under ``functools`` ``cache`` or ``lru_cache``."""
    names = {n.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
             for n in ast.walk(t) if isinstance(n, ast.Name)}
    memos, caches = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for d in fn.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            if (getattr(d, "id", None) or getattr(d, "attr", None)) in ("cache", "lru_cache"):
                caches.add(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                memos.update(n for n in node.names if n in names)
                continue
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.AugAssign):
                target = node.target
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in names:
                memos.add(target.id)
    return memos, caches


def test_the_cold_state_helper_lists_every_process_wide_memo():
    """``helpers.MEMOS`` (which the ``fresh_memos`` fixture empties) is
    exactly the module-level containers of ``src/refltower`` that a
    function body mutates, and ``helpers.CACHED`` exactly the functions
    under a functools cache, so neither list can go stale."""
    from helpers import CACHED, MEMOS

    memos, caches = set(), set()
    for path, tree in _trees(PACKAGE):
        mod = os.path.basename(path)[:-3]
        got = _process_state(tree)
        memos |= {(mod, name) for name in got[0]}
        caches |= {(mod, name) for name in got[1]}
    assert memos == {(m.__name__.rsplit(".", 1)[1], name) for m, name in MEMOS}
    assert caches == {(m.__name__.rsplit(".", 1)[1], name) for m, name in CACHED}


def _named(tree) -> set:
    """Every name a module reads, imports from another module or defines."""
    names = _reads(tree) | {alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names}
    return names | {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


_SIGN_NAMES = {"_sign_axes", "_orthant", "_mirror", "_mirror_out", "_mirror_rows", "_check_even"}


def test_only_jacobi_knows_the_orthant_format():
    """Which keys a member holds, how its held rows are completed, how
    many terms they stand for and how a character is checked are the
    operations of ``jacobi._symmetry``'s object.  No other module of
    ``src/refltower`` names the sign-orthant helpers or shifts a term
    count by a number of axes (``<< len(``)."""
    seen = []
    for path, tree in _trees(PACKAGE):
        if os.path.basename(path) == "jacobi.py":
            continue
        with open(path) as fh:
            if "<< len(" in fh.read():
                seen.append("%s shifts a count" % os.path.basename(path))
        seen += ["%s names %s" % (os.path.basename(path), name)
                 for name in sorted(_named(tree) & _SIGN_NAMES)]
    assert seen == []


_SUM_PARTS = {"_odd_shell", "_eta_coeff", "_divisor_terms"}


def test_only_jacobi_sums_shells_and_divisors():
    """A block's dict slice is the eta coefficients times odd shells
    (``jacobi._shell_slice``) and a dict Hecke translate is one divisor
    sum over such slices (``jacobi._hecke_sum``); the closed formula is
    those two.  No other module of ``src/refltower`` names their parts,
    so none can grow a second shell or divisor loop."""
    seen = []
    for path, tree in _trees(PACKAGE):
        if os.path.basename(path) != "jacobi.py":
            seen += ["%s names %s" % (os.path.basename(path), name)
                     for name in sorted(_named(tree) & _SUM_PARTS)]
    assert seen == []
