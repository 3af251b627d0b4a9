"""The statements of ``src/refltower`` that benchmark traffic never runs.

Runs one round, seed 1, of every workload menu of ``perfbench/workloads.py``
in this process under ``sys.settrace``, recording the lines run inside the
refltower package only:

* the ``lift-product-sweep`` jobs, ``borcherds.compare_lift_product``;
* the ``identity-mix`` jobs, ``verification.run``;
* the ``cli-cold`` requests, each twice (a miss, then a hit) through
  ``cli.main`` with one temporary cache directory, stdout discarded.

With ``--pytest ARGS`` it runs ``pytest ARGS`` under the same tracer
instead.  The tracer starts before refltower is imported, so import-time
calls count.  It then prints, per function (``module.qualname``), the
first line of each statement that never ran, the ``raise`` statements
listed apart, and a count.  A compound statement counts as run if its
header line ran or any statement inside it did; a statement that
compiles to no bytecode (a docstring, say) is not counted.  It reads
``perfbench/workloads.py`` without changing it and writes nothing.  Not
part of tier-1; from the repository root:

    PYTHONPATH=src python tests/traffic_census.py
    PYTHONPATH=src python tests/traffic_census.py --pytest -q tests/test_series.py
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lift-product-sweep", "identity-mix", "cli-cold")
SEED = 1


def _code_lines(code) -> set:
    """Every line that holds bytecode in a code object and the code nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for c in code.co_consts:
        if hasattr(c, "co_lines"):
            out |= _code_lines(c)
    return out


def _statements(path: str) -> list:
    """(function qualname, statement) of every statement inside a function
    of one module; a nested def or class is a statement of its parent."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    out = []

    def walk(node, prefix: str, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and func is not None:
                out.append((func, child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, prefix + child.name + ".", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", func)
            elif not isinstance(child, ast.Lambda):
                walk(child, prefix, func)

    walk(tree, "", None)
    return out


def _own_lines(stmt) -> range:
    """The lines of a statement itself: a compound statement's header only."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _inner(stmt) -> list:
    """The statements directly or indirectly inside a compound statement,
    nested functions and classes left out."""
    out = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            out.append(child)
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                  ast.Lambda)):
            out.extend(_inner(child))
    return out


def census(pkg_dir: str, ran: set) -> tuple:
    """({function: [line]}, {function: [line]}, statements counted): the
    statements never run, other than ``raise`` and ``raise`` alone."""
    missed, raises, total = {}, {}, 0
    for name in sorted(os.listdir(pkg_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg_dir, name)
        with open(path) as fh:
            code = compile(fh.read(), path, "exec")
        has_code = _code_lines(code)
        hit = {line for p, line in ran if p == path}
        done = {}

        def run(stmt) -> bool:
            if id(stmt) not in done:
                own = _own_lines(stmt)
                done[id(stmt)] = bool(hit.intersection(own)) or any(map(run, _inner(stmt)))
            return done[id(stmt)]

        for func, stmt in _statements(path):
            if not has_code.intersection(_own_lines(stmt)) and not _inner(stmt):
                continue  # compiles to nothing
            total += 1
            if not run(stmt):
                into = raises if isinstance(stmt, ast.Raise) else missed
                into.setdefault("%s.%s" % (name[:-3], func), []).append(stmt.lineno)
    return missed, raises, total


def _tracer(pkg_dir: str, ran: set):
    """A global trace function recording (file, line) of every line run in pkg_dir."""
    prefix = pkg_dir + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    return global_


def _workloads():
    """``perfbench/workloads.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traffic() -> None:
    """One seeded round of every workload menu, in this process."""
    from refltower import borcherds, cli, verification
    from refltower.series import TruncationWindow

    wl = _workloads()
    with tempfile.TemporaryDirectory() as cache:
        for workload in WORKLOADS:
            for job in next(wl.rounds(workload, SEED)):
                if job["kind"] == "sweep":
                    borcherds.compare_lift_product(job["member"], job["q_depth"], job["s_depth"])
                elif job["kind"] == "identity":
                    verification.run(job["identity"], TruncationWindow(job["q_max"], job["s_max"]))
                else:  # the round holds each request twice: a miss, then a hit
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main([*job["argv"], "--cache-dir", cache])


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pytest", nargs=argparse.REMAINDER,
                    help="run pytest with the remaining arguments instead")
    args = ap.parse_args(argv)
    pkg_dir = os.path.abspath(importlib.util.find_spec("refltower").submodule_search_locations[0])
    ran: set = set()
    sys.settrace(_tracer(pkg_dir, ran))
    try:
        if args.pytest is not None:
            import pytest

            code = pytest.main(args.pytest)
        else:
            traffic()
            code = 0
    finally:
        sys.settrace(None)
    missed, raises, total = census(pkg_dir, ran)
    print("statements never run, other than raise (first line of each):")
    for func, lines in missed.items():
        print("  %s: %s" % (func, " ".join(map(str, lines))))
    print("raise statements never run:")
    for func, lines in raises.items():
        print("  %s: %s" % (func, " ".join(map(str, lines))))
    print("%d of %d statements never ran, %d of them raise" % (
        sum(map(len, missed.values())) + sum(map(len, raises.values())), total,
        sum(map(len, raises.values()))))
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
