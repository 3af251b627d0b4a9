"""The traced benchmark pass (``perfbench/run.py --trace 1``) patches
refltower functions by name; a refactor that renames or moves one of
them breaks that pass.  These tests read ``perfbench/tracer.py`` without
importing it as a package module, so nothing is written beside it."""

import ast
import json
import os
import subprocess
import sys
import types

import refltower.cli  # noqa: F401  (registers every refltower module; the tracer's lookups run them)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    mod = types.ModuleType("perfbench_tracer")
    with open(TRACER) as fh:
        exec(compile(fh.read(), TRACER, "exec"), mod.__dict__)
    return mod


def test_every_trace_target_resolves():
    tracer = _tracer()
    for metric, module, attr in tracer.TARGETS:
        owner, name, _ = tracer._resolve(module, attr)
        assert callable(getattr(owner, name)), metric


def test_every_imported_trace_target_is_used_where_it_is_bound():
    """A target name imported into another refltower module must be read
    in that module's source: the traced benchmark wraps every binding and
    expects each to record calls, so a dead import fails there."""
    tracer = _tracer()
    for owner, name, raw, _ in tracer.bindings():
        if not isinstance(owner, types.ModuleType) or owner.__name__ == raw.__module__:
            continue
        with open(owner.__file__) as fh:
            tree = ast.parse(fh.read())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert name in used, "%s imports %s but never uses it" % (owner.__name__, name)


def test_aliases_the_benchmark_tests_name_are_bound():
    tracer = _tracer()
    wrapped = {tracer.binding_name(o, n) for o, n, _, _ in tracer.bindings()}
    assert {"lifting.member_hecke_slice", "jacobi._slice_mul_into",
            "borcherds.member_slice", "Lattice.in_dual"} <= wrapped


def test_cache_counters_read_one_real_call(tmp_path):
    """The ``cli.cache`` counters unpack ``_cached_expand``'s positional
    arguments as (descriptor, window, cache dir) and read the hit flag at
    index 2 of its result."""
    from refltower import cli

    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        argv = ["expand", "theta", "--qmax", "2", "--smax", "0",
                "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0 and cli.main(argv) == 0
    finally:
        t.uninstall()
    (entry,) = tmp_path.glob("*.json")
    stats = t.stats["cli.cache"]
    assert (stats["calls"], stats["lookups"], stats["hits"]) == (2, 2, 1)
    assert stats["bytes"] == 2 * entry.stat().st_size


# A traced cli-cold child (``perfbench/worker.py cli --trace-out``): a bare
# ``import refltower.cli``, which runs ``series`` and ``cli`` and leaves the
# other modules registered unrun, then the tracer read as ``_tracer`` reads
# it, one traced request, and ``uninstall``.
_TRACED_CHILD = """
import json, sys, types
import refltower.cli
ran = sorted(n.split('.')[1] for n, m in sys.modules.items()
             if n.startswith('refltower.') and type(m) is types.ModuleType)
tracer = types.ModuleType('perfbench_tracer')
with open(sys.argv[1]) as fh:
    exec(compile(fh.read(), sys.argv[1], 'exec'), tracer.__dict__)
t = tracer.Tracer()
t.install()
patched = list(t._patched)
try:
    rc = refltower.cli.main(sys.argv[2:])
finally:
    t.uninstall()
print(json.dumps({
    'ran': ran, 'rc': rc, 'hits': t.stats['cli.cache']['hits'],
    'bindings': sorted(tracer.binding_name(o, n) for o, n, _ in patched),
    'restored': all(vars(o)[n] is raw for o, n, raw in patched)}))
"""


def test_a_bare_cli_import_traces_every_binding_and_restores_it(tmp_path):
    """The traced child's ``install`` runs the unrun modules and wraps
    exactly the bindings this fully loaded process gives; a cache hit
    then runs through them, and ``uninstall`` restores every object."""
    tracer = _tracer()
    want = sorted(tracer.binding_name(o, n) for o, n, _, _ in tracer.bindings())
    argv = ["expand", "lift:D3", "--qmax", "2", "--smax", "2", "--cache-dir", str(tmp_path)]
    assert refltower.cli.main(argv + ["--out", str(tmp_path / "miss.txt")]) == 0
    src = os.path.join(os.path.dirname(TRACER), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_CHILD, TRACER, *argv, "--out", str(tmp_path / "hit.txt")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["ran"] == ["cli", "series"]
    assert (got["rc"], got["hits"]) == (0, 1)
    assert got["bindings"] == want
    assert got["restored"]
    assert (tmp_path / "hit.txt").read_text() == (tmp_path / "miss.txt").read_text()


def test_division_counter_reads_packed_levels():
    """The ``jacobi.divide_by_member`` pre-counter sums ``len`` over its
    first argument, the dividend's packed keys one array per level, so it
    counts the dividend's terms: those of psi|V_p on the sign orthant
    z_i > 0, as the division takes them.  A lift-versus-product check
    divides nothing, so a traced comparison beside one phi0 division
    counts that division alone."""
    from refltower import borcherds, jacobi

    key = "psi_10_D2"
    meta = jacobi.MEMBERS[key]
    jacobi.weak_weight0(key, 8)  # cached, so the comparison divides nothing
    phi0_terms = sum(min(z) > 0 for j in range(4)
                     for z in jacobi.member_hecke_slice(key, meta.hecke_p, meta.val_q + 24 * j))
    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        rep = borcherds.compare_lift_product(key, 3, 2)
        jacobi.phi0_by_division(key, 3)
    finally:
        t.uninstall()
    assert rep["status"] == "pass"
    stats = t.stats["jacobi.divide_by_member"]
    assert stats["calls"] == 1
    assert stats["terms_in"] == phi0_terms


def test_product_paths_keep_the_bindings_the_benchmark_pins(fresh_memos):
    """The traced benchmark expects every binding to record calls on some
    workload, except ``borcherds.member_slice``, which only a mismatch
    report reads: the product must reach psi through ``jacobi`` and its
    layers through ``borcherds.exp_layers``, whose recursion, built from
    an empty memo, reads the weight-0 translates through
    ``borcherds.hecke_v0``, and a cold A2 phi0 checks its packed corner
    against ``theta_A2`` with ``_slice_mul_into``."""
    from refltower import borcherds, jacobi
    from refltower.series import TruncationWindow

    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        borcherds.borcherds_exp("psi_8_D4", TruncationWindow(48, 4))
        product_calls = t.binding_calls["borcherds.exp_layers"]
        translate_calls = t.binding_calls["borcherds.hecke_v0"]
        rep = borcherds.compare_lift_product("psi_10_D2", 3, 2)
        before = dict(t.binding_calls)
        jacobi.phi0_by_division("psi_9_A2", 2)
    finally:
        t.uninstall()
    assert rep["status"] == "pass"
    assert t.binding_calls["borcherds.member_slice"] == 0
    assert product_calls >= 1
    assert translate_calls >= 1
    for name in ("jacobi.theta_A2", "jacobi._slice_mul_into"):
        assert t.binding_calls[name] > before[name], name


def test_divisor_scan_keeps_one_eichler_and_one_disc_reduce_call_per_class():
    """The wall scan runs on arrays, but the traced benchmark pins
    ``Lattice.eichler_invariant``, ``Lattice.disc_reduce`` and
    ``Lattice.in_dual``: one reflective-divisor-classes run calls the
    first two exactly once per reported class, and ``in_dual`` (through
    ``disc_reduce``) at least once."""
    from refltower import verification
    from refltower.series import TruncationWindow

    tracer = _tracer()
    t = tracer.Tracer()
    t.install()
    try:
        rep = verification.run("reflective-divisor-classes", TruncationWindow(48, 0))
    finally:
        t.uninstall()
    assert rep.status == "pass"
    classes = sum(len(d["classes"]) for d in rep.details.values())
    assert classes >= len(rep.details)
    assert t.binding_calls["Lattice.eichler_invariant"] == classes
    assert t.binding_calls["Lattice.disc_reduce"] == classes
    assert t.binding_calls["Lattice.in_dual"] >= 1
