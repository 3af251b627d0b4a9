"""Tests of the benchmark itself: menus, reference gate, tracer.

    python3 -m pytest perfbench -q

They run real (short) benchmark passes, so they take about a minute.
"""

import contextlib
import copy
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import refltower.cli  # noqa: E402,F401
from refltower import cli, jacobi, lattices, series, verification  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 4242

# Bindings no passing job can reach, with the reason.  Any other binding
# that records no call fails the coverage test.
EXPECTED_UNCOVERED = {
    "borcherds.member_slice": "read only when a lift layer and a product layer disagree",
    "FourierSeries.div": "called only by jacobi.phi0_by_general_division, a cross-check path",
}


def _first_round(workload, seed):
    return next(workloads.rounds(workload, seed))


def test_job_list_is_fixed_by_the_seed():
    for wl in workloads.WORKLOADS:
        a = [j["ref"] for j in _first_round(wl, 7)]
        b = [j["ref"] for j in _first_round(wl, 7)]
        c = [j["ref"] for j in _first_round(wl, 8)]
        assert a == b
        assert sorted(a) == sorted(c)
        assert a != c


def test_menus_come_from_the_registries():
    assert {j["member"] for j in workloads.sweep_menu()} == set(jacobi.MEMBERS)
    want = {n for n in verification.identities() if not n.startswith("lift-equals-product:")}
    assert {j["identity"] for j in workloads.identity_menu()} == want
    keys = []
    for cmd, descs, qmax, smax in workloads.CLI_MENU:
        for d in descs:
            cli._resolve_member(d.partition(":")[2])
            keys.append((d, qmax, smax))
    assert len(keys) == len(set(keys)), "cache keys must not be shared between entries"


def test_reference_covers_every_menu_entry():
    for wl in workloads.WORKLOADS:
        ref = run.load_reference(wl)
        assert {j["ref"] for j in workloads.menu(wl)} == set(ref)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_corrupted_reference_entry_counts_as_a_failure():
    wl = "lift-product-sweep"
    ref = copy.deepcopy(run.load_reference(wl))
    victim = _first_round(wl, SEED)[0]["ref"]
    ref[victim]["checked_terms"] += 1
    doc = run.run_workload(wl, SEED, 0.1, 0, ref=ref)
    res = doc["result"]
    assert doc["rounds"] == 1
    assert res["correct"] is False
    assert res["failed"] == 1
    assert [f["ref"] for f in doc["failures"]] == [victim]


def test_corrupted_cli_digest_counts_as_a_failure():
    job = workloads.cli_menu()[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job["argv"]) == 0
    ref = copy.deepcopy(run.load_reference("cli-cold"))
    assert run.check_cli_output(job, 0, out.getvalue(), ref)[1] is None
    ref[job["ref"]]["digest"] = "0" * 64
    assert run.check_cli_output(job, 0, out.getvalue(), ref)[1] is not None


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n.startswith("refltower")]
    owners += [lattices.Lattice, series.FourierSeries]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_tracer_restores_every_patched_object():
    before = _snapshot()
    t = tracing.Tracer()
    t.install()
    assert series.FourierSeries.__dict__["mul"] is not before[id(series.FourierSeries)][1]["mul"]
    worker.execute(workloads.sweep_menu()[0])
    lattices.lattice("D4").disc_reduce((1, 0, 0, 0))
    t.uninstall()
    assert t.stats["borcherds.compare_lift_product"]["calls"] == 1
    assert t.stats["lattices.disc_reduce"]["calls"] >= 1
    for owner, attrs in before.values():
        now = vars(owner)
        assert set(now) == set(attrs)
        for name, obj in attrs.items():
            assert now[name] is obj, "%s.%s not restored" % (owner.__name__, name)


def test_every_binding_records_calls_on_some_workload():
    calls = {}
    for wl in workloads.WORKLOADS:
        doc = run.run_workload(wl, SEED, 0.1, 1)
        assert doc["result"]["correct"], doc["failures"]
        spans = os.path.join(run.OUT_DIR, "results", "%s-seed%d-trace1.spans.json" % (wl, SEED))
        with open(spans) as fh:
            for name, n in json.load(fh)["bindings"].items():
                calls[name] = calls.get(name, 0) + n
    wrapped = {tracing.binding_name(o, n) for o, n, _, _ in tracing.bindings()}
    assert set(calls) == wrapped
    # a name imported elsewhere is wrapped there too
    assert {"lifting.member_hecke_slice", "jacobi._slice_mul_into",
            "borcherds.member_slice", "Lattice.in_dual"} <= wrapped
    silent = {name for name, n in calls.items() if n == 0}
    assert silent == set(EXPECTED_UNCOVERED)


def test_calibration_scales_by_the_chunk_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed([2 * ref] * 4) == 0.5
    # too few samples of its own: topped up with the latest earlier ones
    assert calibrate.speed([ref], [4 * ref, 2 * ref, 2 * ref]) == (1 + 0.5 + 0.5) / 3
    assert calibrate.speed([]) == 1.0
    s = calibrate.Sampler()
    s.start()
    deadline = time.monotonic() + 5
    while len(s.samples) < 3 and time.monotonic() < deadline:
        sum(range(10000))
    s.stop()
    assert not s.is_alive()
    assert len(s.samples) >= 3 and all(x > 0 for x in s.samples)
