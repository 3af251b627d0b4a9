import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import refltower
from refltower import borcherds, cli, jacobi
from refltower.cli import main
from refltower.series import FourierSeries, TruncationWindow

from helpers import scaled


def test_expand_theta_text(capsys):
    assert main(["expand", "theta", "--qmax", "2", "--smax", "0"]) == 0
    out = capsys.readouterr().out
    assert "descriptor: theta" in out
    assert "grid: r=1 den_z=2" in out
    # the lowest theta term is q^{1/8} zeta^{1/2}, stored at q_num 3, z 1
    assert "s^0 q^1/8: 2 terms" in out
    assert "  (1) 1" in out
    assert "  (-1) -1" in out


def test_expand_accepts_block_shorthand(capsys):
    assert main(["expand", "D2", "--qmax", "2", "--smax", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["expand", "psi_10_D2", "--qmax", "2", "--smax", "2"]) == 0
    second = capsys.readouterr().out
    assert first.replace("descriptor: D2", "descriptor: psi_10_D2") == second


def test_expand_json_digest_is_self_consistent(capsys):
    assert main(["expand", "eta^3", "--qmax", "8", "--smax", "0",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    body = json.dumps(doc["series"], separators=(",", ":"), sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == doc["digest"]
    assert doc["window"] == {"q_max": 192, "s_max": 0}


@pytest.mark.parametrize("qmax", [0, 1])
def test_expand_prints_no_cell_past_its_window(capsys, qmax):
    descs = ("theta", "eta^3", "Theta_A2", "D2", "lift:D2", "borcherds:D2",
             "product:D2", "phi0:D2", "phi0:A1", "closedform:D2")
    for desc in descs:
        assert main(["expand", desc, "--qmax", str(qmax), "--smax", "1"]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("s^"):
                s, q = line.split(":")[0].split(" ")
                assert Fraction(s[2:]) <= 1 and Fraction(q[2:]) <= qmax, (desc, line)


def test_expand_unknown_descriptor_is_usage_error(capsys):
    assert main(["expand", "psi_99_E8"]) == 2
    assert main(["expand", "closedform:psi_5_A1"]) == 2
    assert "error" in capsys.readouterr().err


def test_expand_cache_round_trip(tmp_path, capsys):
    args = ["expand", "lift:D2", "--qmax", "3", "--smax", "2",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert files[0].stat().st_mtime_ns == stamp
    # a corrupted entry is detected by its digest and rebuilt
    doc = json.loads(files[0].read_text())
    doc["series"] = doc["series"].replace(":1", ":7", 1)
    files[0].write_text(json.dumps(doc))
    assert main(args) == 0
    assert capsys.readouterr().out == first
    # a truncated entry is a miss and gets rewritten whole
    text = files[0].read_text()
    files[0].write_text(text[: len(text) // 2])
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(files[0].read_text())["series"] == json.loads(text)["series"]


def test_cache_entry_of_other_code_is_a_miss(tmp_path, monkeypatch):
    """An entry stored under another code digest is not served; the
    expansion is computed again and overwrites that entry's file."""
    desc, win, cache = "theta", TruncationWindow(48, 0), str(tmp_path)
    want = cli.expand_descriptor(desc, win).to_json()
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    assert cli._cached_expand(desc, win, cache)[2] is False
    (stale,) = tmp_path.glob("*.json")
    # what older code with another answer would have stored: a sound
    # entry, served while the digests match
    doc = json.loads(stale.read_text())
    older = cli.expand_descriptor(desc, TruncationWindow(24, 0))
    doc["series"], doc["terms"] = older.to_json(), older.term_count()
    doc["digest"] = hashlib.sha256(doc["series"].encode()).hexdigest()
    stale.write_text(json.dumps(doc))
    body, _, hit, _, _ = cli._cached_expand(desc, win, cache)
    assert (body, hit) == (doc["series"], True)
    monkeypatch.undo()
    body, _, hit, _, _ = cli._cached_expand(desc, win, cache)
    assert (body, hit) == (want, False)
    assert list(tmp_path.glob("*.json")) == [stale]
    body, _, hit, _, _ = cli._cached_expand(desc, win, cache)
    assert (body, hit) == (want, True)


def test_two_writers_of_one_entry_both_store_it(tmp_path, monkeypatch):
    """A second writer of the same entry overtakes the first between its
    write and its replace; each writes through a temp file of its own,
    so both replaces succeed and no temp file is left behind."""
    desc, win, cache = "theta", TruncationWindow(48, 0), str(tmp_path)
    real, moved = os.replace, []

    def replace(src, dst):
        moved.append(src)
        if len(moved) == 1:
            assert cli._cached_expand(desc, win, cache)[2] is False
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    body = cli._cached_expand(desc, win, cache)[0]
    monkeypatch.undo()
    assert len(set(moved)) == 2
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
    again, _, hit, _, _ = cli._cached_expand(desc, win, cache)
    assert (again, hit) == (body, True)


def _corrupt_body(path, change=lambda terms: terms.append(terms[0])) -> None:
    """Give an entry a body whose terms ``change`` edits in place (by
    default one term twice), under a sound digest and term count, so that
    only ``from_json`` can reject it."""
    doc = json.loads(path.read_text())
    series = json.loads(doc["series"])
    change(series["terms"])
    doc["terms"] = len(series["terms"])
    doc["series"] = json.dumps(series, separators=(",", ":"), sort_keys=True)
    doc["digest"] = hashlib.sha256(doc["series"].encode()).hexdigest()
    path.write_text(json.dumps(doc))


def test_cache_entry_rejected_by_from_json_is_a_miss(tmp_path):
    desc, win, cache = "theta", TruncationWindow(48, 0), str(tmp_path)
    want = cli._cached_expand(desc, win, cache)[0]
    (path,) = tmp_path.glob("*.json")
    _corrupt_body(path)
    body, _, hit, _, _ = cli._cached_expand(desc, win, cache)
    assert (body, hit) == (want, False)
    assert json.loads(path.read_text())["series"] == want

def test_cache_entry_with_two_terms_swapped_is_a_miss(tmp_path, capsys):
    """Two terms of a stored body swapped, under a sound digest and term
    count: ``from_json`` takes terms only in strictly increasing (s, q, z)
    order, so the text hit is a miss, prints what the first miss printed,
    and rewrites the entry, which the next request hits."""
    argv = ["expand", "theta", "--qmax", "2", "--smax", "0", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    (path,) = tmp_path.glob("*.json")
    stored = json.loads(path.read_text())

    def swap(terms):
        terms[0], terms[1] = terms[1], terms[0]

    _corrupt_body(path, swap)
    with pytest.raises(ValueError, match="bad term"):
        FourierSeries.from_json(json.loads(path.read_text())["series"])
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert json.loads(path.read_text()) == stored
    assert cli._cached_expand("theta", TruncationWindow(48, 0), str(tmp_path))[2]


def _no_parse(text):
    raise AssertionError("a body was parsed")


def test_json_hit_splices_the_body_unparsed(tmp_path, capsys, monkeypatch):
    argv = ["expand", "lift:D2", "--qmax", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    monkeypatch.setattr(cli.FourierSeries, "from_json", _no_parse)
    assert main(argv) == 0
    assert capsys.readouterr().out == miss


def test_compare_of_equal_digests_parses_neither_body(tmp_path, capsys, monkeypatch):
    argv = ["compare", "lift:D2", "borcherds:D2", "--qmax", "3", "--smax", "2",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    assert miss.startswith("equal: ")
    monkeypatch.setattr(cli.FourierSeries, "from_json", _no_parse)
    assert main(argv) == 0
    assert capsys.readouterr().out == miss
    # a hit beside a miss: the miss counts the terms
    assert main(["compare", "lift:D2", "product:D2"] + argv[3:]) == 0
    assert capsys.readouterr().out == miss.replace("borcherds:D2", "product:D2")


def test_compare_of_different_digests_reports_the_first_difference(tmp_path, capsys):
    argv = ["compare", "psi_10_D2", "lift:psi_10_D2", "--qmax", "3", "--smax", "2",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 1
    miss = capsys.readouterr().out
    assert miss.startswith("difference at s^0")
    assert main(argv) == 1
    assert capsys.readouterr().out == miss
    # a body from_json rejects is a miss on this path too, and rewritten
    path = pathlib.Path(cli._cache_path(str(tmp_path), "psi_10_D2", TruncationWindow(72, 4)))
    want = json.loads(path.read_text())["series"]
    _corrupt_body(path)
    assert main(argv) == 1
    assert capsys.readouterr().out == miss
    assert json.loads(path.read_text())["series"] == want


def test_cache_entry_without_its_term_count_is_a_miss(tmp_path):
    desc, win, cache = "theta", TruncationWindow(48, 0), str(tmp_path)
    body, _, hit, _, terms = cli._cached_expand(desc, win, cache)
    assert (hit, terms) == (False, cli.FourierSeries.from_json(body).term_count())
    (path,) = tmp_path.glob("*.json")
    for count in (None, str(terms), terms - 1):  # no count, or not the body's
        doc = json.loads(path.read_text())
        assert doc["terms"] == terms
        doc["terms"] = count
        if count is None:
            del doc["terms"]
        path.write_text(json.dumps(doc))
        assert cli._cached_expand(desc, win, cache, parse=False)[2] is False
    assert cli._cached_expand(desc, win, cache, parse=False)[2:] == (True, None, terms)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_built_zeros_and_outside_terms_print_as_a_hit_reads_them(
        tmp_path, capsys, monkeypatch, fmt):
    """A builder that leaves stored zeros, empty cells or terms outside the
    window prints the same on a miss and on a hit, and its entry hits."""
    build = cli.expand_descriptor

    def dirty(desc, window):
        f = build("theta", window)
        f.cells.setdefault((0, 0), {})[(5,)] = 0
        f.cells[(0, 1)] = {}
        f.cells[(0, window.q_max + 24)] = {(0,): 3}
        return f

    monkeypatch.setattr(cli, "expand_descriptor", dirty)
    argv = ["expand", "theta", "--qmax", "2", "--smax", "0", "--format", fmt,
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == miss
    monkeypatch.undo()
    assert cli._cached_expand("theta", TruncationWindow(48, 0), str(tmp_path))[2] is True
    assert main(argv) == 0
    assert capsys.readouterr().out == miss

# one descriptor of every kind, each with its own window
KINDS = (("psi_10_D2", 2, 2), ("lift:D2", 3, 2), ("borcherds:D3", 2, 2),
         ("product:A2", 2, 2), ("phi0:D4", 1, 0), ("closedform:D3", 2, 2))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cache_hit_prints_what_the_miss_printed(tmp_path, capsys, fmt):
    for desc, qmax, smax in KINDS:
        argv = ["expand", desc, "--qmax", str(qmax), "--smax", str(smax),
                "--format", fmt, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        miss = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == miss, desc
        win = TruncationWindow(24 * qmax, 2 * smax)
        assert cli._cached_expand(desc, win, str(tmp_path))[2] is True
        if fmt == "json":
            # the spliced body prints as re-serialising the whole document would
            doc = json.loads(miss)
            assert miss == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


SRC = os.path.dirname(os.path.dirname(os.path.abspath(refltower.__file__)))


def _python(code: str, *argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_every_module_and_runs_no_numpy():
    proc = _python(
        "import pkgutil, sys, refltower.cli\n"
        "print(sorted(m.name for m in pkgutil.iter_modules(refltower.__path__, 'refltower.')"
        " if m.name not in sys.modules))\n"
        "print(sorted(n for n in sys.modules if n.startswith('numpy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_cache_hits_need_no_numpy(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path)]
    requests = [["expand", "lift:D3", "--qmax", "2", "--smax", "2"],
                ["expand", "lift:D3", "--qmax", "2", "--smax", "2", "--format", "json"],
                ["compare", "lift:D2", "borcherds:D2", "--qmax", "3", "--smax", "2"],
                ["compare", "psi_10_D2", "lift:psi_10_D2", "--qmax", "3", "--smax", "2"]]
    blocked = ("import sys\nsys.modules['numpy'] = None\n"
               "from refltower.cli import main\nraise SystemExit(main(sys.argv[1:]))")
    for argv in requests:
        rc = main(argv + cache)
        want = capsys.readouterr().out
        proc = _python(blocked, *argv, *cache)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, want, "")
    # misses on the dict path need no numpy either: the D lift, the closed
    # formula and a bare block are summed from odd shells
    misses = [["expand", "lift:D6", "--qmax", "3", "--smax", "2"],
              ["expand", "closedform:D7", "--qmax", "3", "--smax", "2"],
              ["expand", "psi_8_D4"]]
    for i, argv in enumerate(misses):
        rc = main(argv + cache)
        want = capsys.readouterr().out
        fresh = tmp_path / ("miss%d" % i)
        proc = _python(blocked, *argv, "--cache-dir", str(fresh))
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, want, "")
        assert len(list(fresh.glob("*.json"))) == 1  # computed and written
    # the block is real: a miss needs numpy's kernels
    proc = _python(blocked, "expand", "borcherds:D3", "--qmax", "2", *cache)
    assert proc.returncode != 0


def test_verify_below_every_block_fails_without_a_traceback():
    proc = _python("import sys\nfrom refltower.cli import main\nraise SystemExit(main(sys.argv[1:]))",
                   "verify", "cusp-support", "--qmax", "0")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("fail cusp-support") and "checked=0 " in proc.stdout


@pytest.mark.parametrize("argv", [
    ["borcherds-integrality", "--qmax", "0"],
    ["fj1-recovery", "--qmax", "0"],
    ["nm-symmetry", "--qmax", "0"],
    ["weyl-symmetry", "--qmax", "0"],
    ["closed-form-vs-lift", "--smax", "0"],
    ["lift-equals-product:psi_5_A1", "--smax", "0"],
])
def test_verify_of_a_window_that_checks_nothing_fails(capsys, argv):
    """A check that examined no term fails, exit 1, and raises nothing;
    no runner reads a layer past --smax 0."""
    assert main(["verify", *argv]) == 1
    out = capsys.readouterr().out
    assert out.startswith("fail %s " % argv[0]) and "checked=0 " in out


def test_negative_window_is_usage_error(capsys):
    for flag in ("--qmax", "--smax"):
        for argv in (["expand", "lift:D2", flag, "-1"],
                     ["compare", "lift:D2", "borcherds:D2", flag, "-1"],
                     ["verify", "q0-terms", flag, "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "must not be negative" in capsys.readouterr().err


def test_cache_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CACHE_DIR", str(tmp_path))
    assert main(["expand", "theta", "--qmax", "1", "--smax", "0"]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_out_writes_file_only(tmp_path, capsys):
    target = tmp_path / "theta.txt"
    assert main(["expand", "theta", "--qmax", "1", "--smax", "0",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "descriptor: theta" in target.read_text()


def test_compare_lift_and_product_agree(capsys):
    assert main(["compare", "lift:D2", "borcherds:D2",
                 "--qmax", "3", "--smax", "2"]) == 0
    assert "equal" in capsys.readouterr().out


def test_compare_reports_first_difference(capsys):
    # two independent constructions of the same product agree
    assert main(["compare", "borcherds:D2", "product:D2",
                 "--qmax", "3", "--smax", "2"]) == 0
    assert "equal" in capsys.readouterr().out
    # the bare block sits at s^0, one layer below where its lift starts
    assert main(["compare", "psi_10_D2", "lift:psi_10_D2",
                 "--qmax", "3", "--smax", "2"]) == 1
    out = capsys.readouterr().out
    assert "difference at s^0" in out


def test_compare_of_a_window_without_terms_fails(tmp_path, capsys, monkeypatch):
    """Below both sides' first term nothing is compared, which fails as
    ``verify`` fails a check of no term: on the equal-digest path, miss
    and hit, and on the parsed path, here two empty series whose windows,
    and so digests, differ."""
    argv = ["compare", "lift:D4", "borcherds:D4", "--qmax", "0", "--smax", "1"]
    want = "nothing compared: neither lift:D4 nor borcherds:D4 has a term through q^0 s^1\n"
    for _ in range(2):  # a miss, then a hit that parses neither body
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().out == want
    real = cli.expand_descriptor

    def narrowed(desc, window):
        got = real(desc, window)
        if desc.startswith("borcherds:"):
            return got.truncated(TruncationWindow(window.q_max, 0))
        return got

    monkeypatch.setattr(cli, "expand_descriptor", narrowed)
    monkeypatch.setattr(cli.FourierSeries, "first_difference",
                        lambda a, b: pytest.fail("compared an empty pair"))
    assert main(argv) == 1
    assert capsys.readouterr().out == want


def test_compare_incompatible_grids_is_usage_error(capsys):
    assert main(["compare", "theta", "eta^3", "--qmax", "2"]) == 2
    assert "incompatible grids" in capsys.readouterr().err


def test_verify_list_names(capsys):
    assert main(["verify", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "q0-terms" in names
    assert "lift-equals-product:psi_2_4A1" in names
    assert names == sorted(names)


def test_verify_selected_identities_json(capsys):
    assert main(["verify", "weight-equals-half-constant", "q0-terms",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["identity"] for r in doc] == [
        "q0-terms", "weight-equals-half-constant"]
    assert all(r["status"] == "pass" for r in doc)


def test_verify_unknown_identity_is_usage_error(capsys):
    assert main(["verify", "no-such-check"]) == 2
    assert "unknown identity" in capsys.readouterr().err


def test_verify_failure_exits_one(monkeypatch, capsys):
    real = jacobi.theta_product_form
    monkeypatch.setattr(jacobi, "theta_product_form",
                        lambda q_max: scaled(real(q_max), 3))
    assert main(["verify", "theta-triple-product", "--qmax", "2"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out
    assert "claim:" in out


def test_non_integral_product_is_a_reported_error(monkeypatch, capsys):
    real = jacobi.weak_weight0

    def crooked(key, depth):
        return scaled(real(key, depth), Fraction(1, 2))

    monkeypatch.setattr(borcherds, "weak_weight0", crooked)
    for argv in (["expand", "borcherds:D2", "--qmax", "3", "--smax", "2"],
                 ["compare", "lift:D2", "borcherds:D2", "--qmax", "3", "--smax", "2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-integral product coefficient")
