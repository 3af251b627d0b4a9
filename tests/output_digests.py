"""sha256 digests of the program's observable outputs, to show that a
change leaves them byte-identical.

Prints one ``digest name`` line per output, then a ``digest total`` line
over all of them, for:

* the reports of ``borcherds.compare_lift_product`` at the windows of the
  ``lift-product-sweep`` workload (``perfbench/workloads.py``), in one
  process, so in-process memos fill and get hit as in the benchmark;
* the reports of ``verification.run`` for the ``identity-mix`` workload
  at its benchmark windows;
* the stdout of each ``cli-cold`` request, first as a cache miss, then as
  a hit, each in a fresh ``python3 -m refltower.cli`` process sharing one
  temporary cache directory (``cli_in_process`` runs them through
  ``cli.main`` instead, with the same bytes);
* each member's phi0 (``jacobi.phi0_by_division``) at depth 6, depth 4
  for rank > 4, as ``to_json``;
* each member's ``borcherds.borcherds_exp`` at (q_max, s_max) = (48, 4),
  as ``to_json``;
* with ``--c05``, the reports of ``compare_lift_product(key, 5, 3)``, the
  window of the acceptance test ``c05`` (about a minute of CPU more),
  and the report of ``closed-form-vs-lift`` at its cap (120, 6), which
  the acceptance test ``c06`` checks.

A report is digested as its ``repr``, so a value whose type changes (a
numpy integer for a Python int, say) shows as a change.  Nothing is
written inside the repository.  Not part of tier-1; from the repository
root:

    PYTHONPATH=src python tests/output_digests.py [--c05] > digests.txt

Run it on two commits and ``diff`` the outputs, or let it do both:

    PYTHONPATH=src python tests/output_digests.py [--c05] --against REV

extracts REV's ``src/`` with ``git archive`` into a temporary directory,
computes the same digests there in a child process (``--src DIR``
digests the package under DIR), and prints only the lines that differ,
``-`` for REV's and ``+`` for this tree's; it exits 1 if any do.
``golden_digests.txt``
holds its ``--c05`` lines without the total, which the tier-1 test
``test_golden.py`` checks; after a change meant to alter an output,
regenerate it with

    PYTHONPATH=src python tests/output_digests.py --c05 | head -n -1 > tests/golden_digests.txt
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")  # the package digested; ``--src`` moves it
GOLDEN = os.path.join(ROOT, "tests", "golden_digests.txt")


def _workloads():
    """``perfbench/workloads.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def golden() -> dict:
    """{name: digest} of every line of ``golden_digests.txt``."""
    with open(GOLDEN) as fh:
        return {name: d for d, name in (line.rstrip("\n").split(" ", 1) for line in fh)}


def cli_subprocess(argv: list, cache: str) -> tuple:
    """(exit code, stdout) of one request in a fresh ``refltower.cli`` process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "refltower.cli", *argv, "--cache-dir", cache],
                          capture_output=True, env=env, cwd=cache)
    return proc.returncode, proc.stdout


def cli_in_process(argv: list, cache: str) -> tuple:
    """(exit code, stdout) of one request through ``cli.main`` in this process."""
    from refltower import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--cache-dir", cache])
    return code, out.getvalue().encode()


def outputs(c05: bool, run_cli=cli_subprocess):
    """(name, bytes or str) of every output, in a fixed order."""
    from refltower import borcherds, jacobi, verification
    from refltower.series import TruncationWindow

    wl = _workloads()
    for job in wl.sweep_menu():
        rep = borcherds.compare_lift_product(job["member"], job["q_depth"], job["s_depth"])
        yield "sweep " + job["ref"], repr(rep)
    for job in wl.identity_menu():
        rep = verification.run(job["identity"], TruncationWindow(job["q_max"], job["s_max"]))
        yield "identity " + job["ref"], repr(rep)
    with tempfile.TemporaryDirectory() as cache:
        for job in wl.cli_menu():
            for kind in ("miss", "hit"):
                code, out = run_cli(job["argv"], cache)
                yield "cli %s [exit %d] %s" % (kind, code, job["ref"]), out
    for key, meta in jacobi.MEMBERS.items():
        depth = 6 if meta.r <= 4 else 4
        yield "phi0 %s d%d" % (key, depth), jacobi.phi0_by_division(key, depth).series.to_json()
    for key in jacobi.MEMBERS:
        yield "borcherds_exp %s q48 s4" % key, borcherds.borcherds_exp(
            key, TruncationWindow(48, 4)).to_json()
    if c05:
        for key in jacobi.MEMBERS:
            yield "c05 %s q5 s3" % key, repr(borcherds.compare_lift_product(key, 5, 3))
        yield "c06 closed-form-vs-lift q120 s6", repr(verification.run("closed-form-vs-lift"))


def lines(c05: bool):
    """Every ``digest name`` line, then the ``digest total`` line."""
    total = hashlib.sha256()
    count = 0
    for name, data in outputs(c05):
        line = "%s %s" % (sha(data), name)
        total.update(line.encode() + b"\n")
        count += 1
        yield line
    yield "%s total (%d outputs)" % (total.hexdigest(), count)


def against(rev: str, c05: bool) -> int:
    """Print the lines of this tree and of REV's ``src/`` that differ."""
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                *(["--c05"] if c05 else []), "--src", os.path.join(tmp, "src")],
                               capture_output=True, text=True, check=True)
    differ = 0
    for a, b in itertools.zip_longest(child.stdout.splitlines(), lines(c05)):
        if a != b:
            differ = 1
            for sign, line in (("-", a), ("+", b)):
                if line is not None:
                    print(sign, line, flush=True)
    return differ


def main(argv: list) -> int:
    global SRC
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c05", action="store_true",
                    help="add compare_lift_product(key, 5, 3) for every member and "
                         "closed-form-vs-lift at its cap")
    ap.add_argument("--src", help="digest the refltower package under this directory")
    ap.add_argument("--against", metavar="REV",
                    help="print only the lines that differ from REV's src/")
    args = ap.parse_args(argv)
    if args.src:
        SRC = os.path.abspath(args.src)
    sys.path.insert(0, SRC)
    if args.against:
        return against(args.against, args.c05)
    for line in lines(args.c05):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
