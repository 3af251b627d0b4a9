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
  temporary cache directory;
* each member's phi0 (``jacobi.phi0_by_division``) at depth 6, depth 4
  for rank > 4, as ``to_json``;
* each member's ``borcherds.borcherds_exp`` at (q_max, s_max) = (48, 4),
  as ``to_json``;
* with ``--c05``, the reports of ``compare_lift_product(key, 5, 3)``, the
  window of the acceptance test ``c05`` (about a minute of CPU more).

A report is digested as its ``repr``, so a value whose type changes (a
numpy integer for a Python int, say) shows as a change.  Nothing is
written inside the repository.  Not part of tier-1; from the repository
root:

    PYTHONPATH=src python tests/output_digests.py [--c05] > digests.txt

Run it on two commits and ``diff`` the outputs.
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    """``perfbench/workloads.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def outputs(c05: bool):
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
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as cache:
        for job in wl.cli_menu():
            for kind in ("miss", "hit"):
                proc = subprocess.run([sys.executable, "-m", "refltower.cli", *job["argv"],
                                       "--cache-dir", cache],
                                      capture_output=True, env=env, cwd=cache)
                yield "cli %s [exit %d] %s" % (kind, proc.returncode, job["ref"]), proc.stdout
    for key, meta in jacobi.MEMBERS.items():
        depth = 6 if meta.r <= 4 else 4
        yield "phi0 %s d%d" % (key, depth), jacobi.phi0_by_division(key, depth).series.to_json()
    for key in jacobi.MEMBERS:
        yield "borcherds_exp %s q48 s4" % key, borcherds.borcherds_exp(
            key, TruncationWindow(48, 4)).to_json()
    if c05:
        for key in jacobi.MEMBERS:
            yield "c05 %s q5 s3" % key, repr(borcherds.compare_lift_product(key, 5, 3))


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c05", action="store_true",
                    help="add compare_lift_product(key, 5, 3) for every member")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    for name, data in outputs(args.c05):
        line = "%s %s" % (_sha(data), name)
        total.update(line.encode() + b"\n")
        count += 1
        print(line, flush=True)
    print("%s total (%d outputs)" % (total.hexdigest(), count))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
