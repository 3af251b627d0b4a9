"""CPU time and peak memory of one deep lift-versus-product check per member.

Runs ``borcherds.compare_lift_product(key, q_depth, s_depth)`` (by
default at (5, 3), the window of the acceptance test ``c05``) for the
named members, or for every member, each in a fresh process pinned to
one CPU; this process itself is not pinned.  The child starts
``perfbench/calibrate.py``'s ``Sampler`` (loaded by path) before it
imports refltower, as the benchmark's workers do.  Prints, per member,
the child's CPU seconds (user + system, unscaled), the same CPU scaled
to the reference machine's speed as ``perfbench/worker.py`` scales a
job's (the sampler's chunks taken out, the rest times their mean
speed), its ru_maxrss and the report's status.  On a shared host the
raw time drifts with the CPU's speed phases; compare scaled times.  Not
part of tier-1; from the repository root:

    PYTHONPATH=src python tests/member_costs.py [--q-depth 5] [--s-depth 3] [KEY ...]

It exits 1 if some comparison did not report ``pass``.
"""

import argparse
import os
import subprocess
import sys

CALIBRATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "calibrate.py")

# prints the status and the scaled CPU seconds of the comparison
CHILD = ("import importlib.util, sys, time\n"
         "spec = importlib.util.spec_from_file_location('calibrate', sys.argv[4])\n"
         "cal = importlib.util.module_from_spec(spec)\n"
         "spec.loader.exec_module(cal)\n"
         "sampler = cal.Sampler()\n"
         "sampler.start()\n"
         "from refltower import borcherds\n"
         "key, q, s = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])\n"
         "status = borcherds.compare_lift_product(key, q, s)['status']\n"
         "sampler.stop()\n"
         "ref_s = (time.process_time() - sum(sampler.samples)) * cal.speed(sampler.samples)\n"
         "print(status, ref_s)\n")


def measure(key: str, q_depth: int, s_depth: int, cpu: int) -> tuple:
    """(CPU s, scaled CPU s, ru_maxrss MB, status) of one comparison in a
    fresh process on one CPU."""
    child = subprocess.Popen([sys.executable, "-c", CHILD, key, str(q_depth), str(s_depth),
                              CALIBRATE],
                             stdout=subprocess.PIPE, text=True,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    out = child.stdout.read().split()
    child.stdout.close()
    _, code, use = os.wait4(child.pid, 0)
    ok = os.waitstatus_to_exitcode(code) == 0 and len(out) == 2
    status, ref_s = (out[0], float(out[1])) if ok else ("error", float("nan"))
    return use.ru_utime + use.ru_stime, ref_s, use.ru_maxrss / 1024, status


def main(argv: list) -> int:
    from refltower import jacobi

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-depth", type=int, default=5)
    ap.add_argument("--s-depth", type=int, default=3)
    ap.add_argument("keys", nargs="*", help="members (default: all)")
    args = ap.parse_args(argv)
    unknown = set(args.keys) - set(jacobi.MEMBERS)
    if unknown:
        ap.error("unknown members: %s" % ", ".join(sorted(unknown)))
    cpu = min(os.sched_getaffinity(0))
    print("%-14s %8s %8s %12s  %s" % ("member", "CPU s", "ref s", "ru_maxrss MB", "status"))
    bad = 0
    for key in args.keys or list(jacobi.MEMBERS):
        cpu_s, ref_s, rss, status = measure(key, args.q_depth, args.s_depth, cpu)
        bad += status != "pass"
        print("%-14s %8.2f %8.2f %12.1f  %s" % (key, cpu_s, ref_s, rss, status), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
