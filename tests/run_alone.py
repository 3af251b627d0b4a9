"""Run every test alone, each in a fresh process on one CPU, and list the
ids that fail.

A test that passes only after an earlier one has warmed an in-process
memo, or fails only when none has, shows here; the reverse-order plugin
(``tests/reverse_order.py``) catches the first kind in one run.  The
acceptance tests (``tests/test_acceptance.py``) are left out: each one
alone builds deep windows for minutes.  Not part of tier-1; from the
repository root, with an optional ``-k`` expression:

    PYTHONPATH=src python tests/run_alone.py [-k EXPR]

It prints one line per failing id and a count, and exits 1 if any test
failed alone.
"""

import os
import subprocess
import sys

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]


def main(argv: list) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the children inherit one CPU
    listing = subprocess.run(PYTEST + ["--collect-only", *argv, "tests",
                                       "--ignore", "tests/test_acceptance.py"],
                             capture_output=True, text=True, check=True).stdout
    ids = [line for line in listing.splitlines() if "::" in line]
    failed = [i for i in ids if subprocess.run(PYTEST + [i], capture_output=True).returncode]
    for i in failed:
        print("FAILED ALONE", i)
    print("%d of %d tests failed alone" % (len(failed), len(ids)))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
