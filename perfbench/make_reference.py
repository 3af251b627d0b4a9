"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Runs every menu entry of every workload once and records what the
benchmark checks: status and checked_terms of each sweep job and identity,
the ``equal:`` term count of each ``compare``, and the term count, digest
and a hash of the whole output of each ``expand``.  The table is meant to
be generated once, at a commit whose results are trusted, and then left
alone: the benchmark counts any difference from it as a failed job.
"""

import hashlib
import json
import subprocess
import sys

import run

sys.path.insert(0, run.SRC)

import worker  # noqa: E402
import workloads  # noqa: E402


def inprocess_entry(job: dict) -> dict:
    res = worker.execute(job)
    return {"status": res["status"], "checked_terms": res["terms"]}


def cli_entry(job: dict) -> dict:
    p = subprocess.run([sys.executable, "-m", "refltower.cli"] + job["argv"],
                       capture_output=True, text=True, env=run._child_env(), cwd=run.ROOT,
                       check=True)
    if job["command"] == "compare":
        return {"terms": int(run._EQUAL.search(p.stdout).group(1))}
    return {"terms": int(run._TERMS.search(p.stdout).group(1)),
            "digest": run._DIGEST.search(p.stdout).group(1),
            "stdout_sha256": hashlib.sha256(p.stdout.encode()).hexdigest()}


def main() -> int:
    table = {}
    for wl in workloads.WORKLOADS:
        entry = cli_entry if wl == "cli-cold" else inprocess_entry
        table[wl] = {}
        for job in workloads.menu(wl):
            table[wl][job["ref"]] = entry(job)
            print(wl, job["ref"], table[wl][job["ref"]], flush=True)
    doc = {"generated_at_commit": run._git_commit(), "workloads": table}
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
