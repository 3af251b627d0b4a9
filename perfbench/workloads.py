"""Menus and seeded job lists of the three benchmark workloads.

Every workload runs in rounds.  A round holds each menu entry once (twice
for ``cli-cold``) in an order drawn from the seed.  A run executes a fixed
number of whole rounds, ``seconds / NOMINAL_ROUND_S``, so every run of a
given length does the same jobs on every commit: entries recur across
rounds, the share of cold jobs is fixed, and medians stay comparable
between seeds and between commits.  A faster program finishes sooner.

* ``lift-product-sweep``: ``borcherds.compare_lift_product`` for every
  member of ``jacobi.MEMBERS`` at two windows sized by the member's rank,
  one long-lived worker, so in-process caches fill and get hit.
* ``cli-cold``: one fresh ``refltower`` process per request.  The cache
  directory is emptied at the start of every round and each entry appears
  twice per round under its own cache keys, so exactly half the requests
  read the disk cache and half write it.
* ``identity-mix``: ``verification.run`` for every identity of
  ``verification.identities()`` except the lift-versus-product sweep, at
  one capped window.
"""

import random

from refltower import jacobi, verification

WORKLOADS = ("lift-product-sweep", "cli-cold", "identity-mix")

# Seconds one round takes at the reference commit on a 2-core Xeon VM
# (the sweep's first, cold round takes about twice its later rounds).
NOMINAL_ROUND_S = {"lift-product-sweep": 2.0, "cli-cold": 9.0, "identity-mix": 8.0}

# (q_depth, s_depth) windows per size class, cheapest class first; one
# cold job stays under about a second on a 2-core Xeon.
SWEEP_CLASSES = (
    ((4, 3), (6, 4)),
    ((3, 3), (4, 3)),
    ((3, 2), (3, 3)),
    ((2, 2), (3, 2)),
)

# Storage windows (q_max, s_max) of the identity checks: q^2 s^2, deeper
# in q for the checks that are cheapest there, so that every check which
# is not a table lookup takes 0.15-0.35 s warm.  Without a dense cluster
# of job costs the median and tail sit in gaps between a few costs and
# jump with scheduling jitter.  The wall scan, at its smallest depth,
# takes about five seconds.
IDENTITY_WINDOW = (48, 4)
IDENTITY_WINDOWS = {
    "closed-form-vs-lift": (72, 4),
    "quasi-pullback-chain": (72, 4),
    "cusp-support": (96, 4),
    "fj1-recovery": (96, 4),
    "singular-support": (96, 4),
}

# (command, descriptors, qmax, smax).  No two entries share a
# (descriptor, window) cache key, which keeps the cache-hit share exact.
CLI_MENU = (
    ("expand", ("lift:D6",), 3, 2),
    ("expand", ("borcherds:3A2",), 2, 2),
    ("expand", ("phi0:D8",), 2, 0),
    ("expand", ("closedform:D7",), 3, 2),
    ("expand", ("product:A2",), 4, 3),
    ("compare", ("lift:D5", "borcherds:D5"), 4, 2),
    ("compare", ("lift:2A2", "borcherds:2A2"), 3, 3),
    ("compare", ("lift:D1", "borcherds:D1"), 6, 4),
)


def sweep_class(key: str) -> int:
    """Size class of a member: by rank, one class smaller for tower tops."""
    r = jacobi.MEMBERS[key].r
    c = 0 if r <= 2 else 1 if r <= 4 else 2 if r <= 6 else 3
    if key in jacobi.TOWER_TOPS:
        c += 1
    return min(c, len(SWEEP_CLASSES) - 1)


def sweep_menu() -> list:
    return [{"kind": "sweep", "member": key, "q_depth": q, "s_depth": s,
             "ref": "%s q%d s%d" % (key, q, s)}
            for key in jacobi.MEMBERS
            for q, s in SWEEP_CLASSES[sweep_class(key)]]


def identity_menu() -> list:
    out = []
    for name in verification.identities():
        if name.startswith("lift-equals-product:"):
            continue
        q_max, s_max = IDENTITY_WINDOWS.get(name, IDENTITY_WINDOW)
        out.append({"kind": "identity", "identity": name, "q_max": q_max, "s_max": s_max,
                    "ref": "%s q%d s%d" % (name, q_max, s_max)})
    return out


def cli_menu() -> list:
    out = []
    for cmd, descs, qmax, smax in CLI_MENU:
        argv = [cmd, *descs, "--qmax", str(qmax), "--smax", str(smax)]
        out.append({"kind": "cli", "command": cmd, "argv": argv,
                    "ref": " ".join(argv)})
    return out


def menu(workload: str) -> list:
    if workload == "lift-product-sweep":
        return sweep_menu()
    if workload == "identity-mix":
        return identity_menu()
    if workload == "cli-cold":
        return cli_menu()
    raise ValueError("unknown workload %r" % workload)


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def rounds(workload: str, seed: int):
    """Endless seeded rounds of jobs; each job is a fresh dict with an id."""
    rng = random.Random("%s/%d" % (workload, seed))
    base = menu(workload)
    copies = 2 if workload == "cli-cold" else 1
    next_id = 0
    while True:
        rnd = [dict(job) for job in base for _ in range(copies)]
        rng.shuffle(rnd)
        for job in rnd:
            job["id"] = next_id
            next_id += 1
        yield rnd
