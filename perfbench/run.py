"""refltower benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/refltower``).  The
seed fixes the job list; refltower only sees the generated inputs.  A run
is ``seconds / NOMINAL_ROUND_S`` whole rounds of jobs (see workloads.py),
which lasts about ``--seconds`` at the reference commit.  Every result is
checked against ``perfbench/reference.json``; a job fails on an
exception, a non-zero exit, a ``fail`` status, a timeout or a mismatch.

The process pins itself, and so every process it starts, to one CPU.
Times are CPU seconds of the process doing the work, scaled to the
reference machine's speed by the calibration sampler that runs in it
(calibrate.py); wall-clock figures are printed and stored beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
jobs twice, untraced and then traced, prints the per-layer metrics of the
traced pass and the tracing overhead as the drop in ``terms_per_ref_s``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
an environment stamp, and for traced runs the spans, go to
``.perfbench/results/``.
"""

import argparse
import hashlib
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"), ("job_ref_s_p50", "s"), ("job_ref_s_tail", "s"),
    ("terms_per_ref_s", "1/s"), ("peak_rss_mb", "MB"),
)


def _layer(prefix, *fields):
    units = {"self_s": "s", "bytes": "B"}
    return [("%s.%s" % (prefix, f), units.get(f, "count")) for f in fields]


PER_LAYER = tuple(
    _layer("series.slice_mul", "calls", "self_s", "pairs")
    + _layer("series.packed_reduce", "calls", "self_s", "keys")
    + _layer("series.mul", "calls", "self_s")
    + _layer("series.div", "calls", "self_s")
    + _layer("series.first_difference", "self_s")
    + _layer("series.to_json", "self_s", "bytes")
    + _layer("series.from_json", "self_s", "bytes")
    + _layer("jacobi.member_slice", "calls", "self_s")
    + _layer("jacobi.member_hecke_slice", "calls", "self_s", "terms")
    + _layer("jacobi.divide_by_member", "calls", "self_s", "terms_in")
    + _layer("jacobi.phi0_by_division", "calls", "self_s")
    + _layer("jacobi.weak_weight0", "calls", "self_s")
    + [("jacobi.weak_weight0.division_ratio", "ratio")]
    + _layer("jacobi.theta_A2", "calls", "self_s")
    + _layer("borcherds.exp_layers", "calls", "self_s")
    + _layer("borcherds.hecke_v0", "calls", "self_s")
    + _layer("borcherds.borcherds_exp", "self_s")
    + _layer("borcherds.borcherds_product_form", "self_s")
    + _layer("borcherds.compare_lift_product", "calls", "self_s", "terms")
    + _layer("borcherds.reflective_divisor_scan", "calls", "self_s", "walls")
    + _layer("lattices.in_dual", "calls", "self_s")
    + _layer("lattices.eichler_invariant", "calls", "self_s")
    + _layer("lattices.disc_reduce", "calls", "self_s")
    + _layer("lifting.gritsenko_lift", "self_s")
    + _layer("lifting.closed_form_slice", "calls", "self_s", "terms")
    + _layer("verification.run", "calls", "self_s")
    + _layer("cli.expand_descriptor", "calls", "self_s")
    + [("cli.cache.hit_ratio", "ratio"), ("cli.cache.bytes", "B")]
    + [("trace.terms_per_ref_s_untraced", "1/s"), ("trace.terms_per_ref_s_traced", "1/s"),
       ("trace.overhead_frac", "ratio")]
)


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg1() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    nproc = len(os.sched_getaffinity(0))
    return {"commit": _git_commit(), "seed": seed, "nproc": nproc,
            "cpu_model": _cpu_model(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "load1_start": _loadavg1()}


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU.

    The closed loop never runs two things at once, so one CPU is all it
    uses; pinned, the calibration samples measure the CPU the jobs run on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# workers


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("CACHE_DIR", None)
    return env


class Worker:
    """A ``worker.py serve`` process.

    ``setup_cpu_s`` is the CPU time the process spent from its start until
    it was ready and ``setup_speed`` the speed it ran at (calibrate.py);
    ``setup_wall_s`` is the wall-clock time from spawn to ready.
    """

    def __init__(self, trace_out=None):
        argv = [sys.executable, WORKER, "serve"]
        if trace_out:
            argv += ["--trace-out", trace_out]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=_child_env(), cwd=ROOT)
        line = self._read(JOB_TIMEOUT_S)
        self.setup_wall_s = time.perf_counter() - t0
        if not line.startswith("ready "):
            self.close()
            raise RuntimeError("worker did not start: %r" % line)
        self.setup_cpu_s, self.setup_speed = map(float, line.split()[1:3])

    def _read(self, timeout: float) -> str:
        # a job past its timeout gets the worker killed, which ends the read
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def call(self, job: dict):
        """The worker's answer to one job, or None on a crash or timeout."""
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self._read(JOB_TIMEOUT_S)
        return json.loads(line) if line else None

    def close(self):
        """Close the worker's stdin, which stops it, and wait for it."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup() -> dict:
    """CPU seconds, speeds and wall-clock seconds of SETUP_SAMPLES worker
    starts."""
    times = {"cpu": [], "speed": [], "wall": []}
    for _ in range(SETUP_SAMPLES):
        w = Worker()
        times["cpu"].append(w.setup_cpu_s)
        times["speed"].append(w.setup_speed)
        times["wall"].append(w.setup_wall_s)
        w.close()
    return times


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# checks against the reference table


_EQUAL = re.compile(r"^equal: .* \((\d+) terms\)$", re.M)
_TERMS = re.compile(r"^terms: (\d+)$", re.M)
_DIGEST = re.compile(r"^digest: ([0-9a-f]{64})$", re.M)


def check_worker_result(job: dict, res, ref: dict):
    """(terms, error); error is None when the result matches the reference."""
    if res is None:
        return 0, "worker crashed or timed out"
    if "error" in res:
        return 0, res["error"]
    want = ref.get(job["ref"])
    if want is None:
        return 0, "no reference entry"
    if res["status"] != "pass":
        return 0, "status %s" % res["status"]
    if res["terms"] != want["checked_terms"]:
        return 0, "checked %d terms, reference %d" % (res["terms"], want["checked_terms"])
    return res["terms"], None


def check_cli_output(job: dict, rc: int, out: str, ref: dict):
    if rc != 0:
        return 0, "exit code %d" % rc
    want = ref.get(job["ref"])
    if want is None:
        return 0, "no reference entry"
    if job["command"] == "compare":
        m = _EQUAL.search(out)
        terms = int(m.group(1)) if m else None
        if terms != want["terms"]:
            return 0, "compare printed %r, reference %d terms" % (terms, want["terms"])
        return terms, None
    m_terms, m_digest = _TERMS.search(out), _DIGEST.search(out)
    got = (int(m_terms.group(1)) if m_terms else None,
           m_digest.group(1) if m_digest else None,
           hashlib.sha256(out.encode()).hexdigest())
    if got != (want["terms"], want["digest"], want["stdout_sha256"]):
        return 0, "expand output differs from the reference"
    return want["terms"], None


# ---------------------------------------------------------------------------
# passes


def _record(jobs: list, job: dict, t0: float, cpu_s, speed, terms: int, error) -> None:
    """One job record.  ``ref_s`` is the job's CPU time scaled to the
    reference machine's speed (calibrate.py); a job whose CPU time is
    unknown is charged its latency, unscaled."""
    latency = time.perf_counter() - t0
    if cpu_s is None:
        cpu_s, speed = latency, 1.0
    jobs.append({"id": job["id"], "ref": job["ref"], "latency_s": latency,
                 "cpu_s": cpu_s, "speed": speed, "ref_s": cpu_s * speed,
                 "terms": terms, "error": error, "cache": job.get("cache")})


def inprocess_pass(workload, seed, n_rounds, ref, trace_out=None) -> dict:
    import workloads
    jobs = []
    worker = Worker(trace_out)
    start = time.perf_counter()
    try:
        for job in itertools.chain.from_iterable(
                itertools.islice(workloads.rounds(workload, seed), n_rounds)):
            t0 = time.perf_counter()
            res = worker.call(job)
            terms, error = check_worker_result(job, res, ref)
            _record(jobs, job, t0, res and res.get("cpu_s"), res and res.get("speed"),
                    terms, error)
            if res is None:
                break  # the worker is gone; the rest of the run is not attempted
        wall = time.perf_counter() - start
    finally:
        worker.close()
    return {"jobs": jobs, "wall_s": wall}


def _take_samples(path: str) -> list:
    """The calibration samples a CLI child wrote, removing its file."""
    try:
        with open(path) as fh:
            return json.load(fh)["samples"]
    except (OSError, ValueError):
        return []
    finally:
        if os.path.exists(path):
            os.remove(path)


def cli_pass(workload, seed, n_rounds, ref, trace_out=None) -> dict:
    import workloads
    cache_dir = os.path.join(OUT_DIR, "cli-cache-%d" % os.getpid())
    env = _child_env()
    cal_out = os.path.join(OUT_DIR, "cli-cal-%d.json" % os.getpid())
    jobs = []
    traces = []
    samples = []  # every calibration sample of the pass, for short requests
    start = time.perf_counter()
    try:
        for rnd in itertools.islice(workloads.rounds(workload, seed), n_rounds):
            shutil.rmtree(cache_dir, ignore_errors=True)
            os.makedirs(cache_dir)
            seen = set()
            for job in rnd:
                job["cache"] = "read" if job["ref"] in seen else "write"
                seen.add(job["ref"])
                argv = [sys.executable, WORKER, "cli", "--cal-out", cal_out]
                if trace_out:
                    path = "%s.%d" % (trace_out, job["id"])
                    traces.append(path)
                    argv += ["--trace-out", path]
                argv += ["--"] + job["argv"] + ["--cache-dir", cache_dir]
                c0 = _children_cpu_s()
                t0 = time.perf_counter()
                try:
                    p = subprocess.run(argv, capture_output=True, text=True, env=env,
                                       cwd=ROOT, timeout=JOB_TIMEOUT_S)
                    mine = _take_samples(cal_out)
                    cpu_s = _children_cpu_s() - c0 - sum(mine)
                    speed = calibrate.speed(mine, samples)
                    samples += mine
                    terms, error = check_cli_output(job, p.returncode, p.stdout, ref)
                except subprocess.TimeoutExpired:
                    _take_samples(cal_out)
                    cpu_s, speed, terms, error = None, None, 0, "timeout"
                _record(jobs, job, t0, cpu_s, speed, terms, error)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if trace_out:
        _merge_cli_traces(traces, trace_out)
    return {"jobs": jobs, "wall_s": wall}


def _merge_cli_traces(paths: list, trace_out: str) -> None:
    """One trace file for the whole pass, child by child."""
    stats, bindings, children = {}, {}, []
    for i, path in enumerate(paths):
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        for metric, row in doc["stats"].items():
            acc = stats.setdefault(metric, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
        for k, v in doc["bindings"].items():
            bindings[k] = bindings.get(k, 0) + v
        children.append({"job": i, "spans": doc["spans"], "hot": doc["hot"]})
    with open(trace_out, "w") as fh:
        json.dump({"stats": stats, "bindings": bindings, "children": children}, fh,
                  separators=(",", ":"))


def run_pass(workload, seed, n_rounds, ref, trace_out=None) -> dict:
    fn = cli_pass if workload == "cli-cold" else inprocess_pass
    return fn(workload, seed, n_rounds, ref, trace_out)


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list):
    """(value, percentile): the highest percentile with ten samples beyond."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def _verified_terms(p: dict) -> int:
    return sum(j["terms"] for j in p["jobs"] if j["error"] is None)


def terms_per_s(p: dict) -> float:
    return _verified_terms(p) / p["wall_s"]


def terms_per_ref_s(p: dict) -> float:
    return _verified_terms(p) / sum(j["ref_s"] for j in p["jobs"])


def end_to_end(p: dict, setup: dict, peak_rss_kb: int) -> dict:
    ref_s = [j["ref_s"] for j in p["jobs"]]
    values = {
        "setup_s": statistics.median(c * v for c, v in zip(setup["cpu"], setup["speed"])),
        "job_ref_s_p50": statistics.median(ref_s),
        "job_ref_s_tail": tail(ref_s)[0],
        "terms_per_ref_s": terms_per_ref_s(p),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def wall_clock(p: dict, setup: dict) -> dict:
    """The wall-clock counterparts of the scaled metrics, for the record."""
    lat = [j["latency_s"] for j in p["jobs"]]
    return {"setup_s": statistics.median(setup["wall"]), "job_s_p50": statistics.median(lat),
            "job_s_tail": tail(lat)[0], "terms_per_s": terms_per_s(p)}


def per_layer(trace: dict, untraced: dict, traced: dict) -> dict:
    stats = trace["stats"]

    def get(metric, field):
        return stats.get(metric, {}).get(field, 0)

    values = {}
    for name, _ in PER_LAYER:
        metric, field = name.rsplit(".", 1)
        values[name] = get(metric, field)
    calls = get("jacobi.weak_weight0", "calls")
    values["jacobi.weak_weight0.division_ratio"] = (
        get("jacobi.phi0_by_division", "calls") / calls if calls else 0.0)
    lookups = get("cli.cache", "lookups")
    values["cli.cache.hit_ratio"] = get("cli.cache", "hits") / lookups if lookups else 0.0
    tu, tt = terms_per_ref_s(untraced), terms_per_ref_s(traced)
    values["trace.terms_per_ref_s_untraced"] = tu
    values["trace.terms_per_ref_s_traced"] = tt
    values["trace.overhead_frac"] = 1.0 - tt / tu if tu else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


def run_workload(workload, seed, seconds, trace, ref=None) -> dict:
    """Run one benchmark invocation; returns the result document."""
    import workloads
    if ref is None:
        ref = load_reference(workload)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    stamp = environment(seed)
    stamp["pinned_cpu"] = pin_to_one_cpu()
    base = os.path.join(OUT_DIR, "results", "%s-seed%d-trace%d" % (workload, seed, trace))
    n_rounds = workloads.round_count(workload, seconds)
    setup = measure_setup()
    first = run_pass(workload, seed, n_rounds, ref)
    passes = [first]
    if trace:
        traced = run_pass(workload, seed, n_rounds, ref, trace_out=base + ".spans.json")
        passes.append(traced)
        with open(base + ".spans.json") as fh:
            metrics = per_layer(json.load(fh), first, traced)
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = end_to_end(first, setup, peak)
    stamp["load1_end"] = _loadavg1()
    stamp["overloaded"] = max(stamp["load1_start"], stamp["load1_end"]) > stamp["nproc"]
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["error"] is not None)
    lat = [j["latency_s"] for j in first["jobs"]]
    doc = {
        "workload": workload, "seconds": seconds, "trace": trace, "environment": stamp,
        "setup_samples_s": setup,
        "wall_clock": wall_clock(first, setup),
        "rounds": n_rounds,
        "jobs": len(first["jobs"]),
        "tail_percentile": tail(lat)[1],
        "failed_frac": failed / len(jobs),
        "cache_read_share": (sum(1 for j in first["jobs"] if j["cache"] == "read")
                             / len(first["jobs"]) if workload == "cli-cold" else None),
        "result": {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                   "metrics": metrics},
        "failures": [j for j in jobs if j["error"] is not None][:20],
        "job_records": first["jobs"],
    }
    with open(base + ".json", "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def report(doc: dict) -> None:
    env = doc["environment"]
    res = doc["result"]
    print("workload %s seed %d trace %d: %d jobs in %d rounds" % (
        doc["workload"], env["seed"], doc["trace"], doc["jobs"], doc["rounds"]))
    print("environment: commit %s, nproc %d, %s, python %s, numpy %s, load1 %.2f -> %.2f%s" % (
        env["commit"], env["nproc"], env["cpu_model"], env["python"], env["numpy"],
        env["load1_start"], env["load1_end"], " (OVERLOADED)" if env["overloaded"] else ""))
    for name, m in res["metrics"].items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    if not doc["trace"]:
        print("  job_ref_s_tail is p%.1f" % doc["tail_percentile"])
    for name, value in doc["wall_clock"].items():
        print("  wall-clock %-29s %.6g" % (name, value))
    print("  failed_frac %.6g (%d of %d)" % (doc["failed_frac"], res["failed"], res["attempted"]))
    if doc["cache_read_share"] is not None:
        print("  cache_read_share %.3f" % doc["cache_read_share"])
    for f in doc["failures"]:
        print("  FAILED %s: %s" % (f["ref"], f["error"].strip().splitlines()[-1]))
    print(json.dumps(res))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "refltower", "cli.py")):
        print("error: no refltower sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (one of %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    report(run_workload(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
