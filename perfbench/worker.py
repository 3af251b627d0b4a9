"""Worker processes for the benchmark.

``worker.py serve [--trace-out PATH]`` imports refltower and prints
``ready`` with the CPU seconds its start took and the speed they ran at,
then answers one JSON job per stdin line with one JSON result line until
stdin closes.  A result carries the job's CPU seconds in ``cpu_s`` and the
speed they ran at in ``speed`` (see calibrate.py).

``worker.py cli --cal-out PATH [--trace-out PATH] -- ARGS`` runs one
``refltower`` command line as ``python -m refltower.cli ARGS`` does and
writes the calibration samples it took to the ``--cal-out`` path.

Both modes start the calibration sampler before they import refltower, so
start-up is calibrated too.  With ``--trace-out`` the calls are traced and
the trace is written to that path on exit.
"""

import json
import os
import sys
import time
import traceback

import calibrate


def execute(job: dict) -> dict:
    from refltower import borcherds, verification
    from refltower.series import TruncationWindow
    if job["kind"] == "sweep":
        rep = borcherds.compare_lift_product(job["member"], job["q_depth"], job["s_depth"])
        return {"status": rep["status"], "terms": rep["checked_terms"]}
    if job["kind"] == "identity":
        rep = verification.run(job["identity"], TruncationWindow(job["q_max"], job["s_max"]))
        return {"status": rep.status, "terms": rep.checked_terms}
    raise ValueError("unknown job kind %r" % job["kind"])


def _start_tracer():
    import tracer
    t = tracer.Tracer()
    t.install()
    return t


def _write_json(doc, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def serve(sampler: calibrate.Sampler, trace_out) -> int:
    import refltower.cli  # noqa: F401  (loads every refltower module)
    # the protocol owns the real stdout; anything the library prints goes
    # to stderr
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr
    t = _start_tracer() if trace_out else None
    samples = sampler.samples
    ready_s = time.process_time() - sum(samples)
    proto.write("ready %r %r\n" % (ready_s, calibrate.speed(samples)))
    try:
        for line in sys.stdin:
            job = json.loads(line)
            if t is not None:
                t.job = job["id"]
            n0 = len(samples)
            c0 = time.process_time()
            try:
                res = execute(job)
            except Exception:
                res = {"error": traceback.format_exc(limit=5)}
            cpu_s = time.process_time() - c0
            mine = samples[n0:]
            res["cpu_s"] = cpu_s - sum(mine)
            res["speed"] = calibrate.speed(mine, samples[:n0])
            proto.write(json.dumps(res) + "\n")
    finally:
        sampler.stop()
        if t is not None:
            t.uninstall()
            _write_json(t.dump(), trace_out)
    return 0


def run_cli(sampler: calibrate.Sampler, cal_out: str, trace_out, argv) -> int:
    from refltower import cli
    t = _start_tracer() if trace_out else None
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sampler.stop()
        if t is not None:
            t.uninstall()
            _write_json(t.dump(), trace_out)
        _write_json({"samples": sampler.samples}, cal_out)
    return rc


def main(argv) -> int:
    mode, rest = (argv[0], argv[1:]) if argv else (None, [])
    opts = {}
    while len(rest) > 1 and rest[0] in ("--trace-out", "--cal-out"):
        opts[rest[0]] = rest[1]
        rest = rest[2:]
    sampler = calibrate.Sampler()
    sampler.start()
    if mode == "serve" and not rest:
        return serve(sampler, opts.get("--trace-out"))
    if mode == "cli" and "--cal-out" in opts and rest[:1] == ["--"]:
        return run_cli(sampler, opts["--cal-out"], opts.get("--trace-out"), rest[1:])
    sampler.stop()
    print("usage: worker.py serve [--trace-out PATH] | "
          "cli --cal-out PATH [--trace-out PATH] -- ARGS", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
