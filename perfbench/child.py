"""One fresh process of a benchmark run: import, set-up, warm-up, timed ops.

Started by run.py with a JSON config as its only argument. Set-up ends after
one untimed warm-up op; peak RSS is read then, and the host-speed probe
(probe.py) runs SETUP_PROBES times. A ``"setup"`` child stops there. The
``"main"`` child goes on to time ops, with a probe after each, while the
next op, at the median op time so far, ends before the run's deadline; it
runs at least MIN_OPS. Every op's output is checked after its timer stops. The last
stdout line is a JSON record for run.py.

With tracing on, ops cycle through TRACE_CYCLE: untraced, spans, then
tracemalloc peaks, so the same process measures both sides of the tracing
overhead and allocation tracing never slows a timed span.
"""

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tr
from probe import probe
from workloads import MAX_OPS, WORKLOADS

MIN_OPS = 3
SETUP_PROBES = 2
TRACE_CYCLE = (None, "spans", "alloc")


def peak_rss_mib():
    """This process's peak RSS since exec. VmHWM rather than ru_maxrss: on
    Linux, ru_maxrss carries over the RSS of the parent at fork, so a large
    run.py would set a floor under every child's figure."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(workload, i, tracer, mode):
    """(step times or None, failure reason or None) for op ``i``."""
    tracer.op = None if mode is None else i
    tracer.mode = mode
    try:
        steps, check = workload.op(i)
    except Exception:
        return None, traceback.format_exc(limit=3)
    finally:
        tracer.op = tracer.mode = None
    try:
        return steps, check()
    except Exception:
        return steps, traceback.format_exc(limit=3)


def main(cfg):
    import vpaes
    import vpaes.cli  # noqa: F401  (binds vpaes.cli for the workloads)

    tracer = tr.Tracer()
    if cfg["trace"]:
        tracer.install(vpaes)
    workload = WORKLOADS[cfg["workload"]](
        vpaes, cfg["seed"], cfg["child"], cfg["size"], Path(cfg["work_dir"]))

    failures = []
    start = time.perf_counter()
    _, reason = run_op(workload, MAX_OPS, tracer, None)
    setup_end = time.monotonic()
    estimate = time.perf_counter() - start
    warmup_ok = reason is None
    if reason:
        failures.append(f"warm-up: {reason}")
    peak_rss = peak_rss_mib()
    probes = [probe(workload.PROBE_WEIGHTS) for _ in range(SETUP_PROBES)]
    setup_probe = statistics.median(probes)

    ops, walls = [], []
    i = 0
    while cfg["role"] == "main" and i < MAX_OPS and (
            i < MIN_OPS or time.monotonic() + estimate <= cfg["deadline"]):
        mode = TRACE_CYCLE[i % len(TRACE_CYCLE)] if cfg["trace"] else None
        t0 = time.perf_counter()
        steps, reason = run_op(workload, i, tracer, mode)
        probes.append(probe(workload.PROBE_WEIGHTS))
        record = {"op": i, "mode": mode, "ok": reason is None,
                  "probe": (probes[-2] + probes[-1]) / 2}
        if steps is not None:
            record["steps"] = steps
            record["wall_s"] = sum(steps.values())
            if mode is not None:
                record["layers"] = tracer.layer_metrics(i, mode)
        if reason:
            failures.append(f"op {i}: {reason}")
        ops.append(record)
        walls.append(time.perf_counter() - t0)
        estimate = statistics.median(walls)
        i += 1

    if cfg["trace"] and cfg["role"] == "main":
        Path(cfg["spans_path"]).write_text(json.dumps({
            "ops": ops, "missing": tracer.missing, "spans": tracer.spans}))
    tracer.uninstall()
    return {"setup_end": setup_end, "setup_probe": setup_probe,
            "peak_rss_MiB": peak_rss, "ops": ops,
            "warmup_ok": warmup_ok, "failures": failures,
            "missing": tracer.missing}


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
