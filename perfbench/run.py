"""vpaes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload warm-key --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
checkout, never from an installed copy. Everything is single-process with
the package's default ``threads=1``; the child processes run one after
another, each starting cold (imports, the keystream ``lru_cache``, RSS).

``--trace 0``: SETUP_CHILDREN fresh children only set up (to take a median
of set-up times), then one fresh main child sets up and times ops until
``--seconds`` after the run started (child.py). End-to-end metrics, every
workload, names and units as BENCHMARK.json gives them:

  setup_s       median over the children of child start -> warm-up op done
  op_s          median over the main child's ops of one op's timed steps
  peak_rss_MiB  median over the children of peak RSS at the end of set-up

Both timings are normalised for host speed (``normalised``): each is
divided by the workload's probe factor (probe.py), the mean of one measured
just before and one just after the set-up or op, raised to
``probe.SENSITIVITY``. The raw medians, the per-step medians
(encrypt_s, decrypt_s, analyze_s, select_score_s) and error_rate are
printed above the result line.

``--trace 1``: one main child, whose ops cycle through untraced, span-traced
and allocation-traced; it reports the per-layer metrics (tracer.py).

The last stdout line is the JSON result. Exit status: 0 if every op's
output was correct, 1 if any was wrong, 2 if the run could not be made.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SENSITIVITY, probe
from tracer import median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 2
CHILD_LIMIT_S = 170
STEPS = ("encrypt", "decrypt", "analyze", "select_score")


class RunError(Exception):
    """The run could not be made; no result is printed."""


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise RunError(f"cannot read BENCHMARK.json: {exc}") from None
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, default=512,
                   help="image side in pixels (small sizes are for tests)")
    return p.parse_args(argv)


def run_children(args):
    """The records of the run's children, main child last."""
    if not (ROOT / "src" / "vpaes" / "__init__.py").is_file():
        raise RunError(f"no package source at {ROOT / 'src' / 'vpaes'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    deadline = time.monotonic() + args.seconds
    work_root = OUT / f"work-{os.getpid()}"
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    roles = ["setup"] * (0 if args.trace else SETUP_CHILDREN) + ["main"]
    children = []
    try:
        for n, role in enumerate(roles):
            child = len(roles) - 1 - n  # the main child is child 0
            work_dir = work_root / str(child)
            work_dir.mkdir(parents=True)
            cfg = {"workload": args.workload, "seed": args.seed,
                   "child": child, "role": role, "size": args.size,
                   "deadline": deadline, "trace": args.trace,
                   "work_dir": str(work_dir),
                   "spans_path": str(OUT / "spans" / (
                       f"{args.workload}-{args.seed}.json"))}
            before = probe(WORKLOADS[args.workload].PROBE_WEIGHTS)
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                    cwd=ROOT, env=env, stdout=subprocess.PIPE,
                    timeout=CHILD_LIMIT_S)
            except subprocess.TimeoutExpired:
                raise RunError(f"child {child} passed {CHILD_LIMIT_S} s") \
                    from None
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RunError(f"child {child} exited {proc.returncode}")
            result = json.loads(lines[-1])
            result["setup_s"] = result["setup_end"] - spawned
            result["setup_probe"] = (before + result["setup_probe"]) / 2
            children.append(result)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return children


def normalised(seconds, factor):
    return seconds / factor ** SENSITIVITY


def median_or_none(values):
    return statistics.median(values) if values else None


def summarize(args, children, spec):
    """(correct, attempted, failed, metrics, report lines)."""
    e2e, per_layer, units = spec
    main = children[-1]
    ops = main["ops"]
    attempted = len(ops) + len(children)
    failed = (sum(not op["ok"] for op in ops)
              + sum(not c["warmup_ok"] for c in children))
    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if op["mode"] is None]
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(children)} children, {len(ops)} timed ops "
             f"({len(plain)} untraced, correct)"]
    for c in children:
        lines += [f"  failure: {f.strip()}" for f in c["failures"][:3]]
        if len(c["failures"]) > 3:
            lines.append(f"  ... {len(c['failures']) - 3} more failures")
    lines.append(f"  error_rate {failed / attempted:.4g} "
                 f"({failed}/{attempted} ops, warm-ups included)")
    op_probe = median_or_none([op["probe"] for op in ops])
    lines.append("  probe factor: set-up " + " ".join(
        f"{c['setup_probe']:.3f}" for c in children)
        + ("" if op_probe is None else f"; next to ops {op_probe:.3f}"))
    lines.append("  op walls, raw (s): " + " ".join(
        f"{op['wall_s']:.3f}" for op in plain))
    for step in STEPS:
        raw = [op["steps"][step] for op in plain if step in op["steps"]]
        if raw:
            norm = [normalised(op["steps"][step], op["probe"])
                    for op in plain if step in op["steps"]]
            lines.append(f"  {step}_s {statistics.median(norm):.6g} s "
                         f"(raw {statistics.median(raw):.6g} s)")

    if args.trace:
        metrics = median_metrics([op["layers"] for op in good
                                  if "layers" in op])
        traced = median_or_none([op["wall_s"] for op in good
                                 if op["mode"] == "spans"])
        untraced = median_or_none([op["wall_s"] for op in plain])
        if traced is not None and untraced is not None:
            metrics["trace.overhead_s"] = traced - untraced
        names = per_layer
        missing = sorted({m for c in children for m in c["missing"]})
        if missing:
            lines.append(f"  trace targets not found: {', '.join(missing)}")
    else:
        metrics = {
            "setup_s": statistics.median(
                normalised(c["setup_s"], c["setup_probe"])
                for c in children),
            "op_s": median_or_none([normalised(op["wall_s"], op["probe"])
                                    for op in plain]),
            "peak_rss_MiB": statistics.median(
                c["peak_rss_MiB"] for c in children),
        }
        names = e2e
        lines.append("  setup raw (s): " + " ".join(
            f"{c['setup_s']:.3f}" for c in children))
    lines += [f"  missing metric: {k}" for k in names
              if metrics.get(k) is None]
    metrics = {k: metrics[k] for k in names if metrics.get(k) is not None}
    lines += [f"  {k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return failed == 0, attempted, failed, metrics, lines


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
        children = run_children(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct, attempted, failed, metrics, lines = summarize(
        args, children, spec)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
