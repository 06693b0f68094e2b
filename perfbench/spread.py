"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--seconds N]

Runs run.py once per (seed, workload), with the workloads interleaved so
slow machine drift lands on all of them alike. For each workload and metric
it prints the median over seeds and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median. Each run's summary, result line and wall time are appended to
``.perfbench_out/spread.jsonl``. Exits non-zero if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                   default=list(WORKLOADS))
    args = p.parse_args(argv)

    values = {w: {} for w in args.workloads}
    walls = {w: [] for w in args.workloads}
    ok = True
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in args.workloads:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            walls[w].append(wall)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed,
                                    "wall_s": wall, "summary": lines[:-1],
                                    **result}) + "\n")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={m['value']:.4g}"
                             for k, m in result["metrics"].items()),
                  flush=True)

    for w in args.workloads:
        print(f"{w}: wall per run median {statistics.median(walls[w]):.1f} s,"
              f" max {max(walls[w]):.1f} s")
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = f"{(q3 - q1) / med:.3f}"
            else:
                spread = "n/a"
            print(f"  {name:34s} median {med:.6g}  spread {spread}"
                  f"  (n={len(vs)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
