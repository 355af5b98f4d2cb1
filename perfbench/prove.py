"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] [--seconds S]
                               [--traced-seed N] [--write perfbench/baseline.json]

For each workload, runs ``perfbench/run.py`` once per seed (untraced) and
reports, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile of the per-seed values
(``statistics.quantiles(n=4)``) as a share of their median.  A spread must
stay below a third of the metric's bound (setup_s is exempt).  With
--traced-seed, one traced run per workload adds the per-layer metrics.
With --write, the machine, environment, seeds, medians and spreads are
saved as the baseline that later performance claims quote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

from run import ROOT, THREAD_VARS
from workloads import END_TO_END, WORKLOADS

# Later claims must also hold on this seed, which no baseline run uses.
HELD_OUT_SEED = 20261017


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--write", default=None, help="baseline file to write")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    if HELD_OUT_SEED in seeds or args.traced_seed == HELD_OUT_SEED:
        parser.error(f"seed {HELD_OUT_SEED} is held out")

    report: dict = {}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res = bench(name, seed, args.seconds, 0)
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        entry: dict = {"runs": runs, "end_to_end": {}}
        for m in END_TO_END:
            vals = [r[m.name] for r in runs]
            sp = spread(vals)
            steady = m.name == "setup_s" or sp < m.bound / 3.0
            ok &= steady
            entry["end_to_end"][m.name] = {"median": statistics.median(vals), "spread": sp, "bound": m.bound,
                                           "unit": m.unit, "steady": steady}
            print(f"  {m.name:14s} median {statistics.median(vals):12.6g} {m.unit:4s} spread {sp:7.4f} "
                  f"(bound/3 {m.bound / 3.0:.4f}) {'ok' if steady else 'NOT STEADY'}", flush=True)
        if args.traced_seed is not None:
            res = bench(name, args.traced_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        report[name] = entry

    if args.write:
        baseline = {
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(),
                "python": platform.python_version(),
                "numpy": version("numpy"),
                "scipy": version("scipy"),
            },
            "thread_vars": THREAD_VARS,
            "seconds": args.seconds,
            "workload_seeds": seeds,
            "traced_seed": args.traced_seed,
            "held_out_seed": HELD_OUT_SEED,
            "workloads": report,
        }
        Path(args.write).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
