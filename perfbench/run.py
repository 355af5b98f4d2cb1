"""Run one workload of the imitodyn benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
the checkout's src/.  Every repeat is a fresh interpreter (child.py) that
runs the workload's CLI steps in order with ``--seed N``, single-threaded
(IMITODYN_THREADS and the BLAS thread variables are 1).  Repeats go on
until the next one would end after S seconds, with at least two, and the
metrics are medians over the repeats.

End-to-end times are in reference seconds: each interval's wall-clock time
scaled by the host-speed reference sampled over that interval (speed.py),
which removes most of a shared host's drift.  The wall-clock values are
printed too, as raw_wall_s, raw_setup_s, raw_simulate_s, ...  wall_s runs
from the child's spawn to its last artifact, setup_s covers ``import
imitodyn`` plus ``load_config`` on the workload's configs, simulate_s and
the other <subcommand>_s sum that subcommand's invocations, events_per_s is
the simulated events over simulate_s, and peak_rss_mb is the child's
ru_maxrss.

With --trace 0 the repeats are untraced and give the end-to-end metrics.
With --trace 1 untraced and traced repeats alternate: the traced ones give
the per-layer metrics (wall-clock, see tracer.py), the untraced ones the
raw per-subcommand times (cli.<subcommand>_s) and the tracing overhead.
Every step's artifacts are checked (checks.py), and all repeats of the
seed, traced or not, must write byte-identical artifacts.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it list every metric with its unit.
The full record (each repeat, machine and environment) is written to
.perfbench_out/<workload>-seed<N>-trace<T>/result.json.  Exit status 0
means every step ran and passed its checks, 1 that some did not, 2 that
the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from checks import check_step, hash_artifacts
from speed import REFERENCE_S
from tracer import layer_metrics
from workloads import END_TO_END, PER_LAYER, SUBCOMMANDS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
MIN_REPEATS = 2
TIME_LIMIT_S = 170.0  # no child starts, and none runs on, past this

THREAD_VARS = {
    "IMITODYN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


class ChildFailed(Exception):
    pass


class Runner:
    """Runs the repeats of one workload and checks their artifacts."""

    def __init__(self, workload: Workload, seed: int, out: Path, time_limit: float) -> None:
        self.workload = workload
        self.seed = seed
        self.out = out
        self.time_limit = time_limit
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(THREAD_VARS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.configs = {c: json.loads((ROOT / c).read_text(encoding="utf-8")) for c in workload.configs}
        self.first: dict[int, tuple[dict, list[str]]] = {}  # step -> (digests, problems) of its first run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, mode: str, trace: bool = False, steps: list[list[str]] | None = None) -> dict:
        spec = {
            "mode": mode,
            "trace": trace,
            "src": str(ROOT / "src"),
            "configs": self.workload.configs,
            "steps": steps or [],
        }
        remaining = self.time_limit - time.monotonic()
        if remaining <= 0.0:
            raise ChildFailed("time limit reached before the child started")
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child killed at the time limit") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, index: int, trace: bool) -> dict | None:
        """One repeat; returns the child's record with per-step checks, or
        None when the child itself failed."""
        rep_dir = self.out / f"rep{index}"
        dirs = [rep_dir / f"{i}-{s.command}" for i, s in enumerate(self.workload.steps)]
        argvs = [s.argv(self.seed, str(d)) for s, d in zip(self.workload.steps, dirs)]
        self.attempted += len(argvs)
        try:
            rec = self.child("run", trace, argvs)
        except ChildFailed as exc:
            self.failed += len(argvs)
            self.problems.append(f"repeat {index}: {exc}")
            return None
        clean = True
        for i, (step, d, st) in enumerate(zip(self.workload.steps, dirs, rec["steps"])):
            st["command"] = step.command
            if st["rc"] != 0:
                problems = [f"exited {st['rc']}"]
            else:
                digests = hash_artifacts(d)
                # Equal bytes pass or fail alike, so only the first run is checked.
                if i not in self.first:
                    self.first[i] = (digests, check_step(step.command, d, self.configs[step.config], step.expect))
                first_digests, problems = self.first[i]
                if digests != first_digests:
                    problems = problems + ["artifacts differ from an earlier repeat of the same seed"]
                if step.command == "simulate":
                    summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
                    st["events"] = sum(r["event_count"] for r in summary["runs"])
            if problems:
                clean = False
                self.failed += 1
                self.problems += [f"repeat {index} step {i} ({step.command} {step.config}): {p}" for p in problems]
        if clean:
            shutil.rmtree(rep_dir, ignore_errors=True)
        rec["trace"] = trace
        return rec


def end_to_end(rec: dict) -> dict[str, float]:
    """Metrics of one untraced repeat: times in reference seconds, and the
    wall-clock values under raw_* names."""
    steps = rec["steps"]
    scale = REFERENCE_S / rec["reference"]

    def ref(step: dict) -> float:
        return step["seconds"] * REFERENCE_S / (step["reference"] or rec["reference"])

    sim = [s for s in steps if s["command"] == "simulate"]
    events = sum(s["events"] for s in sim)
    out = {
        "wall_s": rec["wall_s"] * scale,
        "setup_s": rec["setup_s"] * scale,
        "simulate_s": sum(ref(s) for s in sim),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
        "raw_wall_s": rec["wall_s"],
        "raw_setup_s": rec["setup_s"],
        "raw_simulate_s": sum(s["seconds"] for s in sim),
    }
    out["events_per_s"] = events / out["simulate_s"]
    out["raw_events_per_s"] = events / out["raw_simulate_s"]
    for c in SUBCOMMANDS[1:]:
        if any(s["command"] == c for s in steps):
            out[f"{c}_s"] = sum(ref(s) for s in steps if s["command"] == c)
            out[f"raw_{c}_s"] = sum(s["seconds"] for s in steps if s["command"] == c)
    return out


def unit(name: str) -> str:
    return "1/s" if "_per_" in name else "MB" if name.endswith("_mb") else "s"


def medians(rows: list[dict]) -> dict[str, float]:
    keys = dict.fromkeys(k for r in rows for k in r)
    return {k: statistics.median(r[k] for r in rows if k in r) for k in keys}


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_vars": THREAD_VARS,
        "seed": seed,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, out: Path) -> tuple[dict, int]:
    """Run the workload; returns (the printed result object, exit status)."""
    start = time.monotonic()
    deadline = start + seconds
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    runner = Runner(workload, seed, out, start + TIME_LIMIT_S)
    runner.child("import")  # fills the bytecode cache; not timed

    kinds = (False, True) if trace else (False,)
    records: list[dict] = []
    last: dict[bool, float] = {}
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        t0 = time.monotonic()
        rec = runner.repeat(index, kind)
        last[kind] = time.monotonic() - t0
        if rec is not None:
            records.append(rec)
        index += 1
        upcoming = last.get(kinds[index % len(kinds)], last[kind])
        now = time.monotonic()
        if now + upcoming > start + TIME_LIMIT_S or (index >= MIN_REPEATS and now + upcoming > deadline):
            break

    plain = [end_to_end(r) for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    e2e = medians(plain) if plain else {}
    failed_frac = runner.failed / runner.attempted
    metrics: dict[str, float] = {}
    if not trace and plain:
        metrics = {m.name: e2e[m.name] for m in END_TO_END}
    elif trace and plain and traced:
        layers = [layer_metrics(r["spans"], r["counts"]) for r in traced]
        for r, lm in zip(traced, layers):
            lm["trace.wall_s"] = r["wall_s"]
        layer = medians(layers)
        layer.update({f"cli.{c}_s": e2e.get(f"raw_{c}_s", 0.0) for c in SUBCOMMANDS})
        layer["cli.failed_ops_frac"] = failed_frac
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["raw_wall_s"]
        layer["trace.unattributed_s"] = layer["trace.wall_s"] - layer["trace.self_total_s"]
        metrics = {m.name: layer[m.name] for m in PER_LAYER}
    listed = END_TO_END if not trace else PER_LAYER
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in listed if m.name in metrics},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "repeats": records,
        "untraced_medians": e2e,
        "failed_ops_frac": failed_frac,
        "problems": runner.problems,
        "digests": {str(i): d for i, (d, _) in sorted(runner.first.items())},
        "result": result,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {seed}: {len(plain)} untraced and {len(traced)} traced repeats")
    for name, value in sorted(e2e.items()):
        print(f"  {name:40s} {value:14.6g} {unit(name)}  (untraced median)")
    if trace and metrics:
        for m in PER_LAYER:
            print(f"  {m.name:40s} {metrics[m.name]:14.6g} {m.unit}")
        print(
            f"  self times {metrics['trace.self_total_s']:.3f} s + unattributed "
            f"{metrics['trace.unattributed_s']:.3f} s = traced wall; raw untraced wall "
            f"{e2e['raw_wall_s']:.3f} s; tracing overhead {metrics['trace.overhead_s']:+.3f} s"
        )
    print(f"  {'failed_ops_frac':40s} {failed_frac:14.6g} ratio  ({runner.failed} of {runner.attempted} failed)")
    for p in runner.problems:
        print(f"  FAILED {p}")
    return result, 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (ROOT / "src" / "imitodyn" / "__init__.py").is_file():
        print(f"perfbench: no imitodyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result, status = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
