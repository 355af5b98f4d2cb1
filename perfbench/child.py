"""One benchmark repeat in a fresh interpreter (started by run.py).

    python3 perfbench/child.py '<spec json>'

The spec names a mode: "import" only imports imitodyn (to fill the bytecode
cache before anything is timed); "run" times the setup, ``import imitodyn``
plus ``load_config`` on the workload's configs, and then runs each step
through ``imitodyn.cli.main``.  With "trace" set, the layer
boundaries are wrapped by tracer.Tracer; without it, speed.SpeedSampler
records the host-speed reference of each step and of the whole repeat.
The result is one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    span = tracer.span if tracer else (lambda name: nullcontext())

    t0 = time.perf_counter()
    with span("setup"):
        import imitodyn

        src = Path(spec["src"]).resolve()
        if src not in Path(imitodyn.__file__).resolve().parents:
            print(f"imitodyn imported from {imitodyn.__file__}, not from {src}", file=sys.stderr)
            return 2
        if spec["mode"] == "import":
            print(json.dumps({}))
            return 0
        if tracer:
            tracer.install()
        for path in spec["configs"]:
            imitodyn.config.load_config(path)
    setup_s = time.perf_counter() - t0
    from imitodyn.cli import main as cli_main
    from speed import SpeedSampler  # imports numpy: keep it out of the timed setup

    sampler = None if tracer else SpeedSampler()
    if sampler:
        sampler.start()
    steps = []
    for argv in spec["steps"]:
        mark, spent = (sampler.mark(), sampler.spent_s) if sampler else (None, 0.0)
        s0 = time.perf_counter()
        with span(f"cli.{argv[0]}"):
            rc = cli_main(argv)
        step = {"rc": rc, "seconds": time.perf_counter() - s0}
        if sampler:
            step["seconds"] -= sampler.spent_s - spent
            step["reference"] = sampler.reference(mark)
        steps.append(step)
    # Same clock as the parent's spawn time (CLOCK_MONOTONIC is system-wide).
    wall_s = time.monotonic() - spec["t_spawn"]
    result = {"setup_s": setup_s, "steps": steps}
    if sampler:
        result["wall_s"] = wall_s - sampler.spent_s
        sampler.stop()
        result["reference"] = sampler.reference()
    else:
        result["wall_s"] = wall_s
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
