#!/usr/bin/env python3
"""Sample paths that climb to the saddle, stall, then settle at the interior
maximum of the built-in two-action game.

Starting nearly pure (x_1(0) = 0.001), the population first drifts to the
degenerate rest point at x_1 = 0.25, lingers, and then climbs to the stable
mix at x_1 = 0.75 where it stays for the whole horizon.  Writes one CSV per
run plus a JSON digest of the phase entry times.
"""

import argparse
import json
import os
import sys

import numpy as np

from imitodyn import (
    PopulationType,
    RunSpec,
    SimConfig,
    arctan_rule,
    derive_seed,
    example4_game,
    run_one,
    write_trajectory_csv,
)


def first_entry_time(traj, center: float, width: float):
    hit = np.abs(traj.fractions[:, 0] - center) < width
    if not hit.any():
        return None
    return float(traj.times[int(np.argmax(hit))])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2500, help="population size")
    parser.add_argument("--runs", type=int, default=5, help="number of sample paths")
    parser.add_argument("--horizon", type=float, default=200.0, help="simulated time")
    parser.add_argument("--x1", type=float, default=0.001, help="initial fraction of action 0")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--out", default="results/two_phase", help="output directory")
    args = parser.parse_args(argv)

    spec = RunSpec(
        game=example4_game(),
        rule=arctan_rule(1.0),
        cfg=SimConfig(horizon=args.horizon, seed=0),
        x0=PopulationType.from_fractions(args.n, [args.x1, 1.0 - args.x1]),
    )

    os.makedirs(args.out, exist_ok=True)
    digest = []
    for i in range(args.runs):
        traj = run_one(spec, derive_seed(args.seed, i))
        write_trajectory_csv(os.path.join(args.out, f"path_{i:03d}.csv"), traj.times, traj.counts, n=traj.n)
        digest.append(
            {
                "run": i,
                "entered_saddle_band": first_entry_time(traj, 0.25, 0.05),
                "entered_peak_band": first_entry_time(traj, 0.75, 0.05),
                "final_x1": int(traj.counts[-1, 0]) / traj.n,
                "absorbed_at": traj.absorbed_at,
                "events": traj.event_count,
            }
        )
        print(
            f"run {i}: saddle at t={digest[-1]['entered_saddle_band']}, "
            f"peak at t={digest[-1]['entered_peak_band']}, final x1={digest[-1]['final_x1']:.4f}"
        )

    with open(os.path.join(args.out, "phases.json"), "w", encoding="utf-8") as fh:
        json.dump(digest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.runs} paths and phases.json to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
