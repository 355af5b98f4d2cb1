#!/usr/bin/env python3
"""Compare where the dynamics settle on different interaction graphs.

Runs the built-in two-action game from x_1(0) = 0.3 on the complete graph,
an Erdos-Renyi graph, and a periodic square lattice of comparable size, and
tabulates the final fraction using action 0 per run.  On all three
topologies the ensemble should settle near the stable mix x_1 = 0.75.
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
    erdos_renyi,
    example4_game,
    run_one,
    square_lattice,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--side", type=int, default=32, help="lattice side (n = side^2)")
    parser.add_argument("--er-p", type=float, default=0.02, help="edge probability for the random graph")
    parser.add_argument("--runs", type=int, default=5, help="runs per topology")
    parser.add_argument("--horizon", type=float, default=100.0, help="simulated time")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--out", default="results/topology", help="output directory")
    args = parser.parse_args(argv)

    n = args.side * args.side
    game = example4_game()
    rule = arctan_rule(1.0)
    cfg = SimConfig(horizon=args.horizon, seed=0)
    x0 = PopulationType.from_fractions(n, (0.3, 0.7))

    def run_batch(name, make_spec):
        finals = []
        for i in range(args.runs):
            seed = derive_seed(args.seed, name, i)
            traj = run_one(make_spec(seed), seed)
            finals.append(int(traj.counts[-1, 0]) / traj.n)
        return finals

    results = {}
    results["complete"] = run_batch("complete", lambda seed: RunSpec(game, rule, cfg, x0))
    results["er"] = run_batch(
        "er",
        lambda seed: RunSpec(game, rule, cfg, x0, erdos_renyi(n, args.er_p, seed=derive_seed(seed, "graph"))),
    )
    lattice = square_lattice(args.side, periodic=True)
    results["lattice"] = run_batch("lattice", lambda seed: RunSpec(game, rule, cfg, x0, lattice))

    os.makedirs(args.out, exist_ok=True)
    table = {
        name: {
            "final_x1": vals,
            "median": float(np.median(vals)),
            "within_0.1_of_0.75": int(sum(abs(v - 0.75) < 0.1 for v in vals)),
        }
        for name, vals in results.items()
    }
    with open(os.path.join(args.out, "topology_comparison.json"), "w", encoding="utf-8") as fh:
        json.dump({"n": n, "runs": args.runs, "topologies": table}, fh, indent=2)
        fh.write("\n")

    for name, row in table.items():
        print(
            f"{name:9s} median final x1 = {row['median']:.4f}, "
            f"{row['within_0.1_of_0.75']}/{args.runs} runs within 0.1 of 0.75"
        )
    print(f"wrote topology_comparison.json to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
