"""Scaled-down copies of the benchmark workloads, for the fast tests."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from run import ROOT
from workloads import Workload

# Per config: the sections to overwrite so that one repeat takes well under a second.
SHRINK = {
    "configs/two_phase.json": {
        "sim": {"n": 200, "horizon": 5.0},
        "init": {"fractions": [0.3, 0.7]},
        "analysis": {"n_sweep": [50, 100]},
    },
    "configs/congestion3.json": {
        "sim": {"n": 60, "horizon": 2.0},
        "analysis": {"starts": 6, "ode_horizon": 2.0, "n_sweep": [60]},
    },
    "configs/lattice.json": {"sim": {"n": 100, "horizon": 5.0}, "topology": {"side": 10}},
    "perfbench/inputs/er_m3.json": {"sim": {"n": 60, "horizon": 2.0}, "topology": {"p": 0.15}},
}


def tiny_workload(workload: Workload, tmp: Path) -> Workload:
    steps = []
    for step in workload.steps:
        raw = json.loads((ROOT / step.config).read_text(encoding="utf-8"))
        for section, fields in SHRINK[step.config].items():
            raw.setdefault(section, {}).update(fields)
        path = tmp / Path(step.config).name
        path.write_text(json.dumps(raw), encoding="utf-8")
        steps.append(replace(step, config=str(path), runs=1))
    return replace(workload, steps=tuple(steps))
