"""Smoke runs of the example scripts at tiny sizes."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, args, output",
    [
        ("topology_comparison", ["--side", "4", "--runs", "1", "--horizon", "1"], "topology_comparison.json"),
        ("two_phase_paths", ["--n", "50", "--runs", "1", "--horizon", "1"], "phases.json"),
        ("deviation_sweep", ["--sizes", "50", "--runs", "1", "--horizon", "1"], "deviation_vs_n.csv"),
    ],
    ids=["topology_comparison", "two_phase_paths", "deviation_sweep"],
)
def test_script_runs(tmp_path, name, args, output):
    assert load_script(name).main(args + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / output).stat().st_size > 0
