"""Smoke runs of the example scripts at tiny sizes."""

import importlib.util
import json
import os
import subprocess
import sys

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


def tiny_config(tmp_path):
    config = {
        "game": {"type": "builtin", "name": "example4"},
        "rule": {"type": "arctan", "K": 1.0},
        "sim": {"n": 40, "horizon": 2.0},
        "init": {"fractions": [0.3, 0.7]},
        "ensemble": {"runs": 1},
        "analysis": {"n_sweep": [40]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    return path


def test_reach_lists_functions_no_subcommand_enters(tmp_path, capsys):
    path = tiny_config(tmp_path)
    assert load_script("reach").main([str(path), "--out", str(tmp_path / "out")]) == 0
    listed = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()]
    # error paths a valid config never takes, and the tracer's names
    assert {"config._fail", "engine.ensemble", "meanfield.mean_field_rhs"} <= set(listed)
    assert "engine.simulate_complete" not in listed and "landscape.metastability_report" not in listed
    assert listed[-1].isdigit()  # the closing count line
    assert (tmp_path / "out" / "tiny" / "compare" / "compare.json").stat().st_size > 0


def test_reach_runs_from_a_source_checkout(tmp_path):
    # no PYTHONPATH and the package not installed: the script finds src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "reach.py"), str(tiny_config(tmp_path)), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("functions never entered over 1 configs")
