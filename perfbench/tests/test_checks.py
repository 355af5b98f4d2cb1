"""The artifact checker passes on real artifacts and fails on corrupted ones."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from imitodyn.cli import main as cli_main

from checks import check_step, hash_artifacts
from tiny import tiny_workload
from workloads import EXAMPLE4_ESS, WORKLOADS


@pytest.fixture(scope="module")
def m2_artifacts(tmp_path_factory) -> tuple[Path, dict, dict]:
    """Real simulate and metastability artifacts of a small two_phase run."""
    tmp = tmp_path_factory.mktemp("m2")
    workload = tiny_workload(WORKLOADS["complete_m2"], tmp)
    config = workload.steps[0].config
    dirs = {}
    for step in workload.steps[:2]:
        dirs[step.command] = tmp / step.command
        assert cli_main(step.argv(seed=3, out_dir=str(dirs[step.command]))) == 0
    return dirs, json.loads(Path(config).read_text()), workload.steps[1].expect


def test_real_artifacts_pass(m2_artifacts):
    dirs, config, expect = m2_artifacts
    assert check_step("simulate", dirs["simulate"], config, {}) == []
    assert check_step("metastability", dirs["metastability"], config, expect) == []


def test_row_off_simplex_fails(m2_artifacts, tmp_path):
    dirs, config, _ = m2_artifacts
    bad = tmp_path / "simulate"
    bad.mkdir()
    for f in dirs["simulate"].iterdir():
        (bad / f.name).write_bytes(f.read_bytes())
    csv = bad / "run_000.csv"
    lines = csv.read_text().splitlines()
    t, x0, x1 = lines[2].split(",")
    lines[2] = f"{t},{float(x0) + 1e-6!r},{x1}"
    csv.write_text("\n".join(lines) + "\n")
    problems = check_step("simulate", bad, config, {})
    assert len(problems) == 1 and "off the simplex" in problems[0]
    assert hash_artifacts(bad) != hash_artifacts(dirs["simulate"])


def test_wrong_ess_fails(m2_artifacts, tmp_path):
    dirs, config, expect = m2_artifacts
    assert expect == {"ess": [EXAMPLE4_ESS]}
    doc = json.loads((dirs["metastability"] / "metastability.json").read_text())
    for rep in doc["reports"].values():
        for cp in rep["critical_points"]:
            if cp["is_ess"]:
                cp["x"] = [0.7, 0.3]
    (tmp_path / "metastability.json").write_text(json.dumps(doc))
    problems = check_step("metastability", tmp_path, config, expect)
    assert problems and all("ESS set" in p for p in problems)
    # The real artifact against a wrong expectation fails too.
    assert check_step("metastability", dirs["metastability"], config, {"ess": [(0.5, 0.5)]})


def test_missing_artifact_is_a_problem(tmp_path):
    problems = check_step("landscape", tmp_path, {}, {"ess": [EXAMPLE4_ESS]})
    assert problems and "unreadable" in problems[0]
