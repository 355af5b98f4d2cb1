import json
import os
import subprocess
import sys

import numpy as np
import pytest

from imitodyn import ConfigError
from imitodyn.cli import cmd_landscape, main
from imitodyn.config import load_config


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def sim_cfg(tmp_path, out="out", **sim_overrides):
    sim = {"n": 80, "horizon": 4.0, "record_stride": 0.5}
    sim.update(sim_overrides)
    return {
        "game": {"type": "builtin", "name": "example4"},
        "rule": {"type": "arctan", "K": 1.0},
        "sim": sim,
        "init": {"fractions": [0.5, 0.5]},
        "ensemble": {"runs": 3, "base_seed": 11},
        "output": {"dir": str(tmp_path / out)},
    }


def read_all_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def assert_threads_do_not_change_output(tmp_path, data_a, data_b):
    cfg_a = write_cfg(tmp_path, data_a, name="a.json")
    cfg_b = write_cfg(tmp_path, data_b, name="b.json")
    env = dict(os.environ)
    env["IMITODYN_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "imitodyn", "simulate", "--config", cfg_a],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    env["IMITODYN_THREADS"] = "3"
    proc = subprocess.run(
        [sys.executable, "-m", "imitodyn", "simulate", "--config", cfg_b],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    a = read_all_bytes(data_a["output"]["dir"])
    b = read_all_bytes(data_b["output"]["dir"])
    assert sorted(a) == sorted(b)
    for name in a:
        if name != "summary.json":
            assert a[name] == b[name], name


class TestSimulate:
    def test_writes_csvs_and_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        names = sorted(os.listdir(out))
        assert names == ["run_000.csv", "run_001.csv", "run_002.csv", "summary.json"]

        header = (out / "run_000.csv").read_text().splitlines()[0]
        assert header == "t,x_0,x_1"
        data = np.genfromtxt(out / "run_000.csv", delimiter=",", skip_header=1)
        assert data[0, 0] == 0.0
        assert np.all((data[:, 1:] >= 0.0) & (data[:, 1:] <= 1.0))
        assert np.allclose(data[:, 1:].sum(axis=1), 1.0)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["sim"]["n"] == 80
        assert len(summary["runs"]) == 3
        for entry in summary["runs"]:
            assert {"seed", "n", "absorbed_at", "final_state", "event_count"} <= set(entry)
            assert entry["n"] == 80

    def test_byte_reproducible(self, tmp_path):
        cfg_a = write_cfg(tmp_path, sim_cfg(tmp_path, out="a"), name="a.json")
        cfg_b = write_cfg(tmp_path, sim_cfg(tmp_path, out="b"), name="b.json")
        assert main(["simulate", "--config", cfg_a]) == 0
        assert main(["simulate", "--config", cfg_b]) == 0
        files_a = read_all_bytes(tmp_path / "a")
        files_b = read_all_bytes(tmp_path / "b")
        assert set(files_a) == set(files_b)
        for name in files_a:
            if name != "summary.json":  # summary echoes the output dir
                assert files_a[name] == files_b[name], name

    def test_seed_override_changes_runs(self, tmp_path):
        cfg_a = write_cfg(tmp_path, sim_cfg(tmp_path, out="a"), name="a.json")
        cfg_b = write_cfg(tmp_path, sim_cfg(tmp_path, out="b"), name="b.json")
        assert main(["simulate", "--config", cfg_a]) == 0
        assert main(["simulate", "--config", cfg_b, "--seed", "999"]) == 0
        a = (tmp_path / "a" / "run_000.csv").read_bytes()
        b = (tmp_path / "b" / "run_000.csv").read_bytes()
        assert a != b

    def test_runs_and_out_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        dest = tmp_path / "elsewhere"
        assert main(["simulate", "--config", cfg, "--runs", "2", "--out", str(dest)]) == 0
        assert sorted(os.listdir(dest)) == ["run_000.csv", "run_001.csv", "summary.json"]
        assert not (tmp_path / "out").exists()

    def test_stride_switch_logged_at_info(self, tmp_path, capsys, monkeypatch):
        import imitodyn.engine as engine_mod
        from imitodyn import derive_seed

        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", 40)
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path, horizon=20.0))
        info, quiet = tmp_path / "info", tmp_path / "quiet"
        assert main(["simulate", "--config", cfg, "--out", str(info), "--log-level", "info"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert main(["simulate", "--config", cfg, "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert read_all_bytes(info) == read_all_bytes(quiet)
        assert len(lines) == 3
        for i, line in enumerate(lines):
            prefix = f"imitodyn.engine: INFO: seed {derive_seed(11, i)}: recorded every jump up to event 40, "
            assert line.startswith(prefix + "stride recording from t=")
            # the header, the start row, then one row per jump up to the switch
            row = (info / f"run_{i:03d}.csv").read_text().splitlines()[41]
            assert line.endswith("t=" + row.split(",")[0])

    def test_summary_reports_flips_and_stride_switch(self, tmp_path, monkeypatch):
        import imitodyn.engine as engine_mod

        base = {"seed", "n", "absorbed_at", "absorbing_action", "final_state", "event_count"}
        data = sim_cfg(tmp_path, out="lat", n=25)
        data["topology"] = {"type": "lattice", "side": 5}
        assert main(["simulate", "--config", write_cfg(tmp_path, data, name="lat.json")]) == 0
        for entry in json.loads((tmp_path / "lat" / "summary.json").read_text())["runs"]:
            assert set(entry) == base | {"flip_count"}
            assert 0 < entry["flip_count"] <= entry["event_count"]

        cfg = write_cfg(tmp_path, sim_cfg(tmp_path, horizon=20.0))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "every")]) == 0
        for entry in json.loads((tmp_path / "every" / "summary.json").read_text())["runs"]:
            assert set(entry) == base  # every jump recorded: the record is unchanged

        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", 40)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "capped")]) == 0
        runs = json.loads((tmp_path / "capped" / "summary.json").read_text())["runs"]
        for i, entry in enumerate(runs):
            assert set(entry) == base | {"stride_from"}
            row = (tmp_path / "capped" / f"run_{i:03d}.csv").read_text().splitlines()[41]
            assert entry["stride_from"] == float(row.split(",")[0])  # the last every-jump row

    def test_network_topologies_run(self, tmp_path):
        data = sim_cfg(tmp_path, out="er")
        data["sim"]["n"] = 30
        data["ensemble"]["runs"] = 2
        data["topology"] = {"type": "er", "p": 0.3}
        assert main(["simulate", "--config", write_cfg(tmp_path, data, name="er.json")]) == 0
        assert "run_000.csv" in os.listdir(tmp_path / "er")

        data = sim_cfg(tmp_path, out="lat")
        data["sim"]["n"] = 25
        data["ensemble"]["runs"] = 2
        data["topology"] = {"type": "lattice", "side": 5}
        assert main(["simulate", "--config", write_cfg(tmp_path, data, name="lat.json")]) == 0
        summary = json.loads((tmp_path / "lat" / "summary.json").read_text())
        assert len(summary["runs"]) == 2


class TestOde:
    def test_limit_lands_on_stable_rest_point(self, tmp_path):
        data = sim_cfg(tmp_path)
        data["analysis"] = {"ode_horizon": 60.0}
        cfg = write_cfg(tmp_path, data)
        assert main(["ode", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["limit.json", "ode.csv"]

        limit = json.loads((out / "limit.json").read_text())
        assert limit["converged"] is True
        assert abs(limit["x"][0] - 0.75) < 1e-6
        assert limit["rhs_norm"] < 1e-8

        path = np.genfromtxt(out / "ode.csv", delimiter=",", skip_header=1)
        assert path[0, 1] == 0.5
        assert abs(path[-1, 1] - 0.75) < 1e-4


class TestLandscape:
    def test_reference_game_classification(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        assert main(["landscape", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "landscape.json").read_text())
        pts = report["critical_points"]
        assert len(pts) == 4
        assert [p["kind"] for p in pts] == [
            "local_min",
            "saddle_or_degenerate",
            "local_max",
            "local_min",
        ]
        assert report["ess"] == [2]
        assert abs(pts[2]["x"][0] - 0.75) < 1e-6
        assert report["warnings"] == []

    def test_three_action_game_uses_multi_finder(self, tmp_path):
        data = sim_cfg(tmp_path)
        data["game"] = {"type": "congestion", "polynomials": [[1.0, -1.0]] * 3}
        data["init"] = {"fractions": [0.4, 0.3, 0.3]}
        data["analysis"] = {"starts": 32}
        cfg = write_cfg(tmp_path, data)
        assert main(["landscape", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "landscape.json").read_text())
        ess_points = [report["critical_points"][i] for i in report["ess"]]
        assert len(ess_points) == 1
        assert np.max(np.abs(np.array(ess_points[0]["x"]) - 1 / 3)) < 1e-6

    def test_vertex_maxima_reported_in_warnings(self, tmp_path):
        data = sim_cfg(tmp_path)
        data["game"] = {"type": "congestion", "polynomials": [[0.0, 1.0]] * 2}
        cfg = write_cfg(tmp_path, data)
        assert main(["landscape", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "landscape.json").read_text())
        assert any("pure configuration" in w for w in report["warnings"])

    def test_debug_log_level_reports_search_on_stderr(self, tmp_path, capsys):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "congestion3.json")
        debug, quiet = tmp_path / "debug", tmp_path / "quiet"
        assert main(["landscape", "--config", config, "--out", str(debug), "--log-level", "debug"]) == 0
        err = capsys.readouterr().err
        assert (
            "imitodyn.landscape: DEBUG: find_critical_points_multi: 48 starts, 1 faces, 7 points, "
            "0 flooded edges, 0 least_squares solves raised, compiled potential"
        ) in err
        assert main(["landscape", "--config", config, "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert (debug / "landscape.json").read_bytes() == (quiet / "landscape.json").read_bytes()

    def test_face_count_bounds_starts(self, tmp_path, capsys):
        # 12 actions have 4017 faces of 3 or more actions: 64 starts on each
        # is over the solve cap, but the config itself is valid
        data = sim_cfg(tmp_path, n=24, horizon=0.5)
        data["game"] = {"type": "congestion", "polynomials": [[1.0, -1.0]] * 12}
        data["init"] = {"fractions": [1.0 / 12] * 12}
        cfg = write_cfg(tmp_path, data)
        assert main(["landscape", "--config", cfg]) == 2
        assert "config error: $.analysis.starts:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["simulate", "--config", cfg]) == 0

    def test_game_without_potential_is_a_config_error(self, tmp_path):
        # not reachable from a config file (built games always carry
        # potentials), so drive the command directly
        from dataclasses import replace

        from imitodyn.games import Game

        cfg = load_config(write_cfg(tmp_path, sim_cfg(tmp_path)))
        bare = Game(m=2, rewards=cfg.game.rewards, name="bare")
        cfg = replace(cfg, game=bare)
        with pytest.raises(ConfigError, match="potential"):
            cmd_landscape(cfg)
        assert not (tmp_path / "out").exists()


class TestMetastability:
    def test_two_action_run_loads_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        code = (
            "import sys; from imitodyn.cli import main; "
            f"assert main(['metastability', '--config', {cfg!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out" / "metastability.json").exists()

    def test_sweep_report(self, tmp_path):
        data = sim_cfg(tmp_path)
        data["ensemble"]["runs"] = 3
        data["analysis"] = {"n_sweep": [40, 80], "gammas": [0.1], "deltas": [0.2]}
        cfg = write_cfg(tmp_path, data)
        assert main(["metastability", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "metastability.json").read_text())
        assert report["n_values"] == [40, 80]
        assert set(report["reports"]) == {"40", "80"}
        for block in report["reports"].values():
            assert block["aggregates"]["runs"] == 3
            assert "0.1" in block["aggregates"]["median_time_near_ess"]

    def test_pure_initial_condition_rejected(self, tmp_path, capsys):
        data = sim_cfg(tmp_path)
        data["init"] = {"fractions": [0.0, 1.0]}
        cfg = write_cfg(tmp_path, data)
        assert main(["metastability", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "interior" in err
        assert not (tmp_path / "out").exists()


class TestCompare:
    def test_deviation_table(self, tmp_path):
        data = sim_cfg(tmp_path)
        data["ensemble"]["runs"] = 3
        data["analysis"] = {"n_sweep": [50, 400]}
        cfg = write_cfg(tmp_path, data)
        assert main(["compare", "--config", cfg]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "compare.json").read_text())
        assert report["flow"] == "fully_mixed"
        assert [row["n"] for row in report["per_n"]] == [50, 400]
        for row in report["per_n"]:
            assert len(row["deviations"]) == 3
            assert row["max_deviation"] >= row["median_deviation"] > 0.0

        lines = (out / "deviation_vs_n.csv").read_text().splitlines()
        assert lines[0] == "n,median_deviation,max_deviation,runs"
        assert len(lines) == 3
        assert lines[1].startswith("50,") and lines[2].startswith("400,")

    def test_larger_population_tracks_flow_better(self, tmp_path):
        data = sim_cfg(tmp_path)
        data["ensemble"]["runs"] = 5
        data["analysis"] = {"n_sweep": [20, 2000]}
        cfg = write_cfg(tmp_path, data)
        assert main(["compare", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "compare.json").read_text())
        med = {row["n"]: row["median_deviation"] for row in report["per_n"]}
        assert med[2000] < med[20]


class TestErrorPaths:
    def test_invalid_config_exits_2_without_output(self, tmp_path, capsys):
        too_small = sim_cfg(tmp_path)
        too_small["sim"]["n"] = 1
        # json reads Infinity; the bounds are checked before any run
        infinite_bounds = sim_cfg(tmp_path)
        infinite_bounds["rule"] = {"type": "replicator", "bounds": [0.0, float("inf")]}
        for data in (too_small, infinite_bounds):
            cfg = write_cfg(tmp_path, data)
            assert main(["simulate", "--config", cfg]) == 2
            assert "config error" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["ode", "--config", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_bad_seed_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        assert main(["simulate", "--config", cfg, "--seed", "-3"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_runs_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        assert main(["simulate", "--config", cfg, "--runs", "0"]) == 2
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["1000001", "9" * 400])
    def test_runs_override_above_max_runs(self, tmp_path, capsys, runs):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        assert main(["simulate", "--config", cfg, "--runs", runs]) == 2
        assert "config error: --runs: must be <= 1000000, got " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["true", "nan", "inf", "9" * 400], ids=["bool", "nan", "inf", "huge"])
    @pytest.mark.parametrize("flag", ["--seed", "--runs"])
    def test_override_rejects_non_integers(self, tmp_path, capsys, flag, value):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        try:
            code = main(["simulate", "--config", cfg, flag, value])
        except SystemExit as exc:  # argparse reads the flag as an int
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err
        if value.isdigit():
            msg = err.strip().removeprefix("imitodyn: config error: ")
            assert msg.startswith(f"{flag}: must be <= ") and len(msg) < 100
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, analysis, anchor",
        [
            ("landscape", {"grid": 10**13}, "$.analysis.grid: must be <= 1000000"),
            ("ode", {"ode_dt": 1e-300}, "$.analysis.ode_dt: a flow to t = 4.0 takes more than 10000000 steps"),
        ],
        ids=["grid", "flow-steps"],
    )
    def test_allocation_bounds_exit_2_without_output(self, tmp_path, capsys, command, analysis, anchor):
        data = sim_cfg(tmp_path)
        data["analysis"] = analysis
        assert main([command, "--config", write_cfg(tmp_path, data)]) == 2
        assert f"config error: {anchor}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_huge_horizon_exits_2_with_anchor(self, tmp_path, capsys):
        data = sim_cfg(tmp_path, horizon=int("9" * 400))
        assert main(["simulate", "--config", write_cfg(tmp_path, data)]) == 2
        assert "config error: $.sim.horizon: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_threads_env_var_exits_2_without_output(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("IMITODYN_THREADS", value)
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: IMITODYN_THREADS" in err and repr(value) in err
        assert not (tmp_path / "out").exists()

    def test_unknown_log_level_is_a_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--log-level", "loud"])
        assert exc.value.code == 2

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode", "--config", "x.json"])
        assert exc.value.code == 2

    def test_missing_config_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        import imitodyn.cli as cli_mod

        def boom(cfg_obj):
            raise RuntimeError("disk full")

        monkeypatch.setitem(cli_mod._COMMANDS, "simulate", boom)
        assert main(["simulate", "--config", cfg]) == 1
        assert "disk full" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "imitodyn", "simulate", "--config", cfg, "--runs", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run_000.csv").exists()

    def test_threads_env_var_does_not_change_output(self, tmp_path):
        assert_threads_do_not_change_output(tmp_path, sim_cfg(tmp_path, out="a"), sim_cfg(tmp_path, out="b"))

    def test_threads_env_var_does_not_change_network_output(self, tmp_path):
        data = {}
        for out in ("a", "b"):
            data[out] = sim_cfg(tmp_path, out=out, n=30)
            data[out]["topology"] = {"type": "er", "p": 0.3}
        assert_threads_do_not_change_output(tmp_path, data["a"], data["b"])

