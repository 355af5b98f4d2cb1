import hashlib
import json
import os
import re
import subprocess
import sys
import time
import weakref
from collections import Counter

import numpy as np
import pytest

import imitodyn.config as config_mod
import imitodyn.engine as engine_mod
from imitodyn.cli import main


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


def edge_list(n):
    """A ring of n nodes with a chord from every third node, as 'u v' lines."""
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + n // 2) % n) for i in range(0, n, 3)]
    return "".join(f"{u} {v}\n" for u, v in pairs)


def read_all_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def assert_threads_do_not_change_output(tmp_path, data_a, data_b, command="simulate", threads="3"):
    cfg_a = write_cfg(tmp_path, data_a, name="a.json")
    cfg_b = write_cfg(tmp_path, data_b, name="b.json")
    env = dict(os.environ)
    env["IMITODYN_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "imitodyn", command, "--config", cfg_a],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    env["IMITODYN_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "imitodyn", command, "--config", cfg_b],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    a = read_all_bytes(data_a["output"]["dir"])
    b = read_all_bytes(data_b["output"]["dir"])
    assert sorted(a) == sorted(b)
    for name in a:
        if name != "summary.json":  # summary echoes the output dir
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
        # three engine lines, then the command's stage timing
        assert len(lines) == 4
        assert lines[3].startswith("imitodyn.cli: INFO: simulate: engine ")
        for i, line in enumerate(lines[:3]):
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


    def test_eight_action_replicator_without_bounds(self, tmp_path):
        # reward_bounds evaluates separable rewards on a 1-D grid, not on the
        # 8-action simplex grid of C(71, 7) points
        data = sim_cfg(tmp_path, n=64, horizon=2.0)
        data["game"] = {"type": "congestion", "polynomials": [[1.0 + 0.1 * a, -1.0] for a in range(8)]}
        data["rule"] = {"type": "replicator", "eps_margin": 0.01}
        data["init"] = {"fractions": [0.125] * 8}
        cfg = write_cfg(tmp_path, data)
        t0 = time.perf_counter()
        assert main(["simulate", "--config", cfg, "--runs", "1"]) == 0
        assert time.perf_counter() - t0 < 10.0
        assert (tmp_path / "out" / "run_000.csv").exists()


class TestStageTiming:
    @pytest.mark.parametrize("command", ["simulate", "ode"])
    def test_info_reports_stages_and_keeps_bytes(self, tmp_path, capsys, command):
        data = sim_cfg(tmp_path)
        data["analysis"] = {"ode_horizon": 20.0}
        cfg = write_cfg(tmp_path, data)
        info, quiet = tmp_path / "info", tmp_path / "quiet"
        assert main([command, "--config", cfg, "--out", str(info), "--log-level", "info"]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert main([command, "--config", cfg, "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert read_all_bytes(info) == read_all_bytes(quiet)
        csvs = sorted(f for f in os.listdir(info) if f.endswith(".csv"))
        size = sum(os.path.getsize(info / f) for f in csvs)
        rows = sum(len((info / f).read_text().splitlines()) - 1 for f in csvs)
        work = "engine" if command == "simulate" else "flow"
        assert line.startswith(f"imitodyn.cli: INFO: {command}: {work} ")
        assert line.endswith(f" s, {rows} rows, {size} bytes")
        if command == "simulate":
            events = sum(r["event_count"] for r in json.loads((info / "summary.json").read_text())["runs"])
            assert f" s, {events} events (" in line
        else:
            assert f" s, {rows - 1} RK4 steps (" in line


    @pytest.mark.parametrize("command", ["metastability", "compare"])
    def test_info_reports_engine_and_analysis_and_keeps_bytes(self, tmp_path, capsys, command):
        data = sim_cfg(tmp_path)
        data["analysis"] = {"n_sweep": [40, 80]}
        cfg = write_cfg(tmp_path, data)
        info, quiet = tmp_path / "info", tmp_path / "quiet"
        assert main([command, "--config", cfg, "--out", str(info), "--log-level", "info"]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert main([command, "--config", cfg, "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert read_all_bytes(info) == read_all_bytes(quiet)
        seconds = r"\d+\.\d{3} s"
        flow = f"; flow {seconds}, (\\d+) RK4 steps" if command == "compare" else ""
        match = re.fullmatch(
            rf"imitodyn\.cli: INFO: {command}: engine {seconds}, (\d+) events \(\d+ events/s\); "
            rf"analysis {seconds}{flow}",
            line,
        )
        assert match, line
        if command == "metastability":
            reports = json.loads((info / "metastability.json").read_text())["reports"].values()
            events = sum(r["event_count"] for rep in reports for r in rep["per_run"])
            assert int(match[1]) == events > 0
        else:
            assert int(match[2]) == json.loads((info / "compare.json").read_text())["ode_points"] - 1

    def test_graph_build_counts_in_engine_seconds(self, tmp_path, capsys, monkeypatch):
        real = config_mod.square_lattice

        def slow(*args):
            time.sleep(0.3)
            return real(*args)

        monkeypatch.setattr(config_mod, "square_lattice", slow)
        data = sim_cfg(tmp_path, n=16)
        data["topology"] = {"type": "lattice", "side": 4}
        data["ensemble"]["runs"] = 1
        assert main(["simulate", "--config", write_cfg(tmp_path, data), "--log-level", "info"]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert float(re.search(r"simulate: engine (\d+\.\d+) s", line)[1]) >= 0.3

    def test_path_analyses_do_not_load_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma on its first call, 12-16 ms of a run
        data = sim_cfg(tmp_path)
        data["analysis"] = {"n_sweep": [40]}
        cfg = write_cfg(tmp_path, data)
        code = (
            "import sys; from imitodyn.cli import main; "
            f"assert main(['metastability', '--config', {cfg!r}]) == 0; "
            f"assert main(['compare', '--config', {cfg!r}]) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert sorted(os.listdir(tmp_path / "out")) == ["compare.json", "deviation_vs_n.csv", "metastability.json"]


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

    def test_flooded_edge_reported_in_warnings(self, tmp_path):
        # both actions earn 5 everywhere: the edge is a continuum of rest points
        data = sim_cfg(tmp_path)
        data["game"] = {"type": "congestion", "polynomials": [[5.0], [5.0]]}
        cfg = write_cfg(tmp_path, data)
        assert main(["landscape", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "landscape.json").read_text())
        assert [p["x"] for p in report["critical_points"]] == [[0.0, 1.0], [1.0, 0.0]]
        assert any("non-isolated" in w and "edge (0, 1)" in w for w in report["warnings"])
        assert report["search"]["continuum_faces"] == [[0, 1]]

    def test_debug_log_level_reports_search_on_stderr(self, tmp_path, capsys):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "congestion3.json")
        debug, quiet = tmp_path / "debug", tmp_path / "quiet"
        assert main(["landscape", "--config", config, "--out", str(debug), "--log-level", "debug"]) == 0
        err = capsys.readouterr().err
        assert (
            "imitodyn.landscape: DEBUG: find_critical_points_multi: exact search, 4 faces, 7 points, "
            "0 continuum faces\n"
        ) in err
        assert main(["landscape", "--config", config, "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert (debug / "landscape.json").read_bytes() == (quiet / "landscape.json").read_bytes()
        report = json.loads((quiet / "landscape.json").read_text())
        assert report["search"] == {"method": "exact", "faces": 4, "points": 7, "continuum_faces": []}

    def test_twelve_action_landscape_solves_every_face(self, tmp_path):
        # 12 actions have 4083 faces of two or more actions, each holding
        # its barycentre, and 12 vertices
        data = sim_cfg(tmp_path, n=24, horizon=0.5)
        data["game"] = {"type": "congestion", "polynomials": [[1.0, -1.0]] * 12}
        data["init"] = {"fractions": [1.0 / 12] * 12}
        cfg = write_cfg(tmp_path, data)
        assert main(["landscape", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "landscape.json").read_text())
        assert len(report["critical_points"]) == 4095
        assert report["search"] == {"method": "exact", "faces": 4083, "points": 4095, "continuum_faces": []}
        assert main(["simulate", "--config", cfg]) == 0

    def test_retired_search_keys_load_and_change_nothing(self, tmp_path):
        # analysis.grid and analysis.starts are ignored like any unknown key,
        # at values the old bounds rejected
        data = sim_cfg(tmp_path)
        data["game"] = {"type": "congestion", "polynomials": [[1.0, -1.0]] * 3}
        data["init"] = {"fractions": [0.4, 0.3, 0.3]}
        assert main(["landscape", "--config", write_cfg(tmp_path, data), "--out", str(tmp_path / "new")]) == 0
        data["analysis"] = {"grid": 10**13, "starts": 0}
        assert main(["landscape", "--config", write_cfg(tmp_path, data), "--out", str(tmp_path / "old")]) == 0
        new = (tmp_path / "new" / "landscape.json").read_bytes()
        assert (tmp_path / "old" / "landscape.json").read_bytes() == new

    LANDSCAPE_SHA256 = {
        "two_phase": "de1090f5ee42720cb10fb8d037f0735b35215ee3c881ca6f4f0f65771a449bcb",
        "congestion3": "8339c0bd430534d9a098809e46ac5c867b8f1360863a6239e960d2671e6b879e",
        "lattice": "de1090f5ee42720cb10fb8d037f0735b35215ee3c881ca6f4f0f65771a449bcb",
    }

    @pytest.mark.parametrize("name", list(LANDSCAPE_SHA256))
    def test_shipped_landscapes_are_pinned(self, tmp_path, name):
        # the exact search draws no random numbers, so each shipped config's
        # landscape.json is pinned byte for byte, the last bits of every
        # point's phi included (two_phase and lattice share example4)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
        assert main(["landscape", "--config", config, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "landscape.json").read_bytes()).hexdigest()
        assert digest == self.LANDSCAPE_SHA256[name]


class TestMetastability:
    def test_two_action_run_loads_no_scipy(self, tmp_path):
        # src/ needs numpy alone: every subcommand, on a two-action and on a
        # three-action config, loads no scipy module
        three = sim_cfg(tmp_path, out="out3")
        three.update(
            game={"type": "congestion", "polynomials": [[1.0, -1.0]] * 3},
            rule={"type": "replicator", "eps_margin": 0.01},
            init={"fractions": [0.6, 0.3, 0.1]},
        )
        commands = ("simulate", "ode", "landscape", "metastability", "compare")
        for data in (sim_cfg(tmp_path), three):
            cfg = write_cfg(tmp_path, data)
            steps = [[command, "--config", cfg, "--runs", "1"] for command in commands]
            code = (
                "import sys; from imitodyn.cli import main; "
                f"assert all(main(argv) == 0 for argv in {steps!r}); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]"
            written = set(os.listdir(data["output"]["dir"]))
            assert {"summary.json", "ode.csv", "landscape.json", "metastability.json", "compare.json"} <= written

    def test_shipped_landscape_steps_load_no_scipy(self, tmp_path):
        # scipy is a test dependency only: importing the package loads none of
        # it, and congestion3's landscape and two_phase's metastability are
        # solved exactly
        configs = os.path.join(os.path.dirname(__file__), "..", "configs")
        steps = [
            ["landscape", "--config", os.path.join(configs, "congestion3.json"), "--out", str(tmp_path / "c3")],
            ["metastability", "--config", os.path.join(configs, "two_phase.json"), "--out", str(tmp_path / "tp"),
             "--runs", "1"],
        ]
        scipy_modules = "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        code = (
            f"import sys; import imitodyn; {scipy_modules}"
            "from imitodyn.cli import main; "
            f"assert all(main(argv) == 0 for argv in {steps!r}); {scipy_modules}"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["[]", "[]", ""]
        assert (tmp_path / "c3" / "landscape.json").exists() and (tmp_path / "tp" / "metastability.json").exists()

    def test_two_phase_centre_is_exact(self, tmp_path):
        # the lattice states c/n = 0.15, 0.20, 0.30 and 0.35 sit at the
        # thresholds delta/2 = 0.05, delta = 0.1 and _DRIFT_MARGIN = 0.05 from
        # x_0 = 1/4, so the dwell and drift results depend on the centre's
        # last digit; it is exact, and the side of each state is pinned here
        from imitodyn.landscape import _DRIFT_MARGIN, _distances

        config = os.path.join(os.path.dirname(__file__), "..", "configs", "two_phase.json")
        assert main(["metastability", "--config", config, "--out", str(tmp_path), "--runs", "1"]) == 0
        doc = json.loads((tmp_path / "metastability.json").read_text())
        for rep in doc["reports"].values():
            rows = rep["aggregates"]["exit_times"]
            assert [(r["center"], r["kind"], r["delta"]) for r in rows] == [
                ([0.25, 0.75], "saddle_or_degenerate", 0.1),
                ([0.75, 0.25], "local_max", 0.1),
            ]
        centre = np.array([0.25, 0.75])
        for n in doc["n_values"]:
            states = np.array([[c / n, 1.0 - c / n] for c in (3 * n // 20, n // 5, 3 * n // 10, 7 * n // 20)])
            d = _distances(states, centre, "sup")
            # 0.20 and 0.30 lie just outside the entry ball and the drift margin
            assert (d < 0.05).tolist() == [False, False, False, False]
            assert (d <= _DRIFT_MARGIN).tolist() == [False, False, False, False]
            # 0.15 has left the delta ball, 0.35 has not
            assert (d >= 0.1).tolist() == [True, False, False, False]

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

    @pytest.mark.parametrize(
        "command, sweep, anchor",
        [
            ("simulate", None, "$.sim.n"),
            ("metastability", None, "$.sim.n"),
            ("metastability", [10, 2], "$.analysis.n_sweep[1]"),
            ("compare", [2, 10], "$.analysis.n_sweep[0]"),
            ("ode", None, "$.sim.n"),
            ("landscape", None, "$.sim.n"),
        ],
    )
    def test_population_below_initial_support_exits_2(self, tmp_path, capsys, command, sweep, anchor):
        data = sim_cfg(tmp_path, n=2 if sweep is None else 10)
        data["game"] = {"type": "congestion", "polynomials": [[1.0, -1.0]] * 3}
        data["init"] = {"fractions": [0.6, 0.3, 0.1]}
        if sweep is not None:
            data["analysis"] = {"n_sweep": sweep}
        assert main([command, "--config", write_cfg(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {anchor}: must be >= 3, one player per positive initial fraction, got 2" in err
        assert not (tmp_path / "out").exists()

    def test_oversized_population_exits_2(self, tmp_path, capsys):
        data = sim_cfg(tmp_path, n=10**9)
        assert main(["simulate", "--config", write_cfg(tmp_path, data)]) == 2
        assert "config error: $.sim.n: law tables of about " in capsys.readouterr().err
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
        "command, section, update, anchor",
        [
            ("ode", "analysis", {"ode_dt": 1e-300}, "$.analysis.ode_dt: a flow to t = 4.0 takes more than 10000000 steps"),
            (
                "simulate",
                "sim",
                {"horizon": 1e6, "record_stride": 1e-4},
                "$.sim.record_stride: a run to t = 1000000.0 keeps more than 10000000 stride rows",
            ),
        ],
        ids=["flow-steps", "stride-rows"],
    )
    def test_allocation_bounds_exit_2_without_output(self, tmp_path, capsys, command, section, update, anchor):
        data = sim_cfg(tmp_path)
        data.setdefault(section, {}).update(update)
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

    @pytest.mark.parametrize(
        "lines",
        [None, "0 1\n1 2\nx y\n", "0 1\n1 2\n2 3\n", "0 1\n1 2000000\n", "0 1\n1 100000000000000000000000\n"],
        ids=["missing", "malformed", "nodes", "large_id", "id_beyond_int64"],
    )
    def test_bad_edge_file_exits_2_without_output(self, tmp_path, capsys, lines):
        # the edge list is read at load, so every subcommand stops before any output
        edges = tmp_path / "edges.txt"
        if lines is not None:
            edges.write_text(lines)
        data = sim_cfg(tmp_path, n=3)
        data["topology"] = {"type": "file", "path": str(edges)}
        cfg = write_cfg(tmp_path, data)
        for command in ("simulate", "ode", "landscape", "metastability", "compare"):
            assert main([command, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "config error: $.topology.path: " in err and len(err) < 300
            assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        import imitodyn.cli as cli_mod

        def boom(cfg_obj):
            raise RuntimeError("disk full")

        monkeypatch.setitem(cli_mod._COMMANDS, "simulate", boom)
        assert main(["simulate", "--config", cfg]) == 1
        assert "disk full" in capsys.readouterr().err


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# m = 3 on an ER graph of mean degree 10, the one shape no shipped config has
ER_M3 = {
    "game": {"type": "congestion", "polynomials": [[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]]},
    "rule": {"type": "replicator", "eps_margin": 0.01},
    "topology": {"type": "er", "p": 0.011123470522803115},
    "sim": {"n": 900, "lambda": 1.0, "horizon": 60.0, "record_stride": 0.2},
    "init": {"fractions": [0.6, 0.3, 0.1]},
    "ensemble": {"runs": 4, "base_seed": 0},
    "output": {"dir": "results/er_m3"},
}

# a seeded ER graph, which every run of a size shares, over two sizes
ER_SEEDED = {
    "game": {"type": "builtin", "name": "example4"},
    "rule": {"type": "arctan", "K": 1.0},
    "topology": {"type": "er", "p": 0.3, "seed": 7},
    "sim": {"n": 30, "horizon": 4.0, "record_stride": 0.5},
    "init": {"fractions": [0.5, 0.5]},
    "ensemble": {"runs": 3, "base_seed": 11},
    "analysis": {"n_sweep": [20, 30]},
    "output": {"dir": "results/er_seeded"},
}

# an edge list at a relative path, so that summary.json's config echo does
# not depend on where the test runs; edge_list(16) writes the file
EDGES = {
    "game": {"type": "congestion", "polynomials": [[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]]},
    "rule": {"type": "replicator", "eps_margin": 0.01},
    "topology": {"type": "file", "path": "edges.txt"},
    "sim": {"n": 16, "horizon": 4.0, "record_stride": 0.5},
    "init": {"fractions": [0.5, 0.3, 0.2]},
    "ensemble": {"runs": 3, "base_seed": 5},
    "output": {"dir": "results/edges"},
}


class TestStreaming:
    """Each sweep subcommand holds one run at a time."""

    SWEEP = ("simulate", "metastability", "compare")

    @pytest.mark.parametrize("command", SWEEP)
    def test_no_earlier_run_is_alive_when_the_next_starts(self, tmp_path, monkeypatch, command):
        made, alive = [], []  # earlier runs still alive at each run's start; a weakref per run
        real = engine_mod.run_one

        def spy(spec, seed):
            made.append(sum(ref() is not None for ref in alive))
            traj = real(spec, seed)
            alive.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(engine_mod, "run_one", spy)
        monkeypatch.setenv("IMITODYN_THREADS", "1")
        data = sim_cfg(tmp_path, n=30)
        data["ensemble"]["runs"] = 4
        data["analysis"] = {"n_sweep": [20, 30]}
        assert main([command, "--config", write_cfg(tmp_path, data)]) == 0
        assert made == [0] * (4 if command == "simulate" else 8)

    def test_failed_run_leaves_earlier_csvs_and_no_summary(self, tmp_path, monkeypatch, capsys):
        real = engine_mod.run_one
        made = []

        def fail_third(spec, seed):
            made.append(seed)
            if len(made) == 3:
                raise RuntimeError("run 2 failed")
            return real(spec, seed)

        monkeypatch.setattr(engine_mod, "run_one", fail_third)
        monkeypatch.setenv("IMITODYN_THREADS", "1")
        data = sim_cfg(tmp_path)
        data["ensemble"]["runs"] = 5
        assert main(["simulate", "--config", write_cfg(tmp_path, data)]) == 1
        assert "run 2 failed" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "out")) == ["run_000.csv", "run_001.csv"]

    def test_peak_memory_does_not_grow_with_runs(self, tmp_path):
        # two_phase with a quarter of its horizon and one sweep size: at
        # 48 runs the whole ensemble held at once would peak about 20 MB
        # above 4 runs; held one run at a time it stays within the bound
        bound_mb = 5.0
        data = {
            "game": {"type": "builtin", "name": "example4"},
            "rule": {"type": "arctan", "K": 1.0},
            "sim": {"n": 2500, "horizon": 50.0, "record_stride": 0.1},
            "init": {"fractions": [0.001, 0.999]},
            "analysis": {"n_sweep": [2500]},
            "output": {"dir": str(tmp_path / "out")},
        }
        cfg = write_cfg(tmp_path, data)
        # a child's ru_maxrss starts at the peak of the process that exec'd
        # it, so each subcommand is started by a small launcher, which
        # prints the subcommand's own ru_maxrss from wait4
        code = (
            "import os, sys; exe = sys.executable; "
            "pid = os.posix_spawn(exe, [exe, '-m', 'imitodyn', *sys.argv[1:]], os.environ); "
            "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss); sys.exit(os.waitstatus_to_exitcode(status))"
        )
        env = dict(os.environ, IMITODYN_THREADS="1")
        for command in self.SWEEP:
            peak_kb = []
            for runs in (4, 48):
                proc = subprocess.run(
                    [sys.executable, "-c", code, command, "--config", cfg, "--runs", str(runs)],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
                peak_kb.append(int(proc.stdout.split()[-1]))
            assert (peak_kb[1] - peak_kb[0]) / 1024 < bound_mb, (command, peak_kb)

    @pytest.mark.parametrize("command", SWEEP)
    def test_pool_past_its_in_flight_bound_does_not_change_output(self, tmp_path, command):
        # 9 runs on 2 workers: more runs than the pool keeps in flight
        data = {}
        for out in ("a", "b"):
            data[out] = sim_cfg(tmp_path, out=out, n=30)
            data[out]["ensemble"]["runs"] = 9
            data[out]["analysis"] = {"n_sweep": [20, 30]}
        assert 9 > engine_mod._IN_FLIGHT * 2
        assert_threads_do_not_change_output(tmp_path, data["a"], data["b"], command, threads="2")


class TestGraphBuilds:
    """A topology is resolved once: each graph is built once per population
    size and shared by its runs, except an Erdos-Renyi graph without a seed,
    which each run builds; an edge list is read once, at load."""

    BUILDERS = ("complete", "erdos_renyi", "square_lattice", "from_edge_list")

    @pytest.mark.parametrize(
        "topology, sizes, builds",
        [
            ({"type": "er", "p": 0.3, "seed": 7}, [20, 30], {"erdos_renyi": 2}),
            ({"type": "er", "p": 0.3}, [20, 30], {"erdos_renyi": 6}),
            ({"type": "lattice", "side": 5}, [25], {"square_lattice": 1}),
            ({"type": "file", "path": "edges.txt"}, [25], {"from_edge_list": 1}),
        ],
        ids=["er_seeded", "er", "lattice", "file"],
    )
    def test_metastability_builds_each_graph_once_per_size(self, tmp_path, monkeypatch, topology, sizes, builds):
        calls = Counter()
        for name in self.BUILDERS:
            def counted(*args, _real=getattr(config_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(config_mod, name, counted)
        monkeypatch.setenv("IMITODYN_THREADS", "1")  # every run in this process
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.txt").write_text(edge_list(25))
        data = sim_cfg(tmp_path, n=sizes[-1])
        data["ensemble"]["runs"] = 3
        data["topology"] = topology
        data["analysis"] = {"n_sweep": sizes}
        cfg = write_cfg(tmp_path, data)
        read = Counter({"from_edge_list": 1} if topology["type"] == "file" else {})  # at each load
        for command in ("ode", "landscape"):
            calls.clear()
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            assert calls == read, command
        calls.clear()
        assert main(["metastability", "--config", cfg]) == 0
        assert calls == Counter(builds)


class TestArtifacts:
    # sha256 over the sorted file names and bytes of each output directory;
    # summary.json echoes the config as read, so --out leaves it unchanged
    SHA256 = {
        ("two_phase", "simulate"): "c2b64ee1fcce72c37e82852efeab0833db7c8fd394498a1f888296bef3185797",
        ("two_phase", "ode"): "9b90781280b296a5f9274e88ef6ea48779ff0941bc1061a538c412eef9da344a",
        ("two_phase", "metastability"): "8ac61e3e5454463aface3e1fac09e7cb4ad0e0a4afccb1510cefdca06ea77077",
        ("two_phase", "compare"): "9a1cbd70ed5eba78317a7dc3fd6d18ef5543a7990c53eda103f1c32738f3ff96",
        ("congestion3", "simulate"): "81e21f347ddcc9bc2f2cadedc9653b0a1c043b7edd78b0d97e67c6b5b29051cc",
        ("congestion3", "ode"): "8adeb7782ede2cca58d296a6e8982c15e8e1a7fe25c739c9c1a1f547fa82c21c",
        ("congestion3", "metastability"): "e71b33343c0ba4214bd1083e7734c60ac2e118ffcd8c1b730acbd2f1e49fc2dd",
        ("congestion3", "compare"): "bf4bbd025daedbbc2822167ee59cdeb30e25fa817cd685922b2a72acf1e859e9",
        ("lattice", "simulate"): "e7ea5dc03565a66d68cdf7f550847561336b49b4811a22899e1426bf06e54ae1",
        ("lattice", "ode"): "94ccfa1218a5762b50bdc8a7d0db110eb5937a7689f866a62ae3c0a3f6aa7075",
        ("lattice", "metastability"): "61ad4c22dbd29beef4296a5c2eb8bad08b38bc3ab745120522e2e2192e353ee6",
        ("lattice", "compare"): "180f24190c764d2b6b645b9659134252f13418678d1f0828d71c39ac9cb42b20",
        ("er_m3", "simulate"): "b0d15b94945c3192b16e1e5e1b294b5383f8b36b5a59207e3db519e2bc3c74b8",
        ("er_seeded", "simulate"): "ed006ab8135f30319c67a010041e415cddf829867ebcd30bc2b77799c0bf1552",
        ("er_seeded", "ode"): "d94d0d784c93cba31cacd6c6910ed3b9798180470da070fec1bb54d4f5f75d54",
        ("er_seeded", "landscape"): "cbd977d46d42e103ec673cc8cf1ded80ccf4b6d297bba2a2537e7bf1035d56a8",
        ("er_seeded", "metastability"): "d6b386d63ffab70fe1b7e383a6940a1f91b1e01317275339eb757353d1c92373",
        ("er_seeded", "compare"): "899619c966f56316bf39b05d82174ae4ede6cbd3c0707b6e73fd5d210680b563",
        ("edges", "simulate"): "24a29bc57eb275290881b4adbed1b033253a66f33f598a979427897dea281ab9",
        ("edges", "ode"): "6f1808c30bf04845f4fa00f0f0eb8544e663ca3d8eebe16002f9d25a392104e5",
        ("edges", "landscape"): "bbe96ff0b57957bbb817acc55b78fb763f6e9bebb2764dd73728cd5893fc7e60",
        ("edges", "metastability"): "eef404daa53537ee545ca9332d05b4253184534b9c3695b29aad475458558d43",
        ("edges", "compare"): "3760a4fc4e0cff0b9811fe192f58ca3999b923199334955a1ecbaf6259c99abc",
    }
    INLINE = {"er_m3": ER_M3, "er_seeded": ER_SEEDED, "edges": EDGES}

    @pytest.mark.parametrize("name, command", list(SHA256), ids=[f"{n}-{c}" for n, c in SHA256])
    def test_artifacts_are_pinned(self, tmp_path, monkeypatch, name, command):
        if name in self.INLINE:
            monkeypatch.chdir(tmp_path)  # EDGES names its edge list relative to here
            (tmp_path / "edges.txt").write_text(edge_list(16))
            config = write_cfg(tmp_path, self.INLINE[name], name=f"{name}.json")
        else:
            config = os.path.join(CONFIGS, f"{name}.json")
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for file, data in read_all_bytes(out).items():
            digest.update(file.encode() + b"\0" + data)
        assert digest.hexdigest() == self.SHA256[name, command]


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

    def test_sequential_run_loads_no_multiprocessing(self, tmp_path):
        cfg = write_cfg(tmp_path, sim_cfg(tmp_path))
        code = (
            "import sys; from imitodyn.cli import main; "
            f"assert main(['simulate', '--config', {cfg!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
        )
        env = dict(os.environ, IMITODYN_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out" / "summary.json").exists()

    def test_threads_env_var_does_not_change_output(self, tmp_path):
        assert_threads_do_not_change_output(tmp_path, sim_cfg(tmp_path, out="a"), sim_cfg(tmp_path, out="b"))

    def test_threads_env_var_does_not_change_network_output(self, tmp_path):
        data = {}
        for out in ("a", "b"):
            data[out] = sim_cfg(tmp_path, out=out, n=30)
            data[out]["topology"] = {"type": "er", "p": 0.3}
        assert_threads_do_not_change_output(tmp_path, data["a"], data["b"])

    @pytest.mark.parametrize(
        "topology",
        [
            {"type": "complete"},
            {"type": "er", "p": 0.3},
            {"type": "er", "p": 0.3, "seed": 7},
            {"type": "file", "path": "edges.txt"},
        ],
        ids=["complete", "er", "er_seeded", "file"],
    )
    @pytest.mark.parametrize("command", ["metastability", "compare"])
    def test_threads_env_var_does_not_change_sweep_output(self, tmp_path, command, topology):
        # a shared Graph, seeded or read from a file, crosses the worker pool
        data = {}
        for out in ("a", "b"):
            data[out] = sim_cfg(tmp_path, out=out, n=30)
            data[out]["topology"] = dict(topology)
            data[out]["analysis"] = {"n_sweep": [20, 30]}
        if topology["type"] == "file":
            (tmp_path / "edges.txt").write_text(edge_list(30))
            for out in data.values():
                out["topology"]["path"] = str(tmp_path / "edges.txt")
                out["analysis"]["n_sweep"] = [30]  # an edge list fixes n
        assert_threads_do_not_change_output(tmp_path, data["a"], data["b"], command)

