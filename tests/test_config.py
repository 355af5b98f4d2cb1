import json
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from imitodyn import (
    ArctanRule, ConfigError, Graph, ReplicatorRule, erdos_renyi, example4_game, load_config, make_congestion_game
)
from imitodyn._law import _Law
from imitodyn.config import _LAW_BUDGET, _MAX_FLOW_STEPS, MAX_RUNS, _law_bytes

REPO = Path(__file__).resolve().parent.parent


def base_config(out_dir="out"):
    return {
        "game": {"type": "builtin", "name": "example4"},
        "rule": {"type": "arctan", "K": 1.0},
        "sim": {"n": 100, "horizon": 5.0},
        "init": {"fractions": [0.5, 0.5]},
        "output": {"dir": out_dir},
    }


@pytest.fixture
def write_cfg(tmp_path):
    def _write(data, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


def expect_error(write_cfg, data, anchor):
    with pytest.raises(ConfigError, match=anchor):
        load_config(write_cfg(data))


class TestValidConfigs:
    def test_minimal_config_and_defaults(self, write_cfg):
        cfg = load_config(write_cfg(base_config()))
        assert cfg.game.m == 2
        assert isinstance(cfg.rule, ArctanRule)
        assert cfg.topology == {"type": "complete"}
        assert cfg.graph(100) is None
        assert cfg.n == 100 and cfg.lam == 1.0 and cfg.horizon == 5.0
        assert cfg.record_stride == 0.1 and cfg.stop_on_absorption is True
        assert cfg.runs == 4 and cfg.base_seed == 0
        assert cfg.gammas == (0.05,) and cfg.deltas == (0.1,)
        assert cfg.ode_dt == 0.01 and cfg.ode_horizon == 5.0
        assert cfg.limit_tol == 1e-8
        assert cfg.n_sweep == (100,)
        assert cfg.out_dir == "out"
        assert np.allclose(cfg.init_fractions, [0.5, 0.5])

    def test_full_config_round_trip(self, write_cfg):
        data = {
            "game": {"type": "congestion", "polynomials": [[1.0, 2.0], [3.0]]},
            "rule": {"type": "replicator", "eps_margin": 0.01, "bounds": [0.0, 5.0]},
            "topology": {"type": "er", "p": 0.2, "seed": 9},
            "sim": {
                "n": 64,
                "lambda": 2.0,
                "horizon": 10.0,
                "record_stride": 0.25,
                "stop_on_absorption": False,
            },
            "init": {"fractions": [0.25, 0.75]},
            "ensemble": {"runs": 7, "base_seed": 42},
            "analysis": {
                "gammas": [0.02, 0.05],
                "deltas": [0.05],
                "ode_dt": 0.005,
                "ode_horizon": 20.0,
                "limit_tol": 1e-6,
                "n_sweep": [32, 64],
            },
            "output": {"dir": "results"},
        }
        cfg = load_config(write_cfg(data))
        assert cfg.game.m == 2 and cfg.game.name == "config"
        assert isinstance(cfg.rule, ReplicatorRule)
        assert cfg.topology == {"type": "er", "p": 0.2, "seed": 9}
        assert isinstance(cfg.graph(64), Graph)
        assert cfg.lam == 2.0 and cfg.stop_on_absorption is False
        assert cfg.runs == 7 and cfg.base_seed == 42
        assert cfg.gammas == (0.02, 0.05) and cfg.deltas == (0.05,)
        assert cfg.ode_horizon == 20.0 and cfg.n_sweep == (32, 64)
        assert cfg.out_dir == "results"
        assert cfg.raw == data

    def test_replicator_bounds_default_to_reward_range(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "replicator"}
        cfg = load_config(write_cfg(data))
        assert cfg.rule.r_lo == pytest.approx(-0.12)
        assert cfg.rule.r_hi == pytest.approx(12.12)

    def test_arctan_matrix_gain(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "arctan", "K": [[1.0, 2.0], [3.0, 4.0]]}
        cfg = load_config(write_cfg(data))
        assert isinstance(cfg.rule, ArctanRule)
        assert np.asarray(cfg.rule.K).shape == (2, 2)

    def test_init_fractions_renormalized_within_slack(self, write_cfg):
        data = base_config()
        data["init"] = {"fractions": [0.5, 0.5 + 5e-7]}
        cfg = load_config(write_cfg(data))
        assert cfg.init_fractions.sum() == pytest.approx(1.0, abs=1e-15)
        data["init"] = {"fractions": [-5e-7, 1.0]}
        cfg = load_config(write_cfg(data))
        assert cfg.init_fractions[0] == 0.0

    def test_lattice_topology(self, write_cfg):
        data = base_config()
        data["sim"]["n"] = 25
        data["topology"] = {"type": "lattice", "side": 5, "periodic": False}
        cfg = load_config(write_cfg(data))
        graph = cfg.graph(25)
        assert graph.n == 25 and graph.kind == "lattice"

    def test_file_topology(self, write_cfg, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        data = base_config()
        data["sim"]["n"] = 3
        data["topology"] = {"type": "file", "path": str(edges)}
        cfg = load_config(write_cfg(data))
        graph = cfg.graph(3)
        assert graph.n == 3
        edges.unlink()  # read once, at load
        assert cfg.graph(3) is graph

    def test_er_seeded_graph_is_shared_across_runs(self, write_cfg):
        data = base_config()
        data["topology"] = {"type": "er", "p": 0.3, "seed": 5}
        cfg = load_config(write_cfg(data))
        graph = cfg.graph(30)
        assert isinstance(graph, Graph)  # one graph, which every run of the size takes
        expected = erdos_renyi(30, 0.3, seed=5)
        assert np.array_equal(graph.flat, expected.flat) and np.array_equal(graph.off, expected.off)

    def test_er_unseeded_graph_is_fresh_per_run(self, write_cfg):
        data = base_config()
        data["topology"] = {"type": "er", "p": 0.3}
        cfg = load_config(write_cfg(data))
        per_run = pickle.loads(pickle.dumps(cfg.graph(30)))  # it crosses a worker pool
        g1 = per_run(111)
        g2 = per_run(222)
        same = all(np.array_equal(a, b) for a, b in zip(g1.neighbors, g2.neighbors))
        assert not same
        # but reproducible for the same run seed
        g3 = cfg.graph(30)(111)
        assert all(np.array_equal(a, b) for a, b in zip(g1.neighbors, g3.neighbors))


class TestFileLevelErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.json"))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"game": {,}\n')
        with pytest.raises(ConfigError, match=r"bad\.json:1:11: malformed JSON"):
            load_config(str(path))

    def test_non_object_root(self, write_cfg):
        with pytest.raises(ConfigError, match=r"\$: config must be a JSON object"):
            load_config(write_cfg([1, 2, 3]))


class TestSectionErrors:
    @pytest.mark.parametrize("section", ["game", "rule", "sim", "init"])
    def test_missing_required_section(self, write_cfg, section):
        data = base_config()
        del data[section]
        expect_error(write_cfg, data, rf"\$\.{section}: missing required section")

    def test_section_must_be_object(self, write_cfg):
        data = base_config()
        data["sim"] = [1, 2]
        expect_error(write_cfg, data, r"\$\.sim: must be an object")


class TestGameErrors:
    def test_unknown_type(self, write_cfg):
        data = base_config()
        data["game"] = {"type": "matrix"}
        expect_error(write_cfg, data, r"\$\.game\.type")

    def test_unknown_builtin(self, write_cfg):
        data = base_config()
        data["game"] = {"type": "builtin", "name": "example9"}
        expect_error(write_cfg, data, r"\$\.game\.name: unknown builtin 'example9'")

    def test_congestion_needs_two_actions(self, write_cfg):
        data = base_config()
        data["game"] = {"type": "congestion", "polynomials": [[1.0]]}
        expect_error(write_cfg, data, r"\$\.game\.polynomials: must be an array of >= 2")

    def test_congestion_coefficient_must_be_finite(self, write_cfg):
        data = base_config()
        data["game"] = {"type": "congestion", "polynomials": [[1.0, "x"], [2.0]]}
        expect_error(write_cfg, data, r"\$\.game\.polynomials\[0\]\[1\]")


class TestRuleErrors:
    def test_unknown_type(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "logit"}
        expect_error(write_cfg, data, r"\$\.rule\.type")

    def test_nonpositive_gain(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "arctan", "K": -1.0}
        expect_error(write_cfg, data, r"\$\.rule\.K")

    def test_matrix_gain_shape_mismatch(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "arctan", "K": [[1.0, 1.0, 1.0]] * 3}
        expect_error(write_cfg, data, r"\$\.rule\.K: matrix must be 2x2")

    def test_replicator_margin_too_large(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "replicator", "eps_margin": 0.5}
        expect_error(write_cfg, data, r"\$\.rule\.eps_margin: must be < 0\.5")

    def test_replicator_bad_bounds(self, write_cfg):
        data = base_config()
        data["rule"] = {"type": "replicator", "bounds": [3.0]}
        expect_error(write_cfg, data, r"\$\.rule\.bounds: must be two numbers \[lo, hi\], got 1")
        data["rule"] = {"type": "replicator", "bounds": [3.0, 3.0]}
        expect_error(write_cfg, data, r"\$\.rule\.bounds: need lo < hi")
        # Python's json reads Infinity
        data["rule"] = {"type": "replicator", "bounds": [0.0, float("inf")]}
        expect_error(write_cfg, data, r"\$\.rule\.bounds\[1\]: must be finite, got inf")


class TestSimErrors:
    def test_population_too_small(self, write_cfg):
        data = base_config()
        data["sim"]["n"] = 1
        expect_error(write_cfg, data, r"\$\.sim\.n: must be >= 2")

    def test_population_not_integer(self, write_cfg):
        data = base_config()
        data["sim"]["n"] = 10.5
        expect_error(write_cfg, data, r"\$\.sim\.n: must be an integer")

    def test_missing_horizon(self, write_cfg):
        data = base_config()
        del data["sim"]["horizon"]
        expect_error(write_cfg, data, r"\$\.sim\.horizon: missing required field")

    def test_nonpositive_rate(self, write_cfg):
        data = base_config()
        data["sim"]["lambda"] = 0.0
        expect_error(write_cfg, data, r"\$\.sim\.lambda: must be positive")

    def test_nonpositive_stride(self, write_cfg):
        data = base_config()
        data["sim"]["record_stride"] = -0.5
        expect_error(write_cfg, data, r"\$\.sim\.record_stride")

    def test_boolean_is_not_a_number(self, write_cfg):
        data = base_config()
        data["sim"]["n"] = True
        expect_error(write_cfg, data, r"\$\.sim\.n: must be a number, got bool")


class TestInitErrors:
    def test_length_mismatch(self, write_cfg):
        data = base_config()
        data["init"] = {"fractions": [0.2, 0.3, 0.5]}
        expect_error(write_cfg, data, r"\$\.init\.fractions: length 3 disagrees")

    def test_off_simplex(self, write_cfg):
        data = base_config()
        data["init"] = {"fractions": [0.6, 0.6]}
        expect_error(write_cfg, data, r"\$\.init\.fractions: not a point on the simplex")

    def test_negative_entry(self, write_cfg):
        data = base_config()
        data["init"] = {"fractions": [-0.2, 1.2]}
        expect_error(write_cfg, data, r"\$\.init\.fractions: not a point on the simplex")

    @pytest.mark.parametrize(
        "n, sweep, anchor",
        [(2, None, r"\$\.sim\.n"), (10, [10, 2], r"\$\.analysis\.n_sweep\[1\]")],
        ids=["sim.n", "n_sweep"],
    )
    def test_population_below_initial_support(self, write_cfg, n, sweep, anchor):
        # PopulationType.from_fractions gives each positive fraction a player
        data = base_config()
        data["game"] = {"type": "congestion", "polynomials": [[1.0, -1.0]] * 3}
        data["sim"]["n"] = n
        data["init"] = {"fractions": [0.6, 0.3, 0.1]}
        if sweep is not None:
            data["analysis"] = {"n_sweep": sweep}
        expect_error(write_cfg, data, anchor + r": must be >= 3, one player per positive initial fraction, got 2$")
        # a fraction the slack clips to 0 needs no player
        data["init"] = {"fractions": [0.7, 0.3 + 5e-7, -5e-7]}
        cfg = load_config(write_cfg(data))
        assert cfg.init_fractions[2] == 0.0 and 2 in cfg.n_sweep


class TestTopologyErrors:
    def test_unknown_type(self, write_cfg):
        data = base_config()
        data["topology"] = {"type": "ring"}
        expect_error(write_cfg, data, r"\$\.topology\.type")

    def test_er_probability_range(self, write_cfg):
        data = base_config()
        data["topology"] = {"type": "er", "p": 1.5}
        expect_error(write_cfg, data, r"\$\.topology\.p: must be <= 1")

    def test_lattice_side_mismatch(self, write_cfg):
        data = base_config()
        data["topology"] = {"type": "lattice", "side": 7}
        expect_error(write_cfg, data, r"\$\.topology\.side: side\^2 = 49 disagrees")

    def test_file_needs_path(self, write_cfg):
        data = base_config()
        data["topology"] = {"type": "file"}
        expect_error(write_cfg, data, r"\$\.topology\.path")

    def test_build_graph_checks_file_node_count(self, write_cfg, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        data = base_config()
        data["sim"]["n"] = 5
        data["topology"] = {"type": "file", "path": str(edges)}
        with pytest.raises(ConfigError, match=r"\$\.topology\.path: edge list has 3 nodes, sim\.n = 5"):
            load_config(write_cfg(data))


class TestEnsembleAndAnalysisErrors:
    def test_zero_runs(self, write_cfg):
        data = base_config()
        data["ensemble"] = {"runs": 0}
        expect_error(write_cfg, data, r"\$\.ensemble\.runs: must be >= 1")

    def test_base_seed_width(self, write_cfg):
        data = base_config()
        data["ensemble"] = {"base_seed": 2**64}
        expect_error(write_cfg, data, r"\$\.ensemble\.base_seed: must be <= 18446744073709551615, got 18446744073709551616")

    def test_nonpositive_gamma(self, write_cfg):
        data = base_config()
        data["analysis"] = {"gammas": [0.05, 0.0]}
        expect_error(write_cfg, data, r"\$\.analysis\.gammas\[1\]: must be positive")

    def test_sweep_entry_not_integer(self, write_cfg):
        data = base_config()
        data["analysis"] = {"n_sweep": [100, 2.5]}
        expect_error(write_cfg, data, r"\$\.analysis\.n_sweep\[1\]: must be an integer, got 2\.5")

    def test_sweep_conflicts_with_lattice(self, write_cfg):
        data = base_config()
        data["sim"]["n"] = 25
        data["topology"] = {"type": "lattice", "side": 5}
        data["analysis"] = {"n_sweep": [25, 100]}
        expect_error(write_cfg, data, r"\$\.analysis\.n_sweep: a lattice topology fixes n = 25")

    def test_bad_output_dir(self, write_cfg):
        data = base_config()
        data["output"] = {"dir": ""}
        expect_error(write_cfg, data, r"\$\.output\.dir")


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "section, key, value, anchor",
        [
            ("sim", "n", float("inf"), r"\$\.sim\.n: must be finite"),
            ("sim", "n", float("nan"), r"\$\.sim\.n: must be finite"),
            ("ensemble", "runs", float("inf"), r"\$\.ensemble\.runs: must be finite"),
            ("analysis", "n_sweep", [100, float("inf")], r"\$\.analysis\.n_sweep\[1\]: must be finite, got inf"),
            ("rule", "K", float("inf"), r"\$\.rule\.K: must be finite, got inf"),
        ],
        ids=["n-inf", "n-nan", "runs-inf", "n_sweep-inf", "K-inf"],
    )
    def test_non_finite_numbers(self, write_cfg, section, key, value, anchor):
        # Python's json reads Infinity and NaN
        data = base_config()
        data.setdefault(section, {})[key] = value
        expect_error(write_cfg, data, anchor)


class TestHugeIntegers:
    """json reads integers of any size; none may escape as an OverflowError."""

    HUGE = int("9" * 400)

    def test_horizon(self, write_cfg):
        data = base_config()
        data["sim"]["horizon"] = self.HUGE
        expect_error(write_cfg, data, r"\$\.sim\.horizon: must be finite, got an integer too large for a float")

    def test_sweep_entry(self, write_cfg):
        data = base_config()
        data["analysis"] = {"n_sweep": [self.HUGE]}
        expect_error(write_cfg, data, r"\$\.analysis\.n_sweep\[0\]: must be <= 9007199254740992")

    def test_polynomial_coefficient(self, write_cfg):
        data = base_config()
        data["game"] = {"type": "congestion", "polynomials": [[1.0, self.HUGE], [2.0]]}
        expect_error(write_cfg, data, r"\$\.game\.polynomials\[0\]\[1\]: must be finite")

    @pytest.mark.parametrize(
        "rule, anchor",
        [
            ({"type": "arctan", "K": HUGE}, r"\$\.rule\.K: must be finite"),
            ({"type": "arctan", "K": [[1.0, HUGE], [1.0, 1.0]]}, r"\$\.rule\.K\[0\]\[1\]: must be finite"),
            ({"type": "replicator", "bounds": [0, HUGE]}, r"\$\.rule\.bounds\[1\]: must be finite"),
        ],
        ids=["K", "K-matrix", "bounds"],
    )
    def test_rule_parameters(self, write_cfg, rule, anchor):
        data = base_config()
        data["rule"] = rule
        expect_error(write_cfg, data, anchor)

    def test_integer_literal_past_the_conversion_limit(self, write_cfg, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(base_config()).replace('"horizon": 5.0', '"horizon": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_config(str(path))

    def test_runs_bounded(self, write_cfg):
        data = base_config()
        data["ensemble"] = {"runs": self.HUGE}
        expect_error(write_cfg, data, r"\$\.ensemble\.runs: must be <= 1000000")
        data["ensemble"] = {"runs": MAX_RUNS}
        assert load_config(write_cfg(data)).runs == MAX_RUNS


# Every numeric field, as the sections that reach it with "@" in its place.
NUMERIC_FIELDS = {
    "$.game.polynomials[0][1]": {"game": {"type": "congestion", "polynomials": [[1.0, "@"], [2.0]]}},
    "$.rule.K": {"rule": {"type": "arctan", "K": "@"}},
    "$.rule.K[1][0]": {"rule": {"type": "arctan", "K": [[1.0, 1.0], ["@", 1.0]]}},
    "$.rule.eps_margin": {"rule": {"type": "replicator", "eps_margin": "@"}},
    "$.rule.bounds[0]": {"rule": {"type": "replicator", "bounds": ["@", 1.0]}},
    "$.topology.p": {"topology": {"type": "er", "p": "@"}},
    "$.topology.seed": {"topology": {"type": "er", "p": 0.5, "seed": "@"}},
    "$.topology.side": {"topology": {"type": "lattice", "side": "@"}},
    "$.sim.n": {"sim": {"n": "@", "horizon": 5.0}},
    "$.sim.lambda": {"sim": {"n": 100, "horizon": 5.0, "lambda": "@"}},
    "$.sim.horizon": {"sim": {"n": 100, "horizon": "@"}},
    "$.sim.record_stride": {"sim": {"n": 100, "horizon": 5.0, "record_stride": "@"}},
    "$.init.fractions[1]": {"init": {"fractions": [0.5, "@"]}},
    "$.ensemble.runs": {"ensemble": {"runs": "@"}},
    "$.ensemble.base_seed": {"ensemble": {"base_seed": "@"}},
    "$.analysis.gammas[0]": {"analysis": {"gammas": ["@"]}},
    "$.analysis.deltas[0]": {"analysis": {"deltas": ["@"]}},
    "$.analysis.ode_dt": {"analysis": {"ode_dt": "@"}},
    "$.analysis.ode_horizon": {"analysis": {"ode_horizon": "@"}},
    "$.analysis.limit_tol": {"analysis": {"limit_tol": "@"}},
    "$.analysis.n_sweep[0]": {"analysis": {"n_sweep": ["@"]}},
}
BAD_LITERALS = {"bool": "true", "nan": "NaN", "inf": "Infinity", "huge": "9" * 400}


class TestNumberReader:
    """One reader checks every JSON number: each field rejects a boolean,
    NaN, Infinity and a 400-digit integer at its own anchor."""

    @pytest.mark.parametrize("literal", BAD_LITERALS.values(), ids=BAD_LITERALS.keys())
    @pytest.mark.parametrize("anchor", NUMERIC_FIELDS)
    def test_bad_number(self, tmp_path, anchor, literal):
        data = base_config()
        data.update(NUMERIC_FIELDS[anchor])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data).replace('"@"', literal))
        with pytest.raises(ConfigError, match=re.escape(anchor) + ": ") as exc:
            load_config(str(path))
        assert len(str(exc.value)) < 100


class TestAllocationBounds:
    def test_flow_steps(self, write_cfg):
        data = base_config()
        data["analysis"] = {"ode_dt": 5.0 / _MAX_FLOW_STEPS}
        assert load_config(write_cfg(data)).ode_dt == 5e-7
        data["analysis"] = {"ode_dt": 1e-300}
        expect_error(write_cfg, data, r"\$\.analysis\.ode_dt: a flow to t = 5\.0 takes more than 10000000 steps")
        data["analysis"] = {"ode_horizon": 1e6}
        expect_error(write_cfg, data, r"\$\.analysis\.ode_dt: a flow to t = 1000000\.0 takes more than")

    def test_stride_rows(self, write_cfg):
        data = base_config()
        data["sim"]["record_stride"] = 5.0 / _MAX_FLOW_STEPS
        assert load_config(write_cfg(data)).record_stride == 5e-7
        data["sim"]["record_stride"] = math.nextafter(5e-7, 0.0)
        expect_error(write_cfg, data, r"\$\.sim\.record_stride: a run to t = 5\.0 keeps more than 10000000 stride rows")


M3_GAME = {"type": "congestion", "polynomials": [[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]]}
# (update to base_config, m, whether the topology is complete)
LAW_SHAPES = {
    "m2-complete": ({}, 2, True),
    "m2-network": ({"topology": {"type": "er", "p": 0.5}}, 2, False),
    "m3": ({"game": M3_GAME, "init": {"fractions": [0.4, 0.3, 0.3]}}, 3, True),
}


class TestLawBudget:
    """Population sizes whose law tables would not fit the budget are
    rejected at load time, before anything is built."""

    @pytest.mark.parametrize("shape", LAW_SHAPES)
    @pytest.mark.parametrize("field", ["$.sim.n", "$.analysis.n_sweep[1]"])
    def test_oversized_n_rejected_without_a_table(self, write_cfg, shape, field):
        update, m, complete = LAW_SHAPES[shape]
        cap = _LAW_BUDGET // _law_bytes(m, complete)
        data = base_config()
        data.update(update)

        def with_n(n):
            if field == "$.sim.n":
                data["sim"]["n"] = n
            else:
                data["analysis"] = {"n_sweep": [100, n]}
            return write_cfg(data)

        assert max(load_config(with_n(cap)).n_sweep) in (100, cap)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=re.escape(field) + r": law tables of about \d+ MiB exceed"):
                load_config(with_n(cap + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 < cap  # a law at n = cap + 1 takes about 2**30 bytes

    def test_lattice_side(self, write_cfg):
        side = math.isqrt(_LAW_BUDGET // _law_bytes(2, False))
        data = base_config()
        data["sim"]["n"] = side * side
        data["topology"] = {"type": "lattice", "side": side}
        assert load_config(write_cfg(data)).topology["side"] == side
        data["topology"]["side"] = side + 1
        with pytest.raises(ConfigError, match=rf"\$\.topology\.side: must be <= {side}, got {side + 1}"):
            load_config(write_cfg(data))
        data["sim"]["n"] = (side + 1) ** 2
        with pytest.raises(ConfigError, match=r"\$\.sim\.n: law tables"):
            load_config(write_cfg(data))

    @pytest.mark.parametrize(
        "m, complete, rule",
        [(2, True, "arctan"), (2, False, "replicator"), (3, True, "arctan"), (3, True, "replicator"),
         (8, True, "replicator"), (12, True, "replicator")],
    )
    def test_per_count_bytes_bound_the_traced_peak(self, m, complete, rule):
        # the budget's figures come from ru_maxrss, which also counts the
        # allocator's slack; the traced peak of a law build stays below them
        n = 20_000
        game = example4_game() if m == 2 else make_congestion_game([[0.0, -1.0, 0.5]] * m)
        rule = ArctanRule(K=1.0) if rule == "arctan" else ReplicatorRule(r_lo=-2.0, r_hi=2.0, eps_margin=1e-6)
        tracemalloc.start()
        try:
            law = _Law(game, rule, 1.0, n)
            if m == 2:
                law.walk if complete else law.probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < _law_bytes(m, complete)


SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.json")) + sorted((REPO / "perfbench" / "inputs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=[p.name for p in SHIPPED_CONFIGS])
def test_shipped_config_loads(path):
    cfg = load_config(str(path))
    assert cfg.raw == json.loads(path.read_text())


def test_shipped_configs_found():
    assert len(SHIPPED_CONFIGS) >= 4
