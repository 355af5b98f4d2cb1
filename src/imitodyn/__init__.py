"""Stochastic imitation dynamics on potential population games.

Exact event-driven simulation of pairwise imitation on complete and general
interaction graphs, the matching mean-field flow, and potential-landscape
analysis (equilibrium classification, absorption and metastability metrics).
"""

from .games import (
    Game,
    PopulationType,
    Configuration,
    make_congestion_game,
    example4_game,
    reward_bounds,
)
from .rules import (
    ImitationRule,
    ArctanRule,
    ReplicatorRule,
    arctan_rule,
    replicator_rule,
)
from .topology import Graph, complete, erdos_renyi, square_lattice, from_edge_list
from .engine import (
    SimConfig,
    Trajectory,
    DriftRates,
    RunSpec,
    simulate_complete,
    simulate_network,
    potential_drift_rates,
    run_one,
    ensemble,
    derive_seed,
)
from .meanfield import (
    OdeTrajectory,
    LimitResult,
    mean_field_rhs,
    integrate,
    find_limit,
    kurtz_deviation,
)
from .landscape import (
    CriticalPoint,
    LandscapeWarning,
    critical_point_to_dict,
    find_critical_points_multi,
    ess_set,
    time_near_set,
    exit_time,
    metastability_report,
)
from .config import ConfigError, ExperimentConfig, load_config
from .output import write_trajectory_csv, write_json, run_summary

__version__ = "0.1.0"

__all__ = [
    "Game",
    "PopulationType",
    "Configuration",
    "make_congestion_game",
    "example4_game",
    "reward_bounds",
    "ImitationRule",
    "ArctanRule",
    "ReplicatorRule",
    "arctan_rule",
    "replicator_rule",
    "Graph",
    "complete",
    "erdos_renyi",
    "square_lattice",
    "from_edge_list",
    "SimConfig",
    "Trajectory",
    "DriftRates",
    "RunSpec",
    "simulate_complete",
    "simulate_network",
    "potential_drift_rates",
    "run_one",
    "ensemble",
    "derive_seed",
    "OdeTrajectory",
    "LimitResult",
    "mean_field_rhs",
    "integrate",
    "find_limit",
    "kurtz_deviation",
    "CriticalPoint",
    "LandscapeWarning",
    "critical_point_to_dict",
    "find_critical_points_multi",
    "ess_set",
    "time_near_set",
    "exit_time",
    "metastability_report",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "write_trajectory_csv",
    "write_json",
    "run_summary",
]
