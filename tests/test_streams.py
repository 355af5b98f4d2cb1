"""The random streams of every engine loop, pinned.

Each case is one short run; its digest is sha256 over the float64 bytes of
`times` followed by the int64 bytes of `counts`.  A change to how a loop
draws from its stream, or to the copy probabilities it reads, changes the
digest.  The m = 2 complete loop's stream in particular must stay as it is:
the saddle-exit acceptance check (AC06) is calibrated on it.

The complete-graph loop draws from `random.Random`, read in blocks through
`getrandbits`, which leaves its digests as they were at every m.  The
network loop draws numpy blocks from PCG64 (see `simulate_network`), so the
three network digests also change if a numpy release changes how
`standard_exponential`, `integers` or `random` turn the bit stream into
values.
"""

import hashlib

import numpy as np
import pytest

from imitodyn import (
    PopulationType,
    RunSpec,
    SimConfig,
    arctan_rule,
    erdos_renyi,
    example4_game,
    make_congestion_game,
    replicator_rule,
    reward_bounds,
    run_one,
    square_lattice,
)

DIGESTS = {
    "complete_m2_arctan": "1115aa46cb326e0ae31b281dd00e53ae2f1570df2bd75db6f9a361745dab20a9",
    "complete_m2_congestion": "cc3bccd665ff5620e7bc18dcc58574e8904ad30dac4102bdd546f955be0f20ca",
    "complete_m2_replicator": "d10258571f6885a59560642c439b0e0de35c9a7f2de85f131efe3cd25a943b0d",
    "complete_m3": "65c785987e222b2feb76aa954a638dcc083dc029cc674e037774ec7ff9c13bf3",
    "complete_m4_arctan": "50b644b310ee9cb02f13208186c280bddebada1bac6f719fae29323dac9d83a1",
    "lattice_m2_jumps": "9b8681e940db8d676149afa0990a1ce5cac6c2607f7c3a903ab177a9b0be9c71",
    "er_m3": "24d63879605271ae74374b25f5df39950b941b19b91c7591ebaabdd531e822da",
    "network_m2_replicator": "c37cfed2a053ccab4c4a06e83201c44b423d2fade8d0534416e42e35bbfb5eb6",
}


def _spec(name: str) -> RunSpec:
    g4 = example4_game()
    g3 = make_congestion_game([[1.0, -1.0]] * 3)
    arctan = arctan_rule(1.0)
    rep4 = replicator_rule(*reward_bounds(g4))
    rep3 = replicator_rule(*reward_bounds(g3), 0.01)
    cfg = SimConfig(horizon=3.0, record_stride=0.25)
    if name == "complete_m2_arctan":
        return RunSpec(g4, arctan, cfg, x0=PopulationType.from_fractions(300, [0.4, 0.6]))
    if name == "complete_m2_congestion":
        # r_1 varies with x_1 (example4's is constant), so the tables must be
        # built at x_1 = 1 - k/n, which can differ from (n - k)/n in the last bit
        g2 = make_congestion_game([[1.0, -1.0], [0.5, -2.0, 1.0]])
        return RunSpec(g2, arctan, cfg, x0=PopulationType.from_fractions(300, [0.4, 0.6]))
    if name == "complete_m2_replicator":
        return RunSpec(g4, rep4, cfg, x0=PopulationType.from_fractions(300, [0.4, 0.6]))
    if name == "complete_m3":
        return RunSpec(g3, rep3, cfg, x0=PopulationType.from_fractions(90, [0.6, 0.3, 0.1]))
    if name == "complete_m4_arctan":
        # K_ij != K_ji, so the digest pins the order of the pairs (i, j)
        g4m = make_congestion_game([[1.0, -1.0], [0.5, -2.0, 1.0], [0.25, -0.5], [0.75, -1.5, 0.5]])
        K = [[1.0 + i + 0.5 * j for j in range(4)] for i in range(4)]
        return RunSpec(g4m, arctan_rule(K), cfg, x0=PopulationType.from_fractions(80, [0.4, 0.3, 0.2, 0.1]))
    if name == "lattice_m2_jumps":
        jumps = SimConfig(horizon=3.0, record_stride=0.25, record_jumps=True)
        return RunSpec(g4, arctan, jumps, PopulationType.from_fractions(100, [0.3, 0.7]), square_lattice(10))
    if name == "er_m3":
        return RunSpec(g3, rep3, cfg, PopulationType.from_fractions(90, [0.6, 0.3, 0.1]), erdos_renyi(90, 0.08, seed=3))
    assert name == "network_m2_replicator"
    return RunSpec(g4, rep4, cfg, PopulationType.from_fractions(100, [0.4, 0.6]), erdos_renyi(100, 0.06, seed=5))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_random_streams_are_pinned(name):
    traj = run_one(_spec(name), 7)
    data = np.asarray(traj.times, dtype=np.float64).tobytes() + np.asarray(traj.counts, dtype=np.int64).tobytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
