"""Acceptance checks: desk-scale reproductions of the package's headline
phenomenology plus always-on validity properties.

Each check prints one `[ACnn] PASS/FAIL` line with its measured numbers and
elapsed time (visible in the `-rA` summary).  Criteria 3-7 and 11 are Monte
Carlo: seeds are fixed, so results are exactly reproducible.
"""

import time

import numpy as np
from scipy import stats

from imitodyn import (
    PopulationType,
    RunSpec,
    SimConfig,
    arctan_rule,
    complete,
    derive_seed,
    erdos_renyi,
    example4_game,
    exit_time,
    find_critical_points_multi,
    find_limit,
    integrate,
    kurtz_deviation,
    mean_field_rhs,
    potential_drift_rates,
    replicator_rule,
    reward_bounds,
    run_one,
    square_lattice,
    time_near_set,
)
from conftest import transition_rates

GAME = example4_game()
RULE = arctan_rule(1.0)
SADDLE = np.array([0.25, 0.75])
PEAK = np.array([0.75, 0.25])


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    line = f"[AC{num:02d}] {'PASS' if ok else 'FAIL'} - {detail} ({time.perf_counter() - t0:.1f}s)"
    print(line)
    assert ok, line


def _complete_spec(n: int, x1: float, horizon: float, **cfg_kwargs) -> RunSpec:
    return RunSpec(
        game=GAME,
        rule=RULE,
        cfg=SimConfig(horizon=horizon, seed=0, **cfg_kwargs),
        x0=PopulationType.from_fractions(n, [x1, 1.0 - x1]),
    )


def test_ac01_landscape_of_reference_game():
    t0 = time.perf_counter()
    pts = find_critical_points_multi(GAME)
    elapsed = time.perf_counter() - t0

    locs = [float(p.x[0]) for p in pts]
    kinds = [p.kind for p in pts]
    ess = [p.x[0] for p in pts if p.is_ess]
    ok = (
        len(pts) == 4
        and all(abs(a - b) < 1e-6 for a, b in zip(locs, (0.0, 0.25, 0.75, 1.0)))
        and kinds == ["local_min", "saddle_or_degenerate", "local_max", "local_min"]
        and len(ess) == 1
        and abs(ess[0] - 0.75) < 1e-6
        and elapsed < 1.0
    )
    _report(1, ok, f"critical points at {[round(v, 8) for v in locs]}, kinds {kinds}", t0)


def test_ac02_flow_basin_split():
    t0 = time.perf_counter()
    results = {}
    for x1 in (0.05, 0.20, 0.24, 0.26, 0.30, 0.90):
        res = find_limit(GAME, RULE, np.array([x1, 1.0 - x1]))
        results[x1] = res.x[0]
    low_ok = all(abs(results[x] - 0.25) < 1e-4 for x in (0.05, 0.20, 0.24))
    high_ok = all(abs(results[x] - 0.75) < 1e-4 for x in (0.26, 0.30, 0.90))
    elapsed = time.perf_counter() - t0
    ok = low_ok and high_ok and elapsed < 5.0
    detail = ", ".join(f"{k}->{v:.6f}" for k, v in results.items())
    _report(2, ok, f"limits {detail}", t0)


def test_ac03_two_phase_metastable_path():
    t0 = time.perf_counter()
    spec = _complete_spec(2500, 0.001, horizon=200.0)
    good = 0
    for i in range(50):
        traj = run_one(spec, derive_seed(301, i))
        x1 = traj.fractions[:, 0]
        near_saddle = np.abs(x1 - 0.25) < 0.05
        if not near_saddle.any():
            continue
        first = int(np.argmax(near_saddle))
        reached_peak = np.abs(x1[first:] - 0.75) < 0.05
        ends_there = traj.absorbed_at is None and abs(x1[-1] - 0.75) < 0.05
        if reached_peak.any() and ends_there:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good >= 40 and elapsed < 300.0
    _report(3, ok, f"two-phase saddle-then-peak paths: {good}/50 runs", t0)


def test_ac04_occupation_near_stable_point():
    t0 = time.perf_counter()
    spec = _complete_spec(2500, 0.3, horizon=200.0)
    fractions = []
    for i in range(100):
        traj = run_one(spec, derive_seed(401, i))
        fractions.append(time_near_set(traj, [PEAK], gamma=0.05, norm="sup"))
    med = float(np.median(fractions))
    elapsed = time.perf_counter() - t0
    ok = med >= 0.9 and elapsed < 300.0
    _report(4, ok, f"median occupation within 0.05 of the stable point: {med:.4f}", t0)


def test_ac05_absorption_fraction_vs_population():
    t0 = time.perf_counter()
    sizes = (50, 100, 200, 400)
    fractions = []
    for n in sizes:
        spec = _complete_spec(n, 0.3, horizon=1000.0)
        absorbed = sum(
            run_one(spec, derive_seed(501, (n, i))).absorbed_at is not None for i in range(50)
        )
        fractions.append(absorbed / 50.0)
    monotone = all(a >= b for a, b in zip(fractions, fractions[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and fractions[-1] == 0.0 and elapsed < 600.0
    detail = ", ".join(f"n={n}: {f:.2f}" for n, f in zip(sizes, fractions))
    _report(5, ok, f"absorbed fraction {detail}", t0)


def test_ac06_saddle_exit_time_growth():
    # The median over all runs stays exact under right-censoring as long as
    # fewer than half the runs are censored (censored dwell counts as +inf);
    # dropping censored runs instead would bias the large-n medians low.
    t0 = time.perf_counter()
    sizes = (400, 1600, 6400)
    seeds = 500
    medians = []
    for n in sizes:
        spec = _complete_spec(n, 0.25, horizon=100.0)
        dwells = []
        for i in range(seeds):
            traj = run_one(spec, derive_seed(601, (n, i)))
            ex = exit_time(traj, SADDLE, delta=0.1, norm="sup")
            dwells.append(np.inf if ex is None else ex)
        censored = int(np.sum(np.isinf(dwells)))
        assert censored < seeds // 2, f"n={n}: median censored ({censored}/{seeds})"
        medians.append(float(np.median(dwells)))
    slope = float(np.polyfit(np.log([n * np.log(n) for n in sizes]), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = 0.3 <= slope <= 3.0 and elapsed < 900.0
    detail = ", ".join(f"n={n}: {m:.2f}" for n, m in zip(sizes, medians))
    _report(6, ok, f"median exit times {detail}; log-log slope vs n*ln(n) = {slope:.3f}", t0)


def test_ac07_flow_tracking_concentration():
    t0 = time.perf_counter()
    ode = integrate(GAME, RULE, np.array([0.3, 0.7]), T=30.0, dt=0.01)
    medians = {}
    for n in (2500, 25000):
        spec = _complete_spec(n, 0.3, horizon=30.0)
        devs = [
            kurtz_deviation(run_one(spec, derive_seed(701, (n, i))), ode, T=30.0)
            for i in range(50)
        ]
        medians[n] = float(np.median(devs))
    elapsed = time.perf_counter() - t0
    ok = medians[25000] < medians[2500] and medians[25000] < 0.05 and elapsed < 600.0
    _report(
        7,
        ok,
        f"median sup-deviation from the flow: n=2500: {medians[2500]:.4f}, "
        f"n=25000: {medians[25000]:.4f}",
        t0,
    )


def test_ac08_drift_split_inequality():
    t0 = time.perf_counter()
    n = 15000
    centers = np.array([0.0, 0.25, 0.75, 1.0])
    checked = 0
    violations = 0
    for k in range(n + 1):
        x1 = k / n
        if np.min(np.abs(x1 - centers)) <= 0.05:
            continue
        dr = potential_drift_rates(GAME, RULE, PopulationType(counts=np.array([k, n - k])))
        checked += 1
        if dr.q_plus < dr.q_minus:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 10_000 and violations == 0 and elapsed < 10.0
    _report(8, ok, f"{violations} drift violations over {checked} states off fixed points", t0)


def test_ac09_affine_rule_matches_replicator_field():
    t0 = time.perf_counter()
    lo, hi = reward_bounds(GAME)
    rule = replicator_rule(lo, hi, eps_margin=0.0)
    c = 1.0 / (hi - lo)
    lam = 1.3
    rng = np.random.default_rng(901)
    worst = 0.0
    for _ in range(100):
        x = rng.dirichlet(np.ones(GAME.m))
        lhs = mean_field_rhs(GAME, rule, x, lam)
        r = GAME.rewards_at(x)
        rhs = lam * c * x * (r - float(x @ r))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst < 1e-10
    _report(9, ok, f"max |field - lam*c*x_i*(r_i - x.r)| = {worst:.2e} over 100 points", t0)


def test_ac10_small_chain_jump_distribution():
    t0 = time.perf_counter()
    n = 4
    graph = complete(n)
    up = np.zeros(n + 1)
    total = np.zeros(n + 1)
    spec = RunSpec(
        game=GAME,
        rule=RULE,
        cfg=SimConfig(horizon=50.0, seed=0, record_jumps=True),
        x0=PopulationType.from_fractions(n, (0.5, 0.5)),
        graph=graph,
    )
    flips = 0
    run = 0
    while flips < 100_000:
        traj = run_one(spec, derive_seed(1001, run))
        run += 1
        heads = traj.counts[:, 0]
        step = np.diff(heads)
        moved = step != 0
        pre = heads[:-1][moved]
        np.add.at(total, pre, 1)
        np.add.at(up, pre[step[moved] > 0], 1)
        flips += int(moved.sum())

    chi2 = 0.0
    per_state = []
    for k in (1, 2, 3):
        rates = transition_rates(GAME, RULE, PopulationType(counts=np.array([k, n - k])))
        p_up = rates[1, 0] / (rates[1, 0] + rates[0, 1])
        expect = total[k] * p_up
        var = total[k] * p_up * (1.0 - p_up)
        z2 = (up[k] - expect) ** 2 / var
        chi2 += z2
        per_state.append(f"k={k}: {up[k]:.0f}/{total[k]:.0f} vs p={p_up:.3f}")
    p_value = float(stats.chi2.sf(chi2, df=3))
    elapsed = time.perf_counter() - t0
    ok = p_value > 0.01 and elapsed < 120.0
    _report(10, ok, f"{flips} jumps over {run} runs; chi2={chi2:.2f}, p={p_value:.3f}", t0)


def test_ac11_network_topologies_reach_stable_mix():
    t0 = time.perf_counter()
    results = {}
    cfg = SimConfig(horizon=100.0, seed=0)

    hits = 0
    x0 = PopulationType.from_fractions(5000, (0.3, 0.7))
    for i in range(10):
        seed = derive_seed(1101, i)
        graph = erdos_renyi(5000, 0.02, seed=derive_seed(seed, "graph"))
        spec = RunSpec(game=GAME, rule=RULE, cfg=cfg, x0=x0, graph=graph)
        traj = run_one(spec, seed)
        if abs(traj.fractions[-1, 0] - 0.75) < 0.1:
            hits += 1
    results["er"] = hits

    lattice = square_lattice(71, periodic=True)
    x0 = PopulationType.from_fractions(lattice.n, (0.3, 0.7))
    hits = 0
    for i in range(10):
        spec = RunSpec(game=GAME, rule=RULE, cfg=cfg, x0=x0, graph=lattice)
        traj = run_one(spec, derive_seed(1102, i))
        if abs(traj.fractions[-1, 0] - 0.75) < 0.1:
            hits += 1
    results["lattice"] = hits

    elapsed = time.perf_counter() - t0
    ok = results["er"] >= 8 and results["lattice"] >= 8 and elapsed < 900.0
    _report(
        11,
        ok,
        f"runs ending within 0.1 of the stable mix: er {results['er']}/10, "
        f"lattice {results['lattice']}/10",
        t0,
    )


def test_ac12_validity_suite():
    t0 = time.perf_counter()
    problems = []

    ode = integrate(GAME, RULE, np.array([0.05, 0.95]), T=40.0, dt=0.01)
    sums = np.abs(ode.states.sum(axis=1) - 1.0)
    if sums.max() >= 1e-9 or ode.states.min() < -1e-12:
        problems.append(f"simplex drift {sums.max():.2e}")

    phis = np.array([GAME.potential(x) for x in ode.states])
    if np.diff(phis).min() <= -1e-8:
        problems.append(f"potential decreased by {-np.diff(phis).min():.2e}")

    lam = 2.0
    for k in range(0, 101, 5):
        state = PopulationType(counts=np.array([k, 100 - k]))
        rates = transition_rates(GAME, RULE, state, lam=lam)
        if rates.sum() > 100 * lam * (1.0 + 1e-12):
            problems.append(f"rate bound broken at k={k}")

    spec = _complete_spec(200, 0.3, horizon=20.0)
    a = run_one(spec, derive_seed(1201, 0))
    b = run_one(spec, derive_seed(1201, 0))
    if a.times.tobytes() != b.times.tobytes() or a.counts.tobytes() != b.counts.tobytes():
        problems.append("complete-graph rerun not byte-identical")

    net = RunSpec(
        game=GAME,
        rule=RULE,
        cfg=SimConfig(horizon=5.0, seed=0),
        x0=PopulationType.from_fractions(50, (0.5, 0.5)),
        graph=erdos_renyi(50, 0.2, seed=3),
    )
    c = run_one(net, derive_seed(1201, 1))
    d = run_one(net, derive_seed(1201, 1))
    if c.times.tobytes() != d.times.tobytes() or c.counts.tobytes() != d.counts.tobytes():
        problems.append("network rerun not byte-identical")

    ok = not problems
    _report(12, ok, "simplex/rate/monotonicity/determinism: " + ("; ".join(problems) or "all hold"), t0)
