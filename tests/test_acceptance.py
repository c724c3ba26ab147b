"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 3 and 10 check limit statements ("coherent states are capacity
achieving at high and at low photon number"), so they are pinned to what
the closed forms say about those limits, not to a finite-depth target:

* criterion 3: the outer bound g(eta2*n + y) - g(y) (the point-to-point
  capacity, Giovannetti et al., Nat. Photonics 8, 796 (2014)) and the
  heterodyne rate log2(1 + eta1*eta2*n/(1 + 2y)), with
  y = (1 - eta2)*n_thermal, differ at large n by the constant
  log2((1 + 2y)/eta1) + log2(e) - g(y) bits (2.2223 on the probe
  channel) while both grow like log2(n).  Their ratio therefore tends to
  1 only like 1/log2(n): the gap is 0.081 at n = 1e8 and falls below 0.01
  only past n ~ 5e66.  The test runs the probe out to 1e80 and checks the
  additive constant at the deepest points.
* criterion 10: with a fixed thermal floor every rate involved is linear
  in n at low power, so the heterodyne-to-joint-detection ratio tends to
  1/((1 + 2y) ln(1 + 1/y)) (0.3475 on the probe channel) and the homodyne
  ratio to twice that.  Both plateaus lie below 1, and they fall as the
  thermal floor falls; the ratios vanish only in the pure-loss limit.
"""

import math
import time

import numpy as np
import pytest

from bosonic_mac import (
    CaseThreeConfig,
    ChannelParams,
    PhotonBudget,
    Receiver,
    User,
    build_region,
    heterodyne_sum_rate,
    high_power_heterodyne_probe,
    homodyne_asymptotic_ratio,
    low_power_alice_first_probe,
    low_power_bob_first_probe,
    low_power_simultaneous_probes,
    mac_input_ensemble,
    mac_network,
    max_bob_scale_branch1,
    mc_heterodyne_rate,
    outer_bound,
    propagate,
    receiver_covariance,
    receiver_gap_probes,
    receiver_individual_rates,
    squeeze_surface,
    squeezing_cost,
)
from bosonic_mac import _kernels
from bosonic_mac.asymptotics import DEFAULT_CHANNEL
from bosonic_mac.region import global_constraint_scan
from bosonic_mac.verification import branch_crossing

SURFACE_CHANNEL = ChannelParams(0.2, 0.9, 4.0)
REGION_CHANNEL = ChannelParams(0.25, 0.9, 1.0)
REGION_BUDGET = PhotonBudget(1.0, 1000.0)

#: 10^0 .. 10^80: deep enough for the 1/log2(n) approach of criterion 3 to
#: reach its 0.01 tolerance (it does so past n ~ 5e66).
HIGH_POWER_SCHEDULE = tuple(10.0 ** k for k in range(0, 81, 10))


def thermal_floor(params):
    return (1.0 - params.eta2) * params.n_thermal


def heterodyne_additive_gap(params):
    """Large-n limit of outer bound minus heterodyne rate, in bits."""
    y = thermal_floor(params)
    g_y = (1.0 + y) * math.log2(1.0 + y) - y * math.log2(y)
    return math.log2((1.0 + 2.0 * y) / params.eta1) + math.log2(math.e) - g_y


def heterodyne_low_power_plateau(params):
    """Low-power limit of the heterodyne-to-joint-detection ratio."""
    y = thermal_floor(params)
    return 1.0 / ((1.0 + 2.0 * y) * math.log(1.0 + 1.0 / y))


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}  {detail}")


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        params = ChannelParams(
            float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), float(rng.uniform(0, 5))
        )
        r_a, r_b = (float(v) for v in rng.uniform(-3, 3, size=2))
        budget = PhotonBudget(
            squeezing_cost(r_a) + float(rng.uniform(0, 10)),
            squeezing_cost(r_b) + float(rng.uniform(0, 10)),
            r_a,
            r_b,
        )
        closed = receiver_covariance(budget, params)
        net = mac_network(params, eta3=float(rng.uniform(0, 1)))
        got = propagate(net, mac_input_ensemble(params, budget)).receiver_covariance()
        scale = max(closed.v11, closed.v22)
        err = max(
            abs(got.v11 - closed.v11), abs(got.v22 - closed.v22), abs(got.v12)
        ) / scale
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-10 and elapsed < 5.0
    report(1, "oracle equivalence", passed,
           f"max rel err {worst:.2e} over 1000 draws in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_monte_carlo_heterodyne():
    start = time.perf_counter()
    est = mc_heterodyne_rate(REGION_CHANNEL, REGION_BUDGET, 1_000_000, seed=77)
    again = mc_heterodyne_rate(REGION_CHANNEL, REGION_BUDGET, 1_000_000, seed=77)
    closed = heterodyne_sum_rate(REGION_CHANNEL, REGION_BUDGET)
    elapsed = time.perf_counter() - start
    diff = abs(est.rate - closed)
    passed = diff <= 3 * est.std_error and est == again and elapsed < 30.0
    report(2, "monte-carlo heterodyne", passed,
           f"estimate {est.rate:.6f} +/- {est.std_error:.6f}, closed form {closed:.6f}, "
           f"|diff| {diff:.6f} <= 3se {3 * est.std_error:.6f}, {elapsed:.1f}s")
    assert est == again, "same seed must reproduce bit-identical estimates"
    assert diff <= 3 * est.std_error
    assert elapsed < 30.0


def test_criterion_03_high_power_heterodyne_ratio():
    start = time.perf_counter()
    probe = high_power_heterodyne_probe(DEFAULT_CHANNEL, schedule=HIGH_POWER_SCHEDULE)
    elapsed = time.perf_counter() - start
    expected = heterodyne_additive_gap(DEFAULT_CHANNEL)
    additive = []
    for n in probe.schedule[-probe.monotone_points:]:
        budget = PhotonBudget(n, 0.0)
        additive.append(
            outer_bound(DEFAULT_CHANNEL, budget, User.ALICE)
            - receiver_individual_rates(DEFAULT_CHANNEL, budget, Receiver.HETERODYNE, User.ALICE)
        )
    worst = max(abs(d - expected) for d in additive)
    passed = (
        probe.target == 1.0 and probe.tolerance == 0.01 and probe.gap < 0.01
        and probe.monotone_approach and worst < 1e-9 and elapsed < 1.0
    )
    report(3, "high-power heterodyne ratio", passed,
           f"ratio({probe.schedule[-1]:.0e}) {probe.ratios[-1]:.6f}, gap {probe.gap:.4f} "
           f"vs 0.01, monotone {probe.monotone_approach}; bound - heterodyne "
           f"{additive[-1]:.6f} bits vs closed form {expected:.6f} "
           f"(|diff| {worst:.1e}), so the gap closes like 1/log2(n)")
    assert probe.target == 1.0 and probe.tolerance == 0.01
    assert probe.monotone_approach
    assert elapsed < 1.0
    assert probe.gap < 0.01
    assert worst < 1e-9


def test_criterion_04_homodyne_half_limit():
    start = time.perf_counter()
    ratio, r_a = homodyne_asymptotic_ratio(1e6, 1e6, DEFAULT_CHANNEL)
    elapsed = time.perf_counter() - start
    gap = abs(ratio - 0.5)
    passed = gap < 0.05 and elapsed < 5.0
    report(4, "homodyne half limit", passed,
           f"optimized ratio {ratio:.6f} at n_a = n_b = 1e6 (r_a* = {r_a:.3f}), "
           f"gap {gap:.4f} < 0.05, {elapsed:.2f}s")
    assert gap < 0.05
    assert elapsed < 5.0


def test_criterion_05_low_power_cases():
    start = time.perf_counter()
    case1 = low_power_bob_first_probe(DEFAULT_CHANNEL)
    case2 = low_power_alice_first_probe(DEFAULT_CHANNEL)
    case3a, case3b = low_power_simultaneous_probes(
        CaseThreeConfig(kappa=1.0), DEFAULT_CHANNEL
    )

    b = max_bob_scale_branch1(1.0, DEFAULT_CHANNEL.eta1, 1e-3)
    r_b = math.asinh(math.sqrt(b * 1e-3))
    v1, v2 = _kernels.receiver_variances(
        DEFAULT_CHANNEL.eta1, DEFAULT_CHANNEL.eta2, DEFAULT_CHANNEL.n_thermal, 0.0, r_b
    )
    n_ca = DEFAULT_CHANNEL.eta1 * DEFAULT_CHANNEL.eta2 * 1e-3
    root_residual = abs(n_ca - abs(v1 - v2)) / n_ca
    elapsed = time.perf_counter() - start

    gaps = {p.name: p.gap for p in (case1, case2, case3a, case3b)}
    branch2_active = all(bb == 2 for bb in case2.metadata["branches"])
    passed = (
        all(g < 0.01 for g in gaps.values())
        and branch2_active
        and root_residual < 1e-9
        and elapsed < 10.0
    )
    report(5, "low-power cases", passed,
           f"gaps {({k: f'{v:.2e}' for k, v in gaps.items()})}, "
           f"branch2 active {branch2_active}, bound residual {root_residual:.2e}, "
           f"{elapsed:.2f}s")
    for probe in (case1, case2, case3a, case3b):
        assert probe.gap < 0.01, probe.name
        assert probe.converged, probe.name
    assert branch2_active
    assert root_residual < 1e-9
    assert elapsed < 10.0


def test_criterion_06_squeezing_advantage():
    start = time.perf_counter()
    surf = squeeze_surface(SURFACE_CHANNEL, PhotonBudget(4.0, 8.0), grid_n=33)
    best, signs, p_a, p_b = surf.max_alice_rate()
    coherent = surf.coherent_cell()[0]
    margin = best - coherent
    elapsed = time.perf_counter() - start
    passed = margin > 0.0 and elapsed < 5.0
    report(6, "squeezing advantage", passed,
           f"max alice rate {best:.6f} at p_a={p_a:.4f}, p_b={p_b:.4f}, signs {signs}; "
           f"coherent {coherent:.6f}; margin {margin:.6f}, {elapsed:.2f}s")
    assert margin > 0.0
    assert elapsed < 5.0


def test_criterion_07_global_constraint_optimality():
    start = time.perf_counter()
    scan = global_constraint_scan(SURFACE_CHANNEL, 12.0, s_points=101, fraction_points=33)
    elapsed = time.perf_counter() - start
    alice = scan.best["alice"]
    passed = (
        scan.sum_argmax_coherent
        and scan.alice_argmax_full_allocation
        and elapsed < 10.0
    )
    report(7, "global-constraint optimality", passed,
           f"sum argmax (s={scan.best['sum'].s:.2f}, p_a={scan.best['sum'].p_a}, "
           f"p_b={scan.best['sum'].p_b}); alice argmax (s={alice.s}, p_a={alice.p_a}); "
           f"{elapsed:.2f}s")
    assert scan.sum_argmax_coherent
    assert scan.alice_argmax_full_allocation
    assert elapsed < 10.0


def test_criterion_08_region_sanity():
    start = time.perf_counter()
    data = build_region(REGION_CHANNEL, REGION_BUDGET, [(0.0, 0.0), (0.0, 3.0)])
    coherent = data.pentagons[0][1]
    max_ra = max(v.r_a for v in data.region.hull)
    ub_a, ub_b = data.outer_bound
    inside_box = all(
        v.r_a <= ub_a + 1e-12 and v.r_b <= ub_b + 1e-12 for v in data.region.hull
    )
    receivers_inside = all(
        coherent.contains(v, tol=1e-9)
        for pent in (data.heterodyne, data.homodyne)
        for v in pent.vertices
    )
    elapsed = time.perf_counter() - start
    passed = (
        max_ra > coherent.r_a_max and inside_box and receivers_inside and elapsed < 2.0
    )
    report(8, "region sanity", passed,
           f"hull extends r_a to {max_ra:.6f} beyond coherent {coherent.r_a_max:.6f}; "
           f"inside outer box {inside_box}; receiver pentagons inside {receivers_inside}; "
           f"{elapsed:.2f}s")
    assert max_ra > coherent.r_a_max
    assert inside_box
    assert receivers_inside
    assert elapsed < 2.0


def test_criterion_09_piecewise_continuity():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    found = 0
    while found < 10:
        params = ChannelParams(
            float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(0.0, 5.0)),
        )
        n_a = float(rng.uniform(0.5, 10.0))
        r_b = float(rng.uniform(-1.0, 1.0))
        n_b = squeezing_cost(r_b) + float(rng.uniform(0.0, 2.0))
        r_cross = branch_crossing(params, n_a, n_b, r_b)
        if r_cross is None:
            continue
        found += 1
        v1, v2 = _kernels.receiver_variances(
            params.eta1, params.eta2, params.n_thermal, r_cross, r_b
        )
        n = params.eta1 * params.eta2 * _kernels.displacement_photons(n_a, r_cross)
        g2 = _kernels.big_g2_raw(v1, v2)
        branch1 = _kernels.big_g11_raw(n, v1, v2) - g2
        branch2 = _kernels.big_g12_raw(n, v1, v2) - g2
        worst = max(worst, abs(branch1 - branch2))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 1.0
    report(9, "piecewise continuity", passed,
           f"max |branch1 - branch2| {worst:.2e} at 10 crossings, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_10_low_power_receiver_gap():
    start = time.perf_counter()
    het, hom = receiver_gap_probes(DEFAULT_CHANNEL)
    elapsed = time.perf_counter() - start
    decreasing = all(
        b < a for a, b in zip(het.ratios[1:], het.ratios[2:])
    ) and all(b < a for a, b in zip(hom.ratios[1:], hom.ratios[2:]))
    het_final, hom_final = het.ratios[-1], hom.ratios[-1]
    het_plateau = heterodyne_low_power_plateau(DEFAULT_CHANNEL)
    hom_plateau = 2.0 * het_plateau
    het_err = abs(het_final / het_plateau - 1.0)
    hom_err = abs(hom_final / hom_plateau - 1.0)
    # The plateau falls with the thermal floor (n_thermal = 1, 0.1, 0.01).
    floors = [
        ChannelParams(DEFAULT_CHANNEL.eta1, DEFAULT_CHANNEL.eta2, nt)
        for nt in (1.0, 0.1, 0.01)
    ]
    floor_finals = [receiver_gap_probes(p)[0].ratios[-1] for p in floors]
    floor_errs = [
        abs(f / heterodyne_low_power_plateau(p) - 1.0) for f, p in zip(floor_finals, floors)
    ]
    falling = all(b < a for a, b in zip(floor_finals, floor_finals[1:]))
    passed = (
        decreasing and het_err < 1e-5 and hom_err < 1e-5 and hom_plateau < 1.0
        and falling and max(floor_errs) < 1e-4 and elapsed < 1.0
    )
    report(10, "low-power receiver gap", passed,
           f"at n = {het.schedule[-1]:.0e}: het {het_final:.6f} vs closed form "
           f"{het_plateau:.6f}, hom {hom_final:.6f} vs closed form {hom_plateau:.6f} "
           f"(rel err {het_err:.1e}, {hom_err:.1e}); decreasing {decreasing}; het "
           f"plateau at n_thermal 1, 0.1, 0.01: "
           + ", ".join(f"{f:.4f}" for f in floor_finals))
    assert decreasing
    assert elapsed < 1.0
    assert het_err < 1e-5 and hom_err < 1e-5
    assert het_plateau < 1.0 and hom_plateau < 1.0
    assert falling
    # Smaller floors need smaller n to reach the linear regime: rel 3.2e-5
    # at n_thermal = 0.01 and n = 1e-6.
    assert max(floor_errs) < 1e-4
