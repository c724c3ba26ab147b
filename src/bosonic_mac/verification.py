"""Self-contained cross-checks driving the network oracle against the
closed forms.  Used by the ``verify`` CLI subcommand and the test suite."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .gaussian_core import ChannelParams, PhotonBudget, receiver_covariance
from .network import mac_input_ensemble, mac_network, mc_heterodyne_rate, propagate
from .rates import (
    Receiver,
    User,
    heterodyne_sum_rate,
    outer_bound,
    receiver_rates,
)
from .region import Pentagon, pentagon_at


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


#: Bounds of the uniform channel draws, in draw order: eta1, eta2, n_thermal.
_CHANNEL_LOW = (0.02, 0.02, 0.0)
_CHANNEL_HIGH = (0.98, 0.98, 5.0)


def _draw_channel(rng) -> ChannelParams:
    return ChannelParams(*(
        float(rng.uniform(low, high)) for low, high in zip(_CHANNEL_LOW, _CHANNEL_HIGH)
    ))


#: Bounds of the uniform draws of one covariance-oracle case, in draw
#: order: the channel's, r_a, r_b, Alice's and Bob's photons on top of
#: their squeezing cost, and the environment coupling eta3.
_ORACLE_LOW = (*_CHANNEL_LOW, -3.0, -3.0, 0.0, 0.0, 0.0)
_ORACLE_HIGH = (*_CHANNEL_HIGH, 3.0, 3.0, 10.0, 10.0, 1.0)


def check_covariance_oracle(seed: int, draws: int, tolerance: float = 1e-10) -> CheckResult:
    """Closed-form receiver covariance against the propagated network marginal.

    All uniform draws come from one array call.  A Generator fills the
    array in C order, each entry low + (high - low) * u from the next
    double u of the stream, the same arithmetic on the same doubles as a
    scalar ``rng.uniform(low, high)`` call.  So row k holds the values
    that case k drew one call at a time, in the order of ``_ORACLE_LOW``.
    """
    rng = np.random.default_rng(seed)
    cases = rng.uniform(_ORACLE_LOW, _ORACLE_HIGH, size=(max(draws, 0), 8))
    worst = 0.0
    # Row by row: converting the whole array at once holds 8 Python floats
    # per draw, about 0.4 MB more peak memory at 1,000 draws.
    for case in cases:
        eta1, eta2, n_thermal, r_a, r_b, extra_a, extra_b, eta3 = case.tolist()
        params = ChannelParams(eta1, eta2, n_thermal)
        budget = PhotonBudget(
            kernels.squeezing_cost(r_a) + extra_a, kernels.squeezing_cost(r_b) + extra_b, r_a, r_b
        )
        closed = receiver_covariance(budget, params)
        net = mac_network(params, eta3=eta3)
        oracle = propagate(net, mac_input_ensemble(params, budget)).receiver_covariance()
        scale = max(closed.v11, closed.v22)
        err = max(
            abs(closed.v11 - oracle.v11), abs(closed.v22 - oracle.v22), abs(oracle.v12)
        ) / scale
        worst = max(worst, err)
    return CheckResult(
        "covariance-oracle",
        worst < tolerance,
        {"draws": draws, "max_relative_error": worst, "tolerance": tolerance},
    )


def check_mc_heterodyne(
    seed: int, num_samples: int, sigma_bound: float = 3.0
) -> CheckResult:
    """Monte-Carlo sampler against the closed-form dual-quadrature rate."""
    params = ChannelParams(0.25, 0.9, 1.0)
    budget = PhotonBudget(1.0, 1000.0)
    estimate = mc_heterodyne_rate(params, budget, num_samples, seed)
    closed = heterodyne_sum_rate(params, budget)
    diff = abs(estimate.rate - closed)
    return CheckResult(
        "mc-heterodyne",
        diff <= sigma_bound * estimate.std_error,
        {
            "samples": num_samples,
            "estimate": estimate.rate,
            "std_error": estimate.std_error,
            "closed_form": closed,
            "difference": diff,
            "sigma_bound": sigma_bound,
        },
    )


def branch_crossing(params: ChannelParams, n_a: float, n_b: float, r_b: float):
    """Alice squeezing at which her received photons equal the variance
    asymmetry, found by bisection; None when there is no sign change."""

    def gap(r_a):
        v1, v2 = kernels.receiver_variances(
            params.eta1, params.eta2, params.n_thermal, r_a, r_b
        )
        n = params.eta1 * params.eta2 * kernels.displacement_photons(n_a, r_a)
        return n - abs(v1 - v2)

    lo, hi = 0.0, math.asinh(math.sqrt(n_a))
    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # lo only ever moves to points where gap > 0 and hi to points where
        # it is not, so once the midpoint equals an end, every later step
        # gives that end its own value again.
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_piecewise_continuity(
    seed: int, draws: int = 10, tolerance: float = 1e-9
) -> CheckResult:
    """Both branch expressions agree where the branch condition crosses."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    found = 0
    while found < draws:
        params = _draw_channel(rng)
        n_a = float(rng.uniform(0.5, 10.0))
        n_b = float(rng.uniform(0.0, 5.0))
        r_b = float(rng.uniform(-1.0, 1.0))
        if kernels.squeezing_cost(r_b) > n_b:
            continue
        r_cross = branch_crossing(params, n_a, n_b, r_b)
        if r_cross is None:
            continue
        found += 1
        v1, v2 = kernels.receiver_variances(
            params.eta1, params.eta2, params.n_thermal, r_cross, r_b
        )
        n = params.eta1 * params.eta2 * kernels.displacement_photons(n_a, r_cross)
        g2 = kernels.big_g2_raw(v1, v2)
        branch1 = kernels.big_g11_raw(n, v1, v2) - g2
        branch2 = kernels.big_g12_raw(n, v1, v2) - g2
        worst = max(worst, abs(branch1 - branch2))
    return CheckResult(
        "piecewise-continuity",
        worst < tolerance,
        {"draws": draws, "max_branch_difference": worst, "tolerance": tolerance},
    )


def check_containment(seed: int, draws: int, tolerance: float = 1e-9) -> CheckResult:
    """Pentagons sit inside the outer-bound box; receiver pentagons sit
    inside the joint-detection pentagon of the same coherent encoding."""
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(draws):
        params = _draw_channel(rng)
        budget = PhotonBudget(float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.0, 20.0)))
        pent = pentagon_at(params, budget)
        box_a = outer_bound(params, budget, User.ALICE)
        box_b = outer_bound(params, budget, User.BOB)
        excess = max(pent.r_a_max - box_a, pent.r_b_max - box_b, 0.0)
        het = Pentagon.from_rates(*receiver_rates(params, budget, Receiver.HETERODYNE))
        excess = max(
            excess,
            het.r_a_max - pent.r_a_max,
            het.r_b_max - pent.r_b_max,
            het.sum_max - pent.sum_max,
        )
        worst = max(worst, excess)
        ok = ok and excess <= tolerance
    return CheckResult(
        "containment",
        ok,
        {"draws": draws, "max_excess": worst, "tolerance": tolerance},
    )


def run_all(seed: int, draws: int, tolerance_override: float | None = None):
    """Run every check; ``tolerance_override`` replaces each default
    threshold (a zero override is the standard negative control)."""

    def tol(default):
        return default if tolerance_override is None else tolerance_override

    return [
        check_covariance_oracle(seed, draws, tolerance=tol(1e-10)),
        check_mc_heterodyne(
            seed + 1, max(10_000, 100 * draws), sigma_bound=tol(3.0)
        ),
        check_piecewise_continuity(seed + 2, tolerance=tol(1e-9)),
        check_containment(seed + 3, max(10, draws // 10), tolerance=tol(1e-9)),
    ]
