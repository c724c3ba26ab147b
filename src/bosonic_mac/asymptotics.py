"""Numerical verification of the asymptotic optimality claims.

Each probe evaluates a rate ratio along a fixed geometric photon-number
schedule and certifies convergence to its target: the gap at the deepest
point must fall below a per-probe tolerance and the approach must be
monotone over the last few points.  Double limits are taken as nested
schedules with the inner variable evaluated a fixed factor deeper than the
outer one.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

from . import _kernels as kernels
from ._search import golden_section_max
from .gaussian_core import ChannelParams, InputError, PhotonBudget, receiver_covariance
from .rates import (
    Receiver,
    User,
    _require_receiver,
    big_g12,
    individual_rate,
    outer_bound,
    point_to_point,
    receiver_individual_rates,
)

DEFAULT_CHANNEL = ChannelParams(eta1=0.5, eta2=0.9, n_thermal=1.0)

#: Depth factor between the inner and outer variable of a double limit.
INNER_DEPTH = 1e3

#: Points over which the approach to the target must be monotone.
MONOTONE_POINTS = 4


def rising_schedule(decades: int = 8):
    """Geometric schedule 10^0 .. 10^decades, one point per decade."""
    return tuple(10.0 ** k for k in range(decades + 1))


def falling_schedule(decades: int = 6):
    """Geometric schedule 10^0 .. 10^-decades, one point per decade."""
    return tuple(10.0 ** -k for k in range(decades + 1))


@dataclass(frozen=True)
class LimitProbe:
    """Ratio trace along a schedule plus the convergence verdict inputs."""

    name: str
    schedule: tuple
    ratios: tuple
    target: float
    tolerance: float
    metadata: dict = field(default_factory=dict)
    monotone_points: ClassVar[int] = MONOTONE_POINTS

    def __post_init__(self):
        steps = [b - a for a, b in zip(self.schedule, self.schedule[1:])]
        if not (all(s > 0 for s in steps) or all(s < 0 for s in steps)):
            raise ValueError("schedule must be strictly monotone")
        if not all(math.isfinite(r) for r in self.ratios):
            raise ValueError("ratios must be finite")

    @property
    def gap(self) -> float:
        return abs(self.ratios[-1] - self.target)

    @property
    def monotone_approach(self) -> bool:
        # Slack far below the tolerance: rounding wobble on an already
        # converged ratio must not read as oscillation.
        slack = 1e-6 * self.tolerance + 1e-12
        gaps = [abs(r - self.target) for r in self.ratios[-self.monotone_points:]]
        return all(b <= a + slack for a, b in zip(gaps, gaps[1:]))

    @property
    def converged(self) -> bool:
        return self.gap < self.tolerance and self.monotone_approach

    @property
    def verdict(self) -> str:
        return "converged" if self.converged else "diverged"

    def to_dict(self) -> dict:
        return {
            "lemma": self.name,
            "schedule": list(self.schedule),
            "ratios": list(self.ratios),
            "target": self.target,
            "gap": self.gap,
            "verdict": self.verdict,
            "tolerances": {
                "final_gap": self.tolerance,
                "monotone_points": self.monotone_points,
            },
            "metadata": dict(self.metadata),
        }


def _probe(name, schedule, ratios, target, tolerance, params, **metadata) -> LimitProbe:
    """A probe whose metadata ends with the channel it was evaluated on."""
    return LimitProbe(
        name, schedule, tuple(ratios), target, tolerance,
        {**metadata, "channel": asdict(params)},
    )


def high_power_heterodyne_ratio(
    n_user: float, params: ChannelParams, user: User = User.ALICE
) -> float:
    """Heterodyne-to-outer-bound ratio for one user at photon number ``n_user``.

    The ratio tends to 1 as ``n_user`` grows, but only like the ratio of
    two logarithms, so the residual gap shrinks very slowly.
    """
    if n_user <= 0.0:
        raise ValueError("n_user must be > 0")
    if user is User.ALICE:
        budget = PhotonBudget(n_user, 0.0)
    else:
        budget = PhotonBudget(0.0, n_user)
    bound = _reference(outer_bound(params, budget, user), params, user)
    return receiver_individual_rates(params, budget, Receiver.HETERODYNE, user) / bound


def high_power_heterodyne_probe(
    params: ChannelParams = DEFAULT_CHANNEL, schedule=None
) -> LimitProbe:
    schedule = rising_schedule(8) if schedule is None else tuple(schedule)
    ratios = [high_power_heterodyne_ratio(n, params) for n in schedule]
    return _probe("high-power-heterodyne", schedule, ratios, 1.0, 0.01, params, user="alice")


def homodyne_asymptotic_ratio(n_a: float, n_b: float, params: ChannelParams):
    """Best homodyne-to-outer-bound ratio for Alice at ``n_a``, Bob at ``n_b``.

    Bob spends his whole budget squeezing the measured quadrature
    (r_b = -asinh(sqrt(n_b))); Alice's squeezing parameter is optimized by
    golden-section search over the interval her own budget affords, capped
    at [-10, 10].  Returns (ratio, best_r_a), both 0.0 when ``n_a`` is 0.
    """
    if n_a == 0.0:
        return 0.0, 0.0
    budget = PhotonBudget(n_a, 0.0)
    _require_receiver(params, budget, Receiver.HOMODYNE)
    rub = _reference(outer_bound(params, budget, User.ALICE), params)
    r_cap = min(10.0, math.asinh(math.sqrt(n_a)))
    r_b = -math.asinh(math.sqrt(n_b))

    def rate(r_a):
        n_alpha = kernels.displacement_photons(n_a, r_a)
        return kernels.homodyne_rate_raw(
            params.eta1, params.eta2, params.n_thermal, n_alpha, 0.0, r_a, r_b
        )

    r_best, best = golden_section_max(rate, -r_cap, r_cap, tol=1e-8)
    return best / rub, r_best


def homodyne_half_probe(params: ChannelParams = DEFAULT_CHANNEL) -> LimitProbe:
    """Optimized homodyne ratio along a rising schedule; the double limit is 1/2."""
    schedule = rising_schedule(6)
    ratios, best_r_a = zip(
        *(homodyne_asymptotic_ratio(n, n * INNER_DEPTH, params) for n in schedule)
    )
    return _probe(
        "homodyne-half", schedule, ratios, 0.5, 0.05, params,
        inner_n_b_factor=INNER_DEPTH, optimal_r_a=list(best_r_a),
    )


def _alice_capacity(params: ChannelParams, x: float) -> float:
    """Alice's thermal-loss capacity g(x + y) - g(y) at received signal ``x``, the
    low-power reference (Giovannetti et al., Nat. Photonics 8, 796 (2014))."""
    return _reference(point_to_point(x, (1.0 - params.eta2) * params.n_thermal), params)


def low_power_bob_first_probe(params: ChannelParams = DEFAULT_CHANNEL) -> LimitProbe:
    """Both users coherent, Bob's photon number vanishing first.

    With a coherent Bob the reduction to the point-to-point capacity is
    exact, so the ratio is identically 1 along the whole schedule.
    """
    schedule = falling_schedule(6)
    ratios = []
    for n in schedule:
        rate, _ = individual_rate(params, PhotonBudget(n, n / INNER_DEPTH), User.ALICE)
        ratios.append(rate / _alice_capacity(params, params.eta1 * params.eta2 * n))
    return _probe(
        "low-power-bob-first", schedule, ratios, 1.0, 0.01, params,
        inner_n_a_factor=1.0 / INNER_DEPTH,
    )


def low_power_alice_first_probe(params: ChannelParams = DEFAULT_CHANNEL) -> LimitProbe:
    """Alice's photon number vanishing first while Bob squeezes his entire
    budget (r_b = asinh(sqrt(n_b))); the low-signal branch must be active."""
    schedule = falling_schedule(6)
    ratios, branches = [], []
    for n_b in schedule:
        n_a = n_b / INNER_DEPTH
        budget = PhotonBudget(n_a, n_b, 0.0, math.asinh(math.sqrt(n_b)))
        rate, branch = individual_rate(params, budget, User.ALICE)
        ratios.append(rate / _alice_capacity(params, params.eta1 * params.eta2 * n_a))
        branches.append(int(branch))
    return _probe(
        "low-power-alice-first", schedule, ratios, 1.0, 0.01, params,
        inner_n_a_factor=1.0 / INNER_DEPTH, branches=branches,
    )


@dataclass(frozen=True)
class CaseThreeConfig:
    """Scales for the simultaneous low-power limit: n_a = a*n, n_b = b*n.

    ``kappa`` scales Bob's squeezing against the largest value compatible
    with the full-signal branch; ``p_a`` is the fraction of Alice's photons
    spent on displacement in the low-signal track.
    """

    a: float = 1.0
    b: float = 1.0
    kappa: float = 1.0
    p_a: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise InputError("a", f"must be finite and > 0, got {self.a}")
        if not 0.0 < self.b < math.inf:
            raise InputError("b", f"must be finite and > 0, got {self.b}")
        if not 0.0 <= self.kappa <= 1.0:
            raise InputError("kappa", f"must be in [0, 1], got {self.kappa}")
        if not 0.0 <= self.p_a <= 1.0:
            raise InputError("p_a", f"must be in [0, 1], got {self.p_a}")


def max_bob_scale_branch1(a: float, eta1: float, n: float) -> float:
    """Largest Bob scale b keeping Alice's received photons at or above the
    variance asymmetry when Bob squeezes his whole budget b*n.

    Solves N_C^A = |V1 - V2| for b; at the returned value the constraint
    holds with equality.  Unbounded when eta1 = 1, since Bob's mode then
    never reaches the receiver.
    """
    if not 0.0 <= eta1 < 1.0:
        raise InputError(
            "eta1", f"must be in [0, 1), got {eta1}; at eta1 = 1 the constraint is vacuous"
        )
    if a <= 0.0 or n <= 0.0:
        raise ValueError("a and n must be > 0")
    # Quadratic root (sqrt(c^2 + eps) - c) / (2 c n) with c = 1 - eta1 and
    # eps = (2 a eta1 n)^2, rationalized so small n does not cancel.
    c = 1.0 - eta1
    eps = 4.0 * a * a * eta1 * eta1 * n * n
    return 2.0 * a * a * eta1 * eta1 * n / (c * (math.sqrt(c * c + eps) + c))


def low_power_simultaneous_probes(
    config: CaseThreeConfig, params: ChannelParams = DEFAULT_CHANNEL
):
    """Both budgets vanishing together; returns (branch-1 probe, branch-2 probe).

    Branch 1: Alice coherent, Bob squeezing kappa times the largest budget
    compatible with the full-signal branch; ratio of the joint-detection
    rate to the point-to-point capacity.  Branch 2: ratio of the
    low-signal G-function to its coherent full-signal counterpart with
    Alice splitting her budget p_a : (1 - p_a) between displacement and
    squeezing and Bob squeezing b*n photons.
    """
    schedule = falling_schedule(6)
    y = (1.0 - params.eta2) * params.n_thermal
    b1_ratios, branches, b_values = [], [], []
    b2_ratios = []
    for n in schedule:
        b = config.kappa * max_bob_scale_branch1(config.a, params.eta1, n)
        b_values.append(b)
        squeezed = b * n
        budget = PhotonBudget(
            config.a * n, squeezed, 0.0, math.asinh(math.sqrt(squeezed))
        )
        rate, branch = individual_rate(params, budget, User.ALICE)
        # Not eta1 * eta2 * (a * n), which rounds differently when a != 1.
        x = params.eta1 * params.eta2 * config.a * n
        b1_ratios.append(rate / _alice_capacity(params, x))
        branches.append(int(branch))

        r_a = math.asinh(math.sqrt(config.a * (1.0 - config.p_a) * n))
        r_b = math.asinh(math.sqrt(config.b * n))
        budget2 = PhotonBudget(config.a * n, config.b * n, r_a, r_b)
        v = receiver_covariance(budget2, params)
        n_ca = params.eta1 * params.eta2 * config.p_a * config.a * n
        b2_ratios.append(big_g12(n_ca, v) / kernels.g_entropy(x + y))

    return (
        _probe(
            "low-power-simultaneous-branch1", schedule, b1_ratios, 1.0, 0.01, params,
            a=config.a, kappa=config.kappa, b_along_schedule=b_values, branches=branches,
        ),
        _probe(
            "low-power-simultaneous-branch2", schedule, b2_ratios, 1.0, 0.01, params,
            a=config.a, b=config.b, p_a=config.p_a,
        ),
    )


def receiver_gap_probes(params: ChannelParams = DEFAULT_CHANNEL):
    """Structured-receiver-to-joint-detection ratios at low photon number.

    Returns (heterodyne probe, homodyne probe) with target 0.  Both ratios
    decrease along the schedule but settle at positive constants set by the
    thermal floor, so with the 0.1 tolerance the verdicts report the
    measured plateau honestly rather than certifying a vanishing limit.
    """
    if params.n_thermal <= 0.0:
        raise InputError(
            "n_thermal", "must be > 0 for the receiver-gap probes; pure loss scales differently"
        )
    schedule = falling_schedule(6)
    traces = {Receiver.HETERODYNE: [], Receiver.HOMODYNE: []}
    for n in schedule:
        budget = PhotonBudget(n, n)
        r_max = _reference(individual_rate(params, budget, User.ALICE)[0], params)
        for receiver, ratios in traces.items():
            ratios.append(receiver_individual_rates(params, budget, receiver, User.ALICE) / r_max)
    return tuple(
        _probe(f"receiver-gap-{receiver.value}", schedule, ratios, 0.0, 0.1, params)
        for receiver, ratios in traces.items()
    )


def _reference(rate: float, params: ChannelParams, user: User = User.ALICE) -> float:
    """Return ``rate``, the denominator of a probe ratio for ``user``.

    Such a rate is zero only when the user's signal is lost at the
    receiver; the error then names the smallest factor carrying the
    signal there: the user's share of eta1, eta2, or the thermal floor.
    """
    if rate > 0.0:
        return rate
    share = params.eta1 if user is User.ALICE else 1.0 - params.eta1
    factors = {
        "eta1": share,
        "eta2": params.eta2,
        "n_thermal": 1.0 / (1.0 + (1.0 - params.eta2) * params.n_thermal),
    }
    raise InputError(
        min(factors, key=factors.get),
        f"{user.value}'s signal does not reach the receiver, so the probe's "
        f"reference rate is 0 (eta1={params.eta1}, eta2={params.eta2}, "
        f"n_thermal={params.n_thermal})",
    )
