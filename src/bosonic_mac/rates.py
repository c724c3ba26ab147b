"""Closed-form rate formulas.

Everything here is a pure function of (ChannelParams, PhotonBudget).  The
joint-detection maximum rates are piecewise: branch 1 applies when the
received signal photon number covers the variance asymmetry of the
receiver mode, branch 2 otherwise, and the two expressions agree on the
boundary.
"""

import enum
import math
import sys
from dataclasses import dataclass

from . import _kernels as kernels
from .gaussian_core import ChannelParams, CovMatrix2, InputError, PhotonBudget


class Branch(enum.IntEnum):
    ONE = 1
    TWO = 2


class User(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


class Receiver(enum.Enum):
    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"


@dataclass(frozen=True)
class RateBundle:
    """Individual and sum maximum rates with the branch that produced each."""

    r_max_a: float
    r_max_b: float
    r_max_ab: float
    branch_a: Branch
    branch_b: Branch
    branch_ab: Branch


def _require_diagonal(v: CovMatrix2) -> None:
    """Raise ValueError if ``v`` has a cross covariance: the kernels take
    the two quadrature variances only."""
    if v.v12 != 0.0:
        raise ValueError(f"rate kernels take diagonal covariances only, got v12={v.v12}")


def big_g11(n: float, v: CovMatrix2) -> float:
    """g evaluated on the total receiver photon number: g(V1 + V2 + n - 1/2)."""
    if n < 0.0:
        raise ValueError(f"received photon number must be >= 0, got {n}")
    return kernels.big_g11_raw(n, v.v11, v.v22)


def big_g12(n: float, v: CovMatrix2) -> float:
    """Low-signal counterpart of :func:`big_g11`.

    The bracket is evaluated in exactly factored form, or in the reduced
    form of :func:`big_g12_simplified` where the factored one cancels.
    """
    if n < 0.0:
        raise ValueError(f"received photon number must be >= 0, got {n}")
    _require_diagonal(v)
    return kernels.big_g12_raw(n, v.v11, v.v22)


def big_g12_simplified(n: float, v: CovMatrix2) -> float:
    """Reduced form g(2 sqrt(Vmax (n + Vmin)) - 1/2)."""
    _require_diagonal(v)
    return kernels.big_g12_simplified_raw(n, v.v11, v.v22)


def big_g2(v: CovMatrix2) -> float:
    """g evaluated on the symplectic eigenvalue: g(2 sqrt(V1 V2) - 1/2)."""
    _require_diagonal(v)
    return kernels.big_g2_raw(v.v11, v.v22)


def individual_rate(params: ChannelParams, budget: PhotonBudget, user: User):
    """Maximum rate of one transmitter, with the branch that fired.

    Clamped at zero; the clamp only ever absorbs rounding residue.
    """
    rate, branch = _triple(params, budget)[{"alice": 0, "bob": 1}[user.value]]
    return rate, branch


def sum_rate(params: ChannelParams, budget: PhotonBudget):
    """Maximum rate summed over both transmitters, with its branch."""
    return _triple(params, budget)[2]


#: The Branch member of each kernel branch flag (1 or 2), looked up
#: rather than built by a Branch(...) call.
_BRANCH = (None, Branch.ONE, Branch.TWO)


def _triple(params: ChannelParams, budget: PhotonBudget):
    ra, br_a, rb, br_b, rab, br_ab = kernels.rate_triple(
        params.eta1, params.eta2, params.n_thermal,
        budget.n_a, budget.n_b, budget.r_a, budget.r_b,
    )
    return (ra, _BRANCH[br_a]), (rb, _BRANCH[br_b]), (rab, _BRANCH[br_ab])


def rate_bundle(params: ChannelParams, budget: PhotonBudget) -> RateBundle:
    (ra, br_a), (rb, br_b), (rab, br_ab) = _triple(params, budget)
    return RateBundle(ra, rb, rab, br_a, br_b, br_ab)


def point_to_point(x: float, y: float) -> float:
    """Capacity of a one-way channel: received signal ``x`` over thermal floor ``y``."""
    if x < 0.0 or y < 0.0:
        raise ValueError("photon numbers must be >= 0")
    return kernels.point_to_point_raw(x, y)


def _thermal_loss_capacity(params: ChannelParams, n_in: float) -> float:
    """Capacity g(eta2 n_in + y) - g(y), y = (1 - eta2) n_thermal, of the
    second beamsplitter for ``n_in`` mean input photons."""
    return kernels.point_to_point_raw(
        params.eta2 * n_in, (1.0 - params.eta2) * params.n_thermal
    )


def outer_bound(params: ChannelParams, budget: PhotonBudget, user: User) -> float:
    """Interference-free ceiling on one transmitter's rate.

    The first beamsplitter is assumed undone by a nonphysical receiver, so
    eta1 does not appear.
    """
    return _thermal_loss_capacity(params, budget.n_a if user is User.ALICE else budget.n_b)


def sum_rate_capacity_coherent(params: ChannelParams, budget: PhotonBudget) -> float:
    """Sum-rate capacity, achieved by coherent encoding; squeezing is ignored."""
    return _thermal_loss_capacity(
        params, params.eta1 * budget.n_a + (1.0 - params.eta1) * budget.n_b
    )


def _require_receiver(params: ChannelParams, budget: PhotonBudget, receiver: Receiver) -> None:
    """Raise InputError unless ``receiver``'s rates are defined here.

    Heterodyne rates need coherent inputs and eta2 > 0.  The homodyne
    rate divides by eta1 and by eta1 * eta2, so that product must be a
    normal float.
    """
    if receiver is Receiver.HETERODYNE:
        if not budget.is_coherent:
            raise InputError(
                "r_a" if budget.r_a != 0.0 else "r_b",
                "heterodyne rate is defined for coherent inputs only",
            )
        if params.eta2 <= 0.0:
            raise InputError("eta2", "heterodyne rate requires eta2 > 0")
    elif not params.eta1 * params.eta2 >= sys.float_info.min:
        raise InputError(
            "eta1" if params.eta1 <= params.eta2 else "eta2",
            f"the homodyne receiver needs eta1 * eta2 >= {sys.float_info.min}, "
            f"got eta1={params.eta1}, eta2={params.eta2}",
        )


def _receiver_rate(
    params: ChannelParams, budget: PhotonBudget, receiver: Receiver, alice: bool, bob: bool
) -> float:
    """``receiver``'s rate with only the photons of the users flagged on,
    unchecked.  A homodyne rate keeps both squeezing parameters, since a
    user's squeezed quadrature adds measurement noise without photons."""
    if receiver is Receiver.HETERODYNE:
        return kernels.heterodyne_rate_raw(
            params.eta1, params.eta2, params.n_thermal,
            budget.n_a if alice else 0.0, budget.n_b if bob else 0.0,
        )
    return kernels.homodyne_rate_raw(
        params.eta1, params.eta2, params.n_thermal,
        budget.n_alpha if alice else 0.0, budget.n_beta if bob else 0.0,
        budget.r_a, budget.r_b,
    )


def _require_finite(rate: float, params: ChannelParams, budget: PhotonBudget,
                    receiver: Receiver, alice: bool, bob: bool) -> float:
    """``rate``, ``receiver``'s defined rate with the photons of the users
    flagged on, or InputError naming the total that makes it non-finite:
    ``n_a`` when Alice's photons are on and overflow alone, else ``n_b``.
    Only the homodyne photon term 4 (n_alpha + n_beta (1 - eta1) / eta1)
    can overflow."""
    if math.isfinite(rate):
        return rate
    alice_alone = alice and not (
        bob and math.isfinite(_receiver_rate(params, budget, receiver, True, False)))
    raise InputError(
        "n_a" if alice_alone else "n_b",
        f"the {receiver.value} rate for n_a={budget.n_a}, n_b={budget.n_b} is not finite: "
        "its photon term 4 * (n_alpha + n_beta * (1 - eta1) / eta1) overflows",
    )


def homodyne_sum_rate(params: ChannelParams, budget: PhotonBudget) -> float:
    """Single-quadrature detection sum rate for (possibly squeezed) inputs."""
    _require_receiver(params, budget, Receiver.HOMODYNE)
    rate = _receiver_rate(params, budget, Receiver.HOMODYNE, True, True)
    return _require_finite(rate, params, budget, Receiver.HOMODYNE, True, True)


def heterodyne_sum_rate(params: ChannelParams, budget: PhotonBudget) -> float:
    """Dual-quadrature detection sum rate; defined for coherent inputs only."""
    _require_receiver(params, budget, Receiver.HETERODYNE)
    return _receiver_rate(params, budget, Receiver.HETERODYNE, True, True)


def receiver_individual_rates(
    params: ChannelParams, budget: PhotonBudget, receiver: Receiver, user: User
) -> float:
    """Per-user receiver capacity: the sum-rate formula with the other user's
    photon number set to zero.

    For homodyne the other user's squeezing parameter is kept, since their
    squeezed quadrature still contributes measurement noise.
    """
    _require_receiver(params, budget, receiver)
    alice, bob = user is User.ALICE, user is User.BOB
    rate = _receiver_rate(params, budget, receiver, alice, bob)
    return _require_finite(rate, params, budget, receiver, alice, bob)


def receiver_rates(params: ChannelParams, budget: PhotonBudget, receiver: Receiver):
    """(alice, bob, sum) rates of ``receiver``, or None where it is undefined.

    Checks ``receiver`` once, then takes the three rates from the unchecked
    body that ``receiver_individual_rates`` and the sum-rate functions share.
    The sum rate is finite only when all three are, so its check alone
    raises the InputError of ``_require_finite`` for an overflowing budget.
    """
    try:
        _require_receiver(params, budget, receiver)
    except InputError:
        return None
    rates = (
        _receiver_rate(params, budget, receiver, True, False),
        _receiver_rate(params, budget, receiver, False, True),
        _receiver_rate(params, budget, receiver, True, True),
    )
    _require_finite(rates[2], params, budget, receiver, True, True)
    return rates
