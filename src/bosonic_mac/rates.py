"""Closed-form rate formulas.

Everything here is a pure function of (ChannelParams, PhotonBudget).  The
joint-detection maximum rates are piecewise: branch 1 applies when the
received signal photon number covers the variance asymmetry of the
receiver mode, branch 2 otherwise, and the two expressions agree on the
boundary.
"""

import enum
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


def big_g11(n: float, v: CovMatrix2) -> float:
    """g evaluated on the total receiver photon number: g(V1 + V2 + n - 1/2)."""
    if n < 0.0:
        raise ValueError(f"received photon number must be >= 0, got {n}")
    return kernels.big_g11_raw(n, v.v11, v.v22)


def big_g12(n: float, v: CovMatrix2) -> float:
    """Low-signal counterpart of :func:`big_g11`.

    The bracket is evaluated in exactly factored form; see
    :func:`big_g12_simplified` for the reduced expression used as a
    cross-check when ``v12 == 0``.
    """
    if n < 0.0:
        raise ValueError(f"received photon number must be >= 0, got {n}")
    return kernels.big_g12_raw(n, v.v11, v.v22, v.v12)


def big_g12_simplified(n: float, v: CovMatrix2) -> float:
    """Reduced form g(2 sqrt(Vmax (n + Vmin)) - 1/2), valid for v12 = 0 only."""
    if v.v12 != 0.0:
        raise ValueError("simplified form requires v12 = 0")
    hi, lo = (v.v11, v.v22) if v.v11 >= v.v22 else (v.v22, v.v11)
    return kernels.g_entropy(2.0 * (hi * (n + lo)) ** 0.5 - 0.5)


def big_g2(v: CovMatrix2) -> float:
    """g evaluated on the symplectic eigenvalue: g(2 sqrt(det V) - 1/2)."""
    return kernels.big_g2_raw(v.v11, v.v22, v.v12)


def individual_rate(params: ChannelParams, budget: PhotonBudget, user: User):
    """Maximum rate of one transmitter, with the branch that fired.

    Clamped at zero; the clamp only ever absorbs rounding residue.
    """
    rate, branch = _triple(params, budget)[{"alice": 0, "bob": 1}[user.value]]
    return rate, branch


def sum_rate(params: ChannelParams, budget: PhotonBudget):
    """Maximum rate summed over both transmitters, with its branch."""
    return _triple(params, budget)[2]


def _triple(params: ChannelParams, budget: PhotonBudget):
    ra, br_a, rb, br_b, rab, br_ab = kernels.rate_triple(
        params.eta1, params.eta2, params.n_thermal,
        budget.n_a, budget.n_b, budget.r_a, budget.r_b,
    )
    return (ra, Branch(br_a)), (rb, Branch(br_b)), (rab, Branch(br_ab))


def rate_bundle(params: ChannelParams, budget: PhotonBudget) -> RateBundle:
    (ra, br_a), (rb, br_b), (rab, br_ab) = _triple(params, budget)
    return RateBundle(ra, rb, rab, br_a, br_b, br_ab)


def point_to_point(x: float, y: float) -> float:
    """Capacity of a one-way channel: received signal ``x`` over thermal floor ``y``."""
    if x < 0.0 or y < 0.0:
        raise ValueError("photon numbers must be >= 0")
    return kernels.point_to_point_raw(x, y)


def outer_bound(params: ChannelParams, budget: PhotonBudget, user: User) -> float:
    """Interference-free ceiling on one transmitter's rate.

    The first beamsplitter is assumed undone by a nonphysical receiver, so
    eta1 does not appear.
    """
    n_user = budget.n_a if user is User.ALICE else budget.n_b
    return kernels.point_to_point_raw(
        params.eta2 * n_user, (1.0 - params.eta2) * params.n_thermal
    )


def sum_rate_capacity_coherent(params: ChannelParams, budget: PhotonBudget) -> float:
    """Sum-rate capacity, achieved by coherent encoding; squeezing is ignored."""
    n_in = params.eta1 * budget.n_a + (1.0 - params.eta1) * budget.n_b
    return kernels.point_to_point_raw(
        params.eta2 * n_in, (1.0 - params.eta2) * params.n_thermal
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


def homodyne_sum_rate(params: ChannelParams, budget: PhotonBudget) -> float:
    """Single-quadrature detection sum rate for (possibly squeezed) inputs."""
    _require_receiver(params, budget, Receiver.HOMODYNE)
    return kernels.homodyne_rate_raw(
        params.eta1, params.eta2, params.n_thermal,
        budget.n_alpha, budget.n_beta, budget.r_a, budget.r_b,
    )


def heterodyne_sum_rate(params: ChannelParams, budget: PhotonBudget) -> float:
    """Dual-quadrature detection sum rate; defined for coherent inputs only."""
    _require_receiver(params, budget, Receiver.HETERODYNE)
    return kernels.heterodyne_rate_raw(
        params.eta1, params.eta2, params.n_thermal, budget.n_a, budget.n_b
    )


def receiver_individual_rates(
    params: ChannelParams, budget: PhotonBudget, receiver: Receiver, user: User
) -> float:
    """Per-user receiver capacity: the sum-rate formula with the other user's
    photon number set to zero.

    For homodyne the other user's squeezing parameter is kept, since their
    squeezed quadrature still contributes measurement noise.
    """
    _require_receiver(params, budget, receiver)
    if receiver is Receiver.HETERODYNE:
        n_a = budget.n_a if user is User.ALICE else 0.0
        n_b = budget.n_b if user is User.BOB else 0.0
        return kernels.heterodyne_rate_raw(
            params.eta1, params.eta2, params.n_thermal, n_a, n_b
        )
    n_alpha = budget.n_alpha if user is User.ALICE else 0.0
    n_beta = budget.n_beta if user is User.BOB else 0.0
    return kernels.homodyne_rate_raw(
        params.eta1, params.eta2, params.n_thermal,
        n_alpha, n_beta, budget.r_a, budget.r_b,
    )


def receiver_rates(params: ChannelParams, budget: PhotonBudget, receiver: Receiver):
    """(alice, bob, sum) rates of ``receiver``, or None where it is undefined."""
    try:
        _require_receiver(params, budget, receiver)
    except InputError:
        return None
    sum_rate_of = heterodyne_sum_rate if receiver is Receiver.HETERODYNE else homodyne_sum_rate
    return (
        receiver_individual_rates(params, budget, receiver, User.ALICE),
        receiver_individual_rates(params, budget, receiver, User.BOB),
        sum_rate_of(params, budget),
    )
