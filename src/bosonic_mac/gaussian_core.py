"""Single-mode Gaussian primitives: channel parameters, photon budgets,
covariance matrices and the closed-form receiver covariance.

All covariances use the vacuum = 1/4 normalization and quadratures are
never entangled (the cross covariance is identically zero for every state
this package produces).
"""

import math
from dataclasses import dataclass

from . import _kernels as kernels

VACUUM_VARIANCE = 0.25


class InputError(ValueError):
    """A rejected input value; ``field`` names the parameter it was given as."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _require_photons(field: str, n: float) -> None:
    if not 0.0 <= n < math.inf:
        raise InputError(field, f"must be finite and >= 0, got {n}")


def _require_squeezing(field: str, n: float, r: float) -> None:
    if not math.isfinite(r):
        raise InputError(field, f"must be finite, got {r}")
    try:
        kernels.displacement_photons(n, r)
    except (ValueError, OverflowError):
        raise InputError(
            field, f"squeezing cost sinh({r})^2 exceeds the photon budget {n}"
        ) from None


@dataclass(frozen=True)
class ChannelParams:
    """Physical channel: two coupling transmissivities and the thermal occupation.

    ``eta1`` splits the two transmitters, ``eta2`` couples their combination
    to the environment mode, whose mean photon number is ``n_thermal``.
    """

    eta1: float
    eta2: float
    n_thermal: float

    def __post_init__(self):
        if not 0.0 <= self.eta1 <= 1.0:
            raise InputError("eta1", f"must be in [0, 1], got {self.eta1}")
        if not 0.0 <= self.eta2 <= 1.0:
            raise InputError("eta2", f"must be in [0, 1], got {self.eta2}")
        _require_photons("n_thermal", self.n_thermal)


@dataclass(frozen=True)
class PhotonBudget:
    """Per-transmitter mean photon constraints and squeezing allocations.

    Squeezing consumes sinh(r)^2 photons out of the corresponding budget;
    whatever remains is available for displacement (the derived
    ``n_alpha`` / ``n_beta``).
    """

    n_a: float
    n_b: float
    r_a: float = 0.0
    r_b: float = 0.0

    def __post_init__(self):
        _require_photons("n_a", self.n_a)
        _require_photons("n_b", self.n_b)
        _require_squeezing("r_a", self.n_a, self.r_a)
        _require_squeezing("r_b", self.n_b, self.r_b)

    @property
    def n_alpha(self) -> float:
        """Alice's displacement photons."""
        return kernels.displacement_photons(self.n_a, self.r_a)

    @property
    def n_beta(self) -> float:
        """Bob's displacement photons."""
        return kernels.displacement_photons(self.n_b, self.r_b)

    @property
    def is_coherent(self) -> bool:
        return self.r_a == 0.0 and self.r_b == 0.0


@dataclass(frozen=True)
class CovMatrix2:
    """2x2 quadrature covariance matrix of a single mode."""

    v11: float
    v22: float
    v12: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.v11 < math.inf:
            raise InputError("v11", f"must be finite and > 0, got {self.v11}")
        if not 0.0 < self.v22 < math.inf:
            raise InputError("v22", f"must be finite and > 0, got {self.v22}")
        if not math.isfinite(self.v12):
            raise InputError("v12", f"must be finite, got {self.v12}")
        det = self.det
        floor = 0.0625
        if det < floor * (1.0 - 1e-9) - 1e-15:
            raise InputError(
                "det", f"unphysical covariance: {det} is below the uncertainty floor {floor}"
            )

    @property
    def det(self) -> float:
        return self.v11 * self.v22 - self.v12 * self.v12


@dataclass(frozen=True)
class SqueezeFractions:
    """Fractions of each budget spent on squeezing, with quadrature orientation.

    ``p`` is the squeezed share of the photon number, so the squeezing
    parameter reproducing it is sign * asinh(sqrt(p * n)).
    """

    p_a: float
    p_b: float
    sign_a: int = 1
    sign_b: int = 1

    def __post_init__(self):
        if not 0.0 <= self.p_a <= 1.0:
            raise InputError("p_a", f"must be in [0, 1], got {self.p_a}")
        if not 0.0 <= self.p_b <= 1.0:
            raise InputError("p_b", f"must be in [0, 1], got {self.p_b}")
        if self.sign_a not in (-1, 1):
            raise InputError("sign_a", f"must be +1 or -1, got {self.sign_a}")
        if self.sign_b not in (-1, 1):
            raise InputError("sign_b", f"must be +1 or -1, got {self.sign_b}")

    def budget_for(self, n_a: float, n_b: float) -> PhotonBudget:
        """Photon budget realizing these fractions for the given totals."""
        # The totals go under a square root before PhotonBudget sees them.
        _require_photons("n_a", n_a)
        _require_photons("n_b", n_b)
        r_a = self.sign_a * fraction_squeezing(self.p_a, n_a)
        r_b = self.sign_b * fraction_squeezing(self.p_b, n_b)
        return PhotonBudget(n_a, n_b, r_a, r_b)


def fraction_squeezing(p: float, n: float) -> float:
    """Squeezing parameter that spends the share ``p`` of ``n`` photons,
    i.e. sinh(r)^2 = p * n."""
    return math.asinh(math.sqrt(p * n))


def g_entropy(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``x``."""
    return kernels.g_entropy(x)


def squeezing_cost(r: float) -> float:
    """Mean photon number consumed by squeezing parameter ``r``."""
    return kernels.squeezing_cost(r)


def input_covariances(budget: PhotonBudget, params: ChannelParams):
    """Covariance matrices (X, Y, Z) of the two transmitter modes and the
    environment mode."""
    x = CovMatrix2(0.25 * math.exp(2.0 * budget.r_a), 0.25 * math.exp(-2.0 * budget.r_a))
    y = CovMatrix2(0.25 * math.exp(2.0 * budget.r_b), 0.25 * math.exp(-2.0 * budget.r_b))
    t = 0.25 * (2.0 * params.n_thermal + 1.0)
    z = CovMatrix2(t, t)
    return x, y, z


def receiver_covariance(budget: PhotonBudget, params: ChannelParams) -> CovMatrix2:
    """Covariance of the receiver mode: the transmissivity-weighted sum of
    the input covariances."""
    v1, v2 = kernels.receiver_variances(
        params.eta1, params.eta2, params.n_thermal, budget.r_a, budget.r_b
    )
    return CovMatrix2(v1, v2)


def received_photons(budget: PhotonBudget, params: ChannelParams):
    """Signal mean photon numbers (from Alice, from Bob) at the receiver."""
    return kernels.received_photon_pair(
        params.eta1, params.eta2, budget.n_a, budget.n_b, budget.r_a, budget.r_b
    )
