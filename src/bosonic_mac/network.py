"""Brute-force oracle: a passive beamsplitter network simulator.

Propagates Gaussian first and second moments through an arbitrary mesh of
two-mode beamsplitters and samples dual-quadrature measurement outcomes.
Used to validate the closed forms in :mod:`bosonic_mac.gaussian_core` and
:mod:`bosonic_mac.rates`; nothing here assumes those formulas.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels as kernels
from .gaussian_core import ChannelParams, CovMatrix2, PhotonBudget, input_covariances


@dataclass(frozen=True)
class Beamsplitter:
    """Two-mode coupler with real (phase-free) mixing coefficients."""

    transmissivity: float
    mode_a: int
    mode_b: int

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(
                f"transmissivity must be in [0, 1], got {self.transmissivity}"
            )
        if self.mode_a == self.mode_b:
            raise ValueError("a beamsplitter must couple two distinct modes")


@dataclass(frozen=True)
class BeamsplitterNetwork:
    """Ordered mesh of beamsplitters over ``num_modes`` modes."""

    num_modes: int
    splitters: tuple
    receiver_mode: int = 0

    def __post_init__(self):
        if self.num_modes < 2:
            raise ValueError("a network needs at least two modes")
        if not 0 <= self.receiver_mode < self.num_modes:
            raise ValueError(f"receiver_mode {self.receiver_mode} out of range")
        for sp in self.splitters:
            for m in (sp.mode_a, sp.mode_b):
                if not 0 <= m < self.num_modes:
                    raise ValueError(f"splitter mode {m} out of range")


def canonical_network(num_transmitters: int, transmissivities: Sequence[float]) -> BeamsplitterNetwork:
    """Triangular mesh for K transmitters plus one environment mode.

    The first K splitters form the receiver path: they fold transmitters
    2..K and finally the environment into mode 0. The remaining
    K(K-1)/2 splitters mix the discarded ports and never touch the
    receiver output. Requires K(K+1)/2 transmissivities.
    """
    k = num_transmitters
    if k < 1:
        raise ValueError("need at least one transmitter")
    expected = k * (k + 1) // 2
    if len(transmissivities) != expected:
        raise ValueError(
            f"canonical {k}-transmitter mesh needs {expected} transmissivities, "
            f"got {len(transmissivities)}"
        )
    etas = iter(transmissivities)
    splitters = [Beamsplitter(next(etas), 0, j) for j in range(1, k + 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            splitters.append(Beamsplitter(next(etas), i, j))
    return BeamsplitterNetwork(k + 1, tuple(splitters), receiver_mode=0)


def mac_network(params: ChannelParams, eta3: float = 0.5) -> BeamsplitterNetwork:
    """The two-transmitter topology: Alice (mode 0), Bob (mode 1),
    environment (mode 2). ``eta3`` only mixes the two discarded ports and
    never reaches the receiver."""
    return canonical_network(2, (params.eta1, params.eta2, eta3))


@dataclass(frozen=True)
class ModeEnsemble:
    """Independent single-mode Gaussian inputs: one (q, p) mean pair and one
    covariance per mode."""

    means: tuple
    covs: tuple

    def __post_init__(self):
        if len(self.means) != len(self.covs):
            raise ValueError("means and covs must have the same length")


def mac_input_ensemble(params: ChannelParams, budget: PhotonBudget) -> ModeEnsemble:
    """Input ensemble for :func:`mac_network`: squeezed or coherent
    transmitter modes and the thermal environment mode, all centred."""
    x, y, z = input_covariances(budget, params)
    return ModeEnsemble(means=((0.0, 0.0),) * 3, covs=(x, y, z))


def mode_transform(net: BeamsplitterNetwork) -> np.ndarray:
    """Real mode-space transform of the network.

    Each splitter applies the rotation block [[t, r], [-r, t]] with
    t = sqrt(transmissivity), r = sqrt(1 - transmissivity) to its mode
    pair, in list order. The result is orthogonal.
    """
    n = net.num_modes
    # Rows of Python floats: numpy costs more than the arithmetic on rows
    # this short, and each element takes the same IEEE operations.
    m = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for sp in net.splitters:
        t = math.sqrt(sp.transmissivity)
        r = math.sqrt(1.0 - sp.transmissivity)
        row_a = m[sp.mode_a]
        row_b = m[sp.mode_b]
        m[sp.mode_a] = [t * a + r * b for a, b in zip(row_a, row_b)]
        m[sp.mode_b] = [-r * a + t * b for a, b in zip(row_a, row_b)]
    return np.array(m)


@dataclass(frozen=True)
class PropagationResult:
    """Joint Gaussian state after the network, in (q0, p0, q1, p1, ...) order."""

    means: np.ndarray
    cov: np.ndarray
    receiver_mode: int

    def mode_covariance(self, mode: int) -> CovMatrix2:
        i = 2 * mode
        block = self.cov[i : i + 2, i : i + 2]
        return CovMatrix2(float(block[0, 0]), float(block[1, 1]), float(block[0, 1]))

    def receiver_covariance(self) -> CovMatrix2:
        return self.mode_covariance(self.receiver_mode)

    def total_mean_photons(self) -> float:
        n_modes = self.means.size // 2
        total = 0.0
        for i in range(n_modes):
            q, p = self.means[2 * i], self.means[2 * i + 1]
            total += q * q + p * p
            total += self.cov[2 * i, 2 * i] + self.cov[2 * i + 1, 2 * i + 1] - 0.5
        return float(total)


def total_mean_photons(ensemble: ModeEnsemble) -> float:
    """Mean photon number summed over an input ensemble."""
    total = 0.0
    for (q, p), c in zip(ensemble.means, ensemble.covs):
        total += q * q + p * p + c.v11 + c.v22 - 0.5
    return total


def propagate(net: BeamsplitterNetwork, ensemble: ModeEnsemble) -> PropagationResult:
    """Push an uncorrelated Gaussian input through the network.

    Means transform linearly; the joint quadrature covariance transforms by
    congruence with the block-expanded mode transform.
    """
    if len(ensemble.covs) != net.num_modes:
        raise ValueError(
            f"ensemble has {len(ensemble.covs)} modes, network expects {net.num_modes}"
        )
    m = mode_transform(net)
    s = np.zeros((2 * net.num_modes, 2 * net.num_modes))
    s[0::2, 0::2] = m  # the block expansion kron(m, eye(2))
    s[1::2, 1::2] = m
    mean_in = np.array([c for pair in ensemble.means for c in pair], dtype=float)
    cov_in = np.zeros((2 * net.num_modes, 2 * net.num_modes))
    for i, c in enumerate(ensemble.covs):
        cov_in[2 * i, 2 * i] = c.v11
        cov_in[2 * i + 1, 2 * i + 1] = c.v22
        cov_in[2 * i, 2 * i + 1] = cov_in[2 * i + 1, 2 * i] = c.v12
    return PropagationResult(s @ mean_in, s @ cov_in @ s.T, net.receiver_mode)


class HeterodyneEstimate(NamedTuple):
    rate: float
    std_error: float


def mc_heterodyne_rate(
    params: ChannelParams, budget: PhotonBudget, num_samples: int, seed: int
) -> HeterodyneEstimate:
    """Monte-Carlo estimate of the dual-quadrature detection sum rate.

    Draws circularly symmetric Gaussian displacements for both transmitters
    at their photon budgets, simulates measurement outcomes, and computes
    the Gaussian mutual information of the empirical channel per
    quadrature. The per-quadrature outcome noise is 2 V1: the signal-band
    variance V1 plus an equal image-band contribution, which carries the
    same vacuum plus broadband thermal noise. The standard error comes from
    the delta method applied to the empirical correlation.
    """
    if budget.r_a != 0.0 or budget.r_b != 0.0:
        raise ValueError("the sampler supports coherent inputs only")
    if num_samples < 10_000:
        raise ValueError(f"num_samples must be at least 10000, got {num_samples}")
    if params.eta2 <= 0.0:
        raise ValueError("requires eta2 > 0")

    rng = np.random.default_rng(seed)
    gain_a = math.sqrt(params.eta1 * params.eta2)
    gain_b = math.sqrt((1.0 - params.eta1) * params.eta2)
    sd_a = math.sqrt(budget.n_a / 2.0)
    sd_b = math.sqrt(budget.n_b / 2.0)
    v1, _ = kernels.receiver_variances(
        params.eta1, params.eta2, params.n_thermal, 0.0, 0.0
    )
    noise_sd = math.sqrt(2.0 * v1)

    rate = 0.0
    var = 0.0
    for _ in range(2):  # the two quadratures carry independent signals
        alice = rng.normal(0.0, sd_a, num_samples)
        bob = rng.normal(0.0, sd_b, num_samples)
        sig = gain_a * alice + gain_b * bob
        outcome = sig + rng.normal(0.0, noise_sd, num_samples)
        var_s = float(np.var(sig))
        if var_s <= 0.0:
            continue
        rho = float(np.cov(sig, outcome, ddof=0)[0, 1]) / math.sqrt(
            var_s * float(np.var(outcome))
        )
        rho = min(max(rho, -1.0 + 1e-15), 1.0 - 1e-15)
        rate += -0.5 * math.log2(1.0 - rho * rho)
        se = rho / (math.sqrt(num_samples) * math.log(2.0))
        var += se * se
    return HeterodyneEstimate(rate, math.sqrt(var))
