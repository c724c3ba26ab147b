"""Gaussian-input rates, capacity regions and outer bounds for the
two-user lossy bosonic multiple access channel with thermal noise.

The scalar rate kernels live in :mod:`bosonic_mac._core_py`, reached
through :mod:`bosonic_mac._kernels`.  Only the beamsplitter-network
oracle (:mod:`bosonic_mac.network`) and :mod:`bosonic_mac.verification`
use numpy.  The package serves the network names through a module
``__getattr__`` that imports :mod:`bosonic_mac.network` on first use, so
``import bosonic_mac`` does not load numpy.
"""

from types import ModuleType as _ModuleType

from ._kernels import BACKEND
from .asymptotics import (
    CaseThreeConfig,
    LimitProbe,
    high_power_heterodyne_probe,
    high_power_heterodyne_ratio,
    homodyne_asymptotic_ratio,
    homodyne_half_probe,
    low_power_alice_first_probe,
    low_power_bob_first_probe,
    low_power_simultaneous_probes,
    max_bob_scale_branch1,
    receiver_gap_probes,
)
from .gaussian_core import (
    ChannelParams,
    CovMatrix2,
    InputError,
    PhotonBudget,
    SqueezeFractions,
    g_entropy,
    input_covariances,
    received_photons,
    receiver_covariance,
    squeezing_cost,
)
from .rates import (
    Branch,
    RateBundle,
    Receiver,
    User,
    big_g11,
    big_g12,
    big_g2,
    heterodyne_sum_rate,
    homodyne_sum_rate,
    individual_rate,
    outer_bound,
    point_to_point,
    rate_bundle,
    receiver_individual_rates,
    sum_rate,
    sum_rate_capacity_coherent,
)
from .region import (
    Objective,
    Pentagon,
    RatePoint,
    RateRegion,
    SqueezeSurface,
    build_region,
    global_constraint_scan,
    optimize_squeezing,
    pentagon_at,
    squeeze_surface,
)

__version__ = "0.1.0"

#: Public names of :mod:`bosonic_mac.network`, served by ``__getattr__``.
_NETWORK_NAMES = (
    "Beamsplitter",
    "BeamsplitterNetwork",
    "ModeEnsemble",
    "canonical_network",
    "mac_input_ensemble",
    "mac_network",
    "mc_heterodyne_rate",
    "mode_transform",
    "propagate",
)

#: Every public name imported above, then the network names.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_NETWORK_NAMES)


def __getattr__(name):
    if name in _NETWORK_NAMES:
        from . import network

        return getattr(network, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
