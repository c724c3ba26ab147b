"""The scalar rate kernels, re-exported from :mod:`bosonic_mac._core_py`.

The rest of the package reaches the kernels through this module.
``impl`` is the kernel module itself and ``BACKEND`` names it in
provenance records.  The piecewise rate rule comes in two forms: the
composed pieces (``big_g*_raw``), which ``rate_triple`` evaluates one
point at a time and the tests use, and ``rate_columns``, the one flat
sweep kernel, pinned to them bit for bit.
"""

from . import _core_py as impl
from ._core_py import (
    BACKEND,
    big_g11_raw,
    big_g12_raw,
    big_g12_simplified_raw,
    big_g2_raw,
    displacement_photons,
    g_entropy,
    heterodyne_rate_raw,
    homodyne_rate_raw,
    point_to_point_raw,
    rate_columns,
    rate_triple,
    received_photon_pair,
    receiver_variances,
    squeezing_cost,
)
