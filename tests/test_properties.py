"""Invariants of the rate kernel as properties over its whole domain."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bosonic_mac import _kernels as kernels  # noqa: E402

ETA = st.floats(0.0, 1.0)
N_THERMAL = st.one_of(st.just(0.0), st.floats(0.0, 1e17))
#: From 0 through the subnormals to 1e17.
PHOTONS = st.floats(0.0, 1e17)
#: Signed share of a budget spent on squeezing.
FRACTION = st.floats(-1.0, 1.0)


def _outcome(*args):
    """rate_triple's result with every float as float.hex, or the type and
    message of the error it raises."""
    try:
        return [x.hex() if isinstance(x, float) else x for x in kernels.rate_triple(*args)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(ETA, ETA, N_THERMAL, PHOTONS, PHOTONS, FRACTION, FRACTION)
def test_mirrored_squeezing_gives_the_same_rates(eta1, eta2, n_thermal, n_a, n_b, f_a, f_b):
    # Flipping both squeezing signs swaps V1 and V2, which no rate can see;
    # the squeeze surface and the optimizer compute only one of each pair
    # of mirrored sign layers on this equality.
    r_a = math.copysign(math.asinh(math.sqrt(abs(f_a) * n_a)), f_a)
    r_b = math.copysign(math.asinh(math.sqrt(abs(f_b) * n_b)), f_b)
    channel = (eta1, eta2, n_thermal, n_a, n_b)
    assert _outcome(*channel, -r_a, -r_b) == _outcome(*channel, r_a, r_b)
