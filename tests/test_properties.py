"""Invariants of the rate kernel as properties over its whole domain."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bosonic_mac import _kernels as kernels  # noqa: E402

ETA = st.floats(0.0, 1.0)
N_THERMAL = st.one_of(st.just(0.0), st.floats(0.0, 1e17))
#: From 0 through the subnormals to 1e17.
PHOTONS = st.floats(0.0, 1e17)
#: Signed share of a budget spent on squeezing.
FRACTION = st.floats(-1.0, 1.0)
#: The signed fractions of a sweep's rows or columns.
FRACTIONS = st.lists(FRACTION, min_size=1, max_size=4)


def _squeezing(fraction, n):
    """The signed squeezing that spends ``fraction`` of the budget ``n``."""
    return math.copysign(math.asinh(math.sqrt(abs(fraction) * n)), fraction)


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
    r_a = _squeezing(f_a, n_a)
    r_b = _squeezing(f_b, n_b)
    channel = (eta1, eta2, n_thermal, n_a, n_b)
    assert _outcome(*channel, -r_a, -r_b) == _outcome(*channel, r_a, r_b)


def _columns_outcome(fn):
    """The rate columns ``fn`` returns as float.hex, None for a skipped
    one, or the type and message of the error it raises."""
    try:
        return [None if column is None else [x.hex() for x in column] for column in fn()]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(ETA, ETA, N_THERMAL, PHOTONS, PHOTONS, FRACTIONS, FRACTIONS, st.booleans())
# Branch ties n == |V1 - V2| > 0, for Alice and for Bob: the two branches
# round differently there, so only the tie rule gives the point path's bits.
@example(0.1, 0.37, 0.7, 4.081130358123837, 0.7, [0.0], [0.25], True)
@example(0.22, 0.94, 2.6, 1.6, 0.4582790894922851, [0.75], [0.0], False)
def test_rate_columns_match_a_rate_triple_loop(eta1, eta2, n_thermal, n_a, n_b, f_a, f_b,
                                               sum_column):
    # The sweep kernel's unrolled blocks against the point path, cell by
    # cell in row-major order.
    r_a = [_squeezing(f, n_a) for f in f_a]
    r_b = [_squeezing(f, n_b) for f in f_b]
    channel = (eta1, eta2, n_thermal, n_a, n_b)

    def loop():
        cells = [kernels.rate_triple(*channel, x, y) for x in r_a for y in r_b]
        return ([c[0] for c in cells], [c[2] for c in cells],
                [c[4] for c in cells] if sum_column else None)

    assert _columns_outcome(lambda: kernels.rate_columns(*channel, r_a, r_b, sum_column)) == \
        _columns_outcome(loop)
