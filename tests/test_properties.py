"""Invariants of the rate kernel as properties over its whole domain."""

import math
import sys

import numpy  # noqa: F401  (loaded, so rate_columns runs its numpy body)
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bosonic_mac import ChannelParams, PhotonBudget, User  # noqa: E402
from bosonic_mac import _kernels as kernels  # noqa: E402
from bosonic_mac.rates import outer_bound, sum_rate_capacity_coherent  # noqa: E402
from bosonic_mac.region import SCAN_MARGIN_ABS, SCAN_MARGIN_REL  # noqa: E402

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
# Branch ties n == |V1 - V2| > 0, for Alice, for Bob and for the sum: the
# two branches round differently there, so only the tie rule gives the
# point path's bits.
@example(0.1, 0.37, 0.7, 4.081130358123837, 0.7, [0.0], [0.25], True)
@example(0.22, 0.94, 2.6, 1.6, 0.4582790894922851, [0.75], [0.0], False)
@example(0.33, 0.85, 1.9, 3.7, 0.21976645553960067, [0.5], [0.0], True)
def test_rate_columns_match_a_rate_triple_loop(eta1, eta2, n_thermal, n_a, n_b, f_a, f_b,
                                               sum_column):
    # Both bodies of the sweep kernel against the point path, cell by cell
    # in row-major order: the numpy body, which runs here since numpy is
    # loaded, and the cell loop, which runs where numpy is not, as in every
    # CLI process.
    r_a = [_squeezing(f, n_a) for f in f_a]
    r_b = [_squeezing(f, n_b) for f in f_b]
    channel = (eta1, eta2, n_thermal, n_a, n_b)

    def loop():
        cells = [kernels.rate_triple(*channel, x, y) for x in r_a for y in r_b]
        return ([c[0] for c in cells], [c[2] for c in cells],
                [c[4] for c in cells] if sum_column else None)

    def columns():
        return kernels.rate_columns(*channel, r_a, r_b, sum_column)

    want = _columns_outcome(loop)
    assert _columns_outcome(columns) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "numpy", None)
        assert _columns_outcome(columns) == want


#: The global-budget scan's pruning domain (region.SCAN_PRUNE_MAX_*): eta
#: at 0, 1/2, 1 and just below 1, or down to 1e-300; thermal photons 0 or
#: 1e-12 to 1e12; photon numbers from 0 through the subnormals to 1e15.
SCAN_ETA = st.one_of(st.sampled_from((0.0, 0.5, 1.0, math.nextafter(1.0, 0.0))),
                     st.floats(0.0, 1.0), st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))
SCAN_THERMAL = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e))
SCAN_PHOTONS = st.one_of(st.just(0.0), st.floats(0.0, 20.0),
                         st.floats(-323.0, 15.0).map(lambda e: 10.0 ** e))
#: A user's photon number and a signed squeezing within it.
SCAN_USER = st.tuples(SCAN_PHOTONS, FRACTION).map(lambda nf: (nf[0], _squeezing(nf[1], nf[0])))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(SCAN_ETA, SCAN_ETA, SCAN_THERMAL, SCAN_USER, SCAN_USER)
# Outer bounds and joint rates that cancel to 0 at eta = 2e-154 (the CLI's
# other defaults).
@example(2e-154, 2e-154, 1.0, (1.0, 0.0), (1.0, 0.0))
# r_max_a about 1e-11 bits over Alice's outer bound, of 2e-14: branch-2
# rounding, inside the margin.
@example(0.146, 0.139, 5.71e4, (4.94e-9, -8.54e-6), (5.47e10, -13.0))
# Branch 2 with V_max / (V_min + n) about 3.3e6, where the factored
# argument loses digits: Alice, who only squeezes, gets 1.7e-9 bits.
@example(0.5, 0.9, 0.0, (1e6, math.asinh(1e3)), (1e-3, 0.0))
def test_rates_stay_under_the_scan_ceilings(eta1, eta2, n_thermal, alice, bob):
    # The global-budget scan skips a split's column when its ceiling falls
    # below the best by more than the margin; that is exact only if no
    # computed rate exceeds its computed ceiling by more than the margin.
    # The ceilings: the outer bound for each user, the coherent sum
    # capacity for the sum.
    (n_a, r_a), (n_b, r_b) = alice, bob
    params, budget = ChannelParams(eta1, eta2, n_thermal), PhotonBudget(n_a, n_b)
    r_max_a, _, r_max_b, _, r_max_ab, _ = kernels.rate_triple(
        eta1, eta2, n_thermal, n_a, n_b, r_a, r_b)
    for rate, ceiling in ((r_max_a, outer_bound(params, budget, User.ALICE)),
                          (r_max_b, outer_bound(params, budget, User.BOB)),
                          (r_max_ab, sum_rate_capacity_coherent(params, budget))):
        assert rate <= ceiling + SCAN_MARGIN_ABS + SCAN_MARGIN_REL * rate
