"""The sweep kernel's two bodies against the composition of the public
pieces, and against each other."""

import functools
import itertools
import math
import random

import numpy as np
import pytest

from bosonic_mac import _core_py
from grid_reference import rate_grid

#: The two bodies of ``rate_columns``: the cell loop, and the numpy body
#: that runs once numpy is loaded.
BODIES = {
    "loop": _core_py._rate_columns_loop,
    "numpy": functools.partial(_core_py._rate_columns_numpy, np),
}


def _piecewise(n, v1, v2, g2):
    """The piecewise rule composed from the g kernels."""
    if n >= abs(v1 - v2):
        rate = _core_py.big_g11_raw(n, v1, v2) - g2
        branch = 1
    else:
        rate = _core_py.big_g12_raw(n, v1, v2) - g2
        branch = 2
    return (rate if rate > 0.0 else 0.0), branch


def _reference_triple(v1, v2, nca, ncb):
    g2 = _core_py.big_g2_raw(v1, v2)
    ra, br_a = _piecewise(nca, v1, v2, g2)
    rb, br_b = _piecewise(ncb, v1, v2, g2)
    rab, br_ab = _piecewise(nca + ncb, v1, v2, g2)
    return ra, br_a, rb, br_b, rab, br_ab


def _outcome(fn, *args):
    """The result with every float as float.hex, or the type and message
    of the error raised."""
    try:
        return [x.hex() if isinstance(x, float) else x for x in fn(*args)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _random_point(rng):
    """``rate_triple`` arguments of a random channel and budget: eta at 0,
    1 or uniform, pure loss or not, photon numbers from 1e-9 to 1e17, and
    squeeze fractions 0, 1 or uniform with either sign."""
    eta = lambda: rng.choice((0.0, 1.0, rng.random()))  # noqa: E731
    eta1, eta2 = eta(), eta()
    n_thermal = rng.choice((0.0, rng.uniform(0.0, 5.0)))
    n_a, n_b = (10.0 ** rng.uniform(-9.0, 17.0) for _ in range(2))
    r_a, r_b = (rng.choice((-1, 1)) * math.asinh(math.sqrt(rng.choice((0.0, 1.0, rng.random())) * n))
                for n in (n_a, n_b))
    return eta1, eta2, n_thermal, n_a, n_b, r_a, r_b


def _cell(eta1, eta2, n_thermal, n_a, n_b, r_a, r_b):
    """(V1, V2, nca, ncb) of one point."""
    v1, v2 = _core_py.receiver_variances(eta1, eta2, n_thermal, r_a, r_b)
    return (v1, v2, *_core_py.received_photon_pair(eta1, eta2, n_a, n_b, r_a, r_b))


def _one_cell_columns(eta1, eta2, n_thermal, n_a, n_b, r_a, r_b):
    """The three rates of the loop body of ``rate_columns`` on the one-cell
    grid of a point (the numpy body would add about 20 s here; it is
    pinned to the loop's reference below)."""
    (r_max_a,), (r_max_b,), (r_max_ab,) = _core_py._rate_columns_loop(
        eta1, eta2, n_thermal, n_a, n_b, [r_a], [r_b])
    return r_max_a, r_max_b, r_max_ab


def _switch_cells():
    """Branch-2 cells on both sides of the reduced-form switch: V_max near
    2**26 (V_min + n), and the factored argument's own rounding around it."""
    cells = []
    for v_min, n in ((0.3, 0.05), (0.25, 1e-9), (2.0, 0.5)):
        for scale in (1 - 1e-6, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6):
            v_max = _core_py._G12_REDUCE_RATIO * (v_min + n) * scale
            cells += [(v_max, v_min, n, 0.0), (v_min, v_max, 0.0, n)]
    return cells


#: Cells that raise: an unphysical variance pair, whose g2 argument is
#: negative; a negative signal photon number, whose branch-2 argument is
#: negative in both forms or whose square root fails; and both, where g2
#: raises first.
RAISING_CELLS = [
    (0.1, 0.1, 1.0, 1.0),
    (0.1, 0.2, 0.5, 0.0),
    (0.25, 0.3, -0.2, 0.0),
    (0.25, 0.3, 0.0, -0.2),
    (0.5, 0.6, 0.0, -5.0),
    (0.5, 0.6, -5.0, 0.0),
    (0.1, 0.1, -5.0, -5.0),
]

#: Non-finite variances and photon numbers.
SPECIAL_CELLS = [
    (math.inf, 0.25, 1.0, 1.0),
    (0.25, math.nan, 1.0, 1.0),
    (0.5, 0.5, math.inf, 1.0),
    (0.5, 0.5, math.nan, 0.0),
    (1e308, 1e308, 1e308, 1e308),
]


def test_flat_kernel_matches_the_composed_rule():
    # The flat sweep kernel, one cell at a time: it forms each cell's
    # variances and signal photons in receiver_variances' and
    # received_photon_pair's association, so it has the composed rule's
    # bits on the cell they give.  No random point raises.
    rng = random.Random(20241018)
    branches = set()
    for point in (_random_point(rng) for _ in range(200_000)):
        want = _outcome(_reference_triple, *_cell(*point))
        assert _outcome(_one_cell_columns, *point) == want[0::2], point
        branches.update(want[1::2])
    assert branches == {1, 2}
    # Constructed cells go through the point path's composition: the
    # coherent branch tie, where nothing is sent, so n == |V1 - V2| == 0,
    # both sides of the reduced-form switch, the raising cells and the
    # non-finite ones.
    tie = (*_core_py.receiver_variances(0.5, 0.9, 1.0, 0.0, 0.0), 0.0, 0.0)
    cells = [tie, *_switch_cells(), *RAISING_CELLS, *SPECIAL_CELLS]
    branches = set()
    raised = []
    for cell in cells:
        got = _outcome(_core_py._triple, *cell)
        assert got == _outcome(_reference_triple, *cell), cell
        if isinstance(got, list):
            branches.update(got[1::2])
        else:
            raised.append(got)
    assert branches == {1, 2}
    # Some switch cells keep the factored branch-2 argument, some take the
    # reduced one.
    assert {_core_py._g12_arg(nca + ncb, v1, v2) == _core_py._g12_reduced_arg(nca + ncb, v1, v2)
            for v1, v2, nca, ncb in _switch_cells()} == {True, False}
    assert _core_py._triple(*tie) == (0.0, 1, 0.0, 1, 0.0, 1)
    assert len(raised) == len(RAISING_CELLS)
    assert {kind for kind, _ in raised} == {ValueError}
    assert {message.split(",")[0] for _, message in raised} == {
        "mean photon number must be >= 0", "math domain error"}


def _random_grid(rng):
    """rate_grid arguments: a channel as in ``_random_point``, or now and
    then an unphysical one whose cells raise, and rows and columns of
    squeezings that start at 0 as a sweep does, or at any value, within
    the budget or, rarely, past it."""
    eta = lambda: rng.choice((0.0, 1.0, rng.random(), rng.random(), -0.5, 1.5))  # noqa: E731
    eta1, eta2 = eta(), eta()
    n_thermal = rng.choice((0.0, rng.uniform(0.0, 5.0)))
    n_a, n_b = (rng.choice((0.0, 10.0 ** rng.uniform(-9.0, 17.0))) for _ in range(2))
    return eta1, eta2, n_thermal, n_a, n_b, _squeezings(rng, n_a), _squeezings(rng, n_b)


def _squeezings(rng, n):
    """Up to five squeezings of a total ``n``, or none."""
    full = math.asinh(math.sqrt(n))
    values = [rng.choice((-1, 1)) * full * rng.choice((0.0, 1.0, rng.random()))
              for _ in range(rng.randrange(5))]
    if rng.random() < 0.5:
        values.insert(0, 0.0)
    if rng.random() < 0.05:
        values.append(rng.choice((1.5 * full + 1.0, 400.0)))
    return values


def _extreme_grid(rng):
    """rate_grid arguments at the edges of the physical domain: eta at 0,
    1 or uniform, thermal photons 0 or 1e-12 to 1e12, and photon numbers
    0, the least subnormal, or from the subnormals to 1e15."""
    eta = lambda: rng.choice((0.0, 1.0, rng.random()))  # noqa: E731
    eta1, eta2 = eta(), eta()
    n_thermal = rng.choice((0.0, 10.0 ** rng.uniform(-12.0, 12.0)))
    n_a, n_b = (rng.choice((0.0, 5e-324, 10.0 ** rng.uniform(-323.0, 15.0))) for _ in range(2))
    return eta1, eta2, n_thermal, n_a, n_b, _squeezings(rng, n_a), _squeezings(rng, n_b)


#: Grids past the random ones: branch ties, empty row and column lists (a
#: raising row term still raises without columns), the lossless corner,
#: eta at 0 and 1 with the largest thermal floor and totals, and
#: subnormal totals.
EDGE_GRIDS = [
    # The coherent branch tie, where nothing is sent: n == |V1 - V2| == 0,
    # where both branches give the same bits ...
    (0.5, 0.9, 1.0, 0.0, 0.0, [0.0], [0.0]),
    # ... and ties n == |V1 - V2| > 0, for Alice, for Bob and for the sum,
    # where the two branches round differently, so only the tie rule
    # (branch 1 at n >= |V1 - V2|) gives rate_grid's bits.
    (0.1, 0.37, 0.7, 4.081130358123837, 0.7, [0.0], [math.asinh(math.sqrt(0.25 * 0.7))]),
    (0.22, 0.94, 2.6, 1.6, 0.4582790894922851, [math.asinh(math.sqrt(0.75 * 1.6))], [0.0]),
    (0.33, 0.85, 1.9, 3.7, 0.21976645553960067, [math.asinh(math.sqrt(0.5 * 3.7))], [0.0]),
    (0.5, 0.9, 1.0, 1.0, 1.0, [], [0.0]),
    (0.5, 0.9, 1.0, 1.0, 1.0, [0.0], []),
    (0.5, 0.9, 1.0, 1.0, 1.0, [], []),
    (0.5, 0.9, 1.0, 1.0, 1.0, [400.0], []),
    (1.0, 1.0, 0.0, 100.0, 0.0, [0.0, -math.asinh(math.sqrt(50.0)), math.asinh(10.0)], [0.0]),
    *[(eta1, eta2, 1e12, 1e15, 1e15, [0.0, math.asinh(math.sqrt(5e14))], [0.0, -1.0])
      for eta1, eta2 in itertools.product((0.0, 1.0, 0.5), repeat=2)],
    (0.5, 0.9, 1.0, 5e-324, 5e-324, [0.0, 1e-162], [0.0, -1e-162]),
    (0.5, 0.9, 0.0, 1e-310, 2.2e-308, [0.0], [0.0, math.asinh(math.sqrt(1e-310))]),
    # Negative signal photon numbers (eta1 < 0) near -V_min.  Here the
    # factored branch-2 argument is about -1/2, and the reduced form takes
    # the square root of a negative; ...
    (-0.9960803519594165, 0.5232371567702032, 4.26407653073475, 1.9290567748218703,
     2408.6075507862092, [0.0], [4.5866529986883435]),
    # ... here the factored form does, while the reduced one would give a
    # valid argument.
    (-0.2853628415373939, 0.7123599758636073, 2.424165375512313, 1.818827687587206,
     7671548274.584548, [0.0], [12.073539327116297]),
    # Non-finite thermal photons: every rate is NaN before the clamp to 0.
    (0.5, 0.9, math.inf, 1.0, 1.0, [0.0, 0.5], [0.0]),
    (0.5, 0.9, math.nan, 1.0, 1.0, [0.0], [0.0, -0.5]),
]


def _columns_of_grid(*args):
    cells = rate_grid(*args)
    return [[cell[k] for cell in cells] for k in (0, 2, 4)]


def _column_outcome(fn, *args):
    """The rate lists as float.hex, a skipped one as None, or the type and
    message of the error raised."""
    try:
        return [None if column is None else [x.hex() for x in column] for column in fn(*args)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _grids(seed):
    """The 20,000 random grids of ``seed``, then 2,000 extreme ones and
    EDGE_GRIDS."""
    rng = random.Random(seed)
    grids = [_random_grid(rng) for _ in range(20_000)]
    return grids + [_extreme_grid(rng) for _ in range(2_000)] + EDGE_GRIDS


# Each body in turn; no numpy warning may leak out of the numpy body.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_columns_match_rate_grid():
    grids = _grids(20241019)
    wants = [_column_outcome(_columns_of_grid, *args) for args in grids]
    for body, rate_columns in BODIES.items():
        kinds = set()
        for args, want in zip(grids, wants):
            got = _column_outcome(rate_columns, *args)
            assert got == want, (body, args)
            kinds.add(got[0] if isinstance(got, tuple) else "rates")
            if isinstance(got, tuple):
                kinds.add(got[1].split(",")[0].split(" ")[0])
        # Both error types, and each of the messages: the squeezing check,
        # the negative argument, the square root's domain and the exp
        # overflow.
        assert kinds == {"rates", ValueError, OverflowError,
                         "squeezing", "mean", "math"}, body
        assert rate_columns(0.5, 0.9, 1.0, 0.0, 0.0, [0.0], [0.0]) == ([0.0], [0.0], [0.0])


#: The column flags of ``rate_columns``, in its argument order (sum,
#: alice, bob).
FLAG_TRIPLES = list(itertools.product((True, False), repeat=3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_columns_without_the_sum_column():
    # The sweeps skip the columns they do not read.  On every grid, in each
    # body, the sum flag alone keeps the three-column call's Alice and Bob
    # columns bit for bit, or the same error comes up.  On every tenth
    # grid each of the eight flag triples keeps the columns it names and
    # returns None for the others; where the three-column call raises, a
    # skipped column's error does not come up, and the two bodies give the
    # same outcome.
    grids = _grids(20241019)
    outcomes = {body: set() for body in BODIES}
    for i, args in enumerate(grids):
        full = {body: _column_outcome(fn, *args) for body, fn in BODIES.items()}
        for flags in FLAG_TRIPLES if i % 10 == 0 else [(False, True, True)]:
            got = {body: _column_outcome(fn, *args, *flags) for body, fn in BODIES.items()}
            for body, outcome in got.items():
                if not isinstance(full[body], tuple):
                    sum_column, alice_column, bob_column = flags
                    assert outcome == [column if keep else None for column, keep in
                                       zip(full[body], (alice_column, bob_column, sum_column))], \
                        (body, args, flags)
                elif flags == (False, True, True):
                    assert outcome == full[body], (body, args)
                outcomes[body].add(outcome[0] if isinstance(outcome, tuple) else "rates")
            assert got["numpy"] == got["loop"], (args, flags)
    assert outcomes == {body: {"rates", ValueError, OverflowError} for body in BODIES}
