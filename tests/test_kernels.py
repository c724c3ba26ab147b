"""The flat sweep kernel against the composition of the public pieces."""

import math
import random

from bosonic_mac import _core_py
from grid_reference import rate_grid


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
    """The three rates of ``rate_columns`` on the one-cell grid of a point."""
    (r_max_a,), (r_max_b,), (r_max_ab,) = _core_py.rate_columns(
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

    def squeezings(n):
        full = math.asinh(math.sqrt(n))
        values = [rng.choice((-1, 1)) * full * rng.choice((0.0, 1.0, rng.random()))
                  for _ in range(rng.randrange(5))]
        if rng.random() < 0.5:
            values.insert(0, 0.0)
        if rng.random() < 0.05:
            values.append(rng.choice((1.5 * full + 1.0, 400.0)))
        return values

    return eta1, eta2, n_thermal, n_a, n_b, squeezings(n_a), squeezings(n_b)


def _columns_of_grid(*args):
    cells = rate_grid(*args)
    return [[cell[k] for cell in cells] for k in (0, 2, 4)]


def _column_outcome(fn, *args):
    try:
        return [[x.hex() for x in column] for column in fn(*args)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def test_rate_columns_match_rate_grid():
    rng = random.Random(20241019)
    grids = [_random_grid(rng) for _ in range(20_000)]
    # The coherent branch tie and an empty row or column list.
    grids += [(0.5, 0.9, 1.0, 0.0, 0.0, [0.0], [0.0]),
              (0.5, 0.9, 1.0, 1.0, 1.0, [], [0.0]), (0.5, 0.9, 1.0, 1.0, 1.0, [0.0], [])]
    kinds = set()
    for args in grids:
        got = _column_outcome(_core_py.rate_columns, *args)
        assert got == _column_outcome(_columns_of_grid, *args), args
        kinds.add(got[0] if isinstance(got, tuple) else "rates")
        if isinstance(got, tuple):
            kinds.add(got[1].split(",")[0].split(" ")[0])
    # Both error types, and each of the messages: the squeezing check, the
    # negative argument, the square root's domain and the exp overflow.
    assert kinds == {"rates", ValueError, OverflowError,
                     "squeezing", "mean", "math"}
    assert _core_py.rate_columns(0.5, 0.9, 1.0, 0.0, 0.0, [0.0], [0.0]) == ([0.0], [0.0], [0.0])


def _two_columns(*args):
    r_max_a, r_max_b, r_max_ab = _core_py.rate_columns(*args, False)
    assert r_max_ab is None
    return r_max_a, r_max_b


def test_rate_columns_without_the_sum_column():
    # The sweeps that read only the individual rates skip the sum column:
    # the two columns they keep are the three-column call's, bit for bit,
    # or the same error comes up.
    rng = random.Random(20241019)
    grids = [_random_grid(rng) for _ in range(20_000)]
    grids += [(0.5, 0.9, 1.0, 0.0, 0.0, [0.0], [0.0]),
              (0.5, 0.9, 1.0, 1.0, 1.0, [], [0.0]), (0.5, 0.9, 1.0, 1.0, 1.0, [0.0], [])]
    outcomes = set()
    for args in grids:
        want = _column_outcome(_core_py.rate_columns, *args)
        got = _column_outcome(_two_columns, *args)
        assert got == (want if isinstance(want, tuple) else want[:2]), args
        outcomes.add(got[0] if isinstance(got, tuple) else "rates")
    assert outcomes == {"rates", ValueError, OverflowError}
