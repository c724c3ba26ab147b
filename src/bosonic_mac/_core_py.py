"""Scalar kernels for the rate formulas.

These are the package's only implementation of the closed forms; the
other modules call them through :mod:`bosonic_mac._kernels`.

Conventions used throughout:

* vacuum quadrature variance is 1/4,
* all rates are in bits,
* squeezing parameters are signed, positive r inflates the first
  quadrature variance by exp(2r),
* a receiver mode is given by its two quadrature variances (V1, V2)
  alone: every input is squeezed along the quadrature axes and every
  beamsplitter is phase-free, so no state this package builds has a
  cross covariance, and the kernels take none.

The piecewise rate rule has two forms here.  The pieces ``big_g2_raw``,
``big_g11_raw`` and ``big_g12_raw`` evaluate its terms one at a time, and
``_triple`` composes them into the three rates of one cell: this is the
point path, ``rate_triple``, and the form the continuity check and the
tests use.  ``rate_columns``, the squeeze sweeps' kernel, writes the
pieces out over a grid of cells, in the same operations and order, so
each cell equals ``rate_triple`` bit for bit.  It has two bodies with the
same bits and errors: a cell loop, ``_rate_columns_loop``, which runs
while numpy is not loaded (in every command that sweeps), and a numpy
body, ``_rate_columns_numpy``, which runs once other code has loaded
numpy and keeps every exp and log1p in ``math``.  The tests pin the loop
to the composed pieces and the numpy body to both.
"""

import math
import sys
from math import log1p, sqrt

BACKEND = "python"

_LN2 = math.log(2.0)
_NEG_TOL = 1e-12


def _negative_photon_error(x):
    return ValueError(f"mean photon number must be >= 0, got {x}")


def g_entropy(x):
    """Entropy in bits of a thermal state with mean photon number ``x``.

    g(x) = (1+x) log2(1+x) - x log2(x), evaluated in the rearranged form
    log2(1+x) + x log2(1+1/x) which stays accurate for both tiny and very
    large arguments.
    """
    if x < -_NEG_TOL:
        raise _negative_photon_error(x)
    if x < 1e-300:
        return 0.0
    return (math.log1p(x) + x * math.log1p(1.0 / x)) / _LN2


def squeezing_cost(r):
    """Photons consumed by squeezing parameter ``r``: cosh(2r)/2 - 1/2 = sinh(r)^2."""
    s = math.sinh(r)
    return s * s


def displacement_photons(n, r):
    """Photons left for displacement out of a budget ``n`` after squeezing by ``r``."""
    cost = squeezing_cost(r)
    if cost > n * (1.0 + 1e-9) + 1e-12:
        raise ValueError(
            f"squeezing cost {cost} exceeds the photon budget {n}"
        )
    rest = n - cost
    return rest if rest > 0.0 else 0.0


def receiver_variances(eta1, eta2, n_thermal, r_a, r_b):
    """Quadrature variances (V1, V2) of the mode arriving at the receiver."""
    t = (1.0 - eta2) * (2.0 * n_thermal + 1.0)
    wa = eta1 * eta2
    wb = (1.0 - eta1) * eta2
    v1 = 0.25 * (wa * math.exp(2.0 * r_a) + wb * math.exp(2.0 * r_b) + t)
    v2 = 0.25 * (wa * math.exp(-2.0 * r_a) + wb * math.exp(-2.0 * r_b) + t)
    return v1, v2


def received_photon_pair(eta1, eta2, n_a, n_b, r_a, r_b):
    """Signal mean photon numbers reaching the receiver from each transmitter."""
    nca = eta1 * eta2 * displacement_photons(n_a, r_a)
    ncb = (1.0 - eta1) * eta2 * displacement_photons(n_b, r_b)
    return nca, ncb


def big_g11_raw(n, v1, v2):
    return g_entropy(v1 + v2 + n - 0.5)


#: V_max over V_min + n beyond which the factored branch-2 argument has
#: lost about half its digits to cancellation.
_G12_REDUCE_RATIO = 2.0**26


def _g12_reduced_arg(n, v1, v2):
    """The branch-2 argument in reduced form 2 sqrt((V_min + n) V_max) - 1/2."""
    lo, hi = (v1, v2) if v1 <= v2 else (v2, v1)
    return 2.0 * math.sqrt((lo + n) * hi) - 0.5


def _g12_arg(n, v1, v2):
    # Difference of squares factored exactly; avoids cancellation when n
    # dwarfs the variances.  Both factors are positive because
    # (v1+v2)/2 exceeds |v1-v2|/2 for positive variances.  The low factor
    # is V_min + n formed as (V_max + V_min)/2 + n - (V_max - V_min)/2, so
    # it cancels once V_max dwarfs V_min + n, and in the lossless corner
    # it loses the exact 0 of a pure state: there the reduced form holds.
    half_sum = 0.5 * (v1 + v2)
    s = abs(0.5 * (v1 - v2))
    low = half_sum + n - s
    high = half_sum + s
    arg = 2.0 * math.sqrt(low * high) - 0.5
    if arg < -_NEG_TOL or high > _G12_REDUCE_RATIO * low:
        return _g12_reduced_arg(n, v1, v2)
    return arg


def big_g12_raw(n, v1, v2):
    return g_entropy(_g12_arg(n, v1, v2))


def big_g12_simplified_raw(n, v1, v2):
    return g_entropy(_g12_reduced_arg(n, v1, v2))


def big_g2_raw(v1, v2):
    det = v1 * v2
    return g_entropy(2.0 * math.sqrt(det) - 0.5)


def _triple(v1, v2, nca, ncb):
    """Holevo-limit rates of Alice's ``nca``, Bob's ``ncb`` and their sum
    of received signal photons on a receiver mode with variances (V1, V2),
    as ``(r_a, branch_a, r_b, branch_b, r_ab, branch_ab)``.

    Each rate is one piece of the rule minus ``big_g2_raw``, clamped at 0:
    ``big_g11_raw`` (branch 1) when the received signal n covers the
    variance asymmetry |V1 - V2|, else ``big_g12_raw`` (branch 2).  Ties
    go to branch 1; the two branches agree there in exact arithmetic.
    """
    g2 = big_g2_raw(v1, v2)
    diff = abs(v1 - v2)
    out = []
    for n in (nca, ncb, nca + ncb):
        if n >= diff:
            rate, branch = big_g11_raw(n, v1, v2) - g2, 1
        else:
            rate, branch = big_g12_raw(n, v1, v2) - g2, 2
        out += (rate if rate > 0.0 else 0.0, branch)
    return tuple(out)


def rate_triple(eta1, eta2, n_thermal, n_a, n_b, r_a, r_b):
    """Individual and sum rates in one pass.

    Returns ``(r_a_max, branch_a, r_b_max, branch_b, r_ab_max, branch_ab)``.
    """
    v1, v2 = receiver_variances(eta1, eta2, n_thermal, r_a, r_b)
    nca, ncb = received_photon_pair(eta1, eta2, n_a, n_b, r_a, r_b)
    return _triple(v1, v2, nca, ncb)


def rate_columns(eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values, sum_column=True,
                 alice_column=True, bob_column=True):
    """``rate_triple`` at every (r_a, r_b) of ``r_a_values`` x ``r_b_values``,
    without its branch flags: lists ``(r_max_a, r_max_b, r_max_ab)`` in
    row-major order, each value bit for bit ``rate_triple``'s.  A column
    whose flag (``alice_column``, ``bob_column``, ``sum_column``) is false
    is skipped and returned as None, and only an error of the computed
    columns can come up.

    The exp and displacement terms of each column and each row are formed
    once, and every cell adds them in the association
    ``receiver_variances`` and ``received_photon_pair`` use.  An input
    error comes from the first of: the column terms, in column order; then
    each row's terms, followed by its cells.  The sweeps check the
    full-squeeze limit first, so in a sweep no term raises.

    Two bodies give the same bits and the same errors.  The cell loop,
    ``_rate_columns_loop``, runs when numpy is not loaded, as in every
    command that sweeps: importing numpy for it would cost more than it
    saves.  Once some other code has loaded numpy, ``_rate_columns_numpy``
    runs instead (see ``loaded_numpy``).
    """
    np = loaded_numpy()
    if np is None:
        return _rate_columns_loop(eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values,
                                  sum_column, alice_column, bob_column)
    return _rate_columns_numpy(np, eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values,
                               sum_column, alice_column, bob_column)


def loaded_numpy():
    """The numpy module if some code in this process has imported it, else
    None; never imports it.  This one rule picks each numpy body over its
    Python twin (``rate_columns`` here, the surface serializer in
    ``cli``).  ``sys.modules["numpy"] = None`` hides a loaded numpy from it,
    as from an import, so a test can run the Python bodies in a process
    that has numpy."""
    return sys.modules.get("numpy")


def _channel_terms(eta1, eta2, n_thermal):
    """``(t, wa, wb)``: the thermal term of both receiver variances, and
    the weights of Alice's and Bob's terms, as ``receiver_variances``
    forms them."""
    return (1.0 - eta2) * (2.0 * n_thermal + 1.0), eta1 * eta2, (1.0 - eta1) * eta2


def _user_terms(w, n, r):
    """One user's terms of a sweep cell at squeezing ``r`` and budget
    ``n``, with weight ``w``: its shares ``w e^{2r}`` and ``w e^{-2r}`` of
    the two variances and ``w`` times its displacement photons."""
    return w * math.exp(2.0 * r), w * math.exp(-2.0 * r), w * displacement_photons(n, r)


def _rate_columns_loop(eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values, sum_column=True,
                       alice_column=True, bob_column=True):
    """``rate_columns`` as a cell loop: ``_triple`` with its pieces and
    ``g_entropy`` written out, the same operations in the same order,
    unrolled over the three signal photon numbers, with no call and no
    tuple per cell.  ``tests/test_kernels.py`` pins it to the composed
    pieces by ``float.hex``, and the numpy body to it.
    """
    t, wa, wb = _channel_terms(eta1, eta2, n_thermal)
    columns = [_user_terms(wb, n_b, r_b) for r_b in r_b_values]
    out_a = [] if alice_column else None
    out_b = [] if bob_column else None
    out_ab = [] if sum_column else None
    put_a = out_a.append if alice_column else None
    put_b = out_b.append if bob_column else None
    put_ab = out_ab.append if sum_column else None
    for r_a in r_a_values:
        a1, a2, nca = _user_terms(wa, n_a, r_a)
        for b1, b2, ncb in columns:
            v1 = 0.25 * (a1 + b1 + t)
            v2 = 0.25 * (a2 + b2 + t)
            x = 2.0 * sqrt(v1 * v2) - 0.5
            if x < 1e-300:
                if x < -_NEG_TOL:
                    raise _negative_photon_error(x)
                g2 = 0.0
            else:
                g2 = (log1p(x) + x * log1p(1.0 / x)) / _LN2
            v_sum = v1 + v2
            diff = abs(v1 - v2)
            half_sum = 0.5 * v_sum
            s = 0.5 * diff  # == abs(0.5 * (v1 - v2)): rounding is odd-symmetric
            high = half_sum + s

            if put_a is not None:
                n = nca
                if n >= diff:
                    x = v_sum + n - 0.5
                else:
                    low = half_sum + n - s
                    x = 2.0 * sqrt(low * high) - 0.5
                    if x < -_NEG_TOL or high > _G12_REDUCE_RATIO * low:
                        x = _g12_reduced_arg(n, v1, v2)
                if x < 1e-300:
                    if x < -_NEG_TOL:
                        raise _negative_photon_error(x)
                    put_a(0.0)
                else:
                    rate = (log1p(x) + x * log1p(1.0 / x)) / _LN2 - g2
                    put_a(rate if rate > 0.0 else 0.0)

            if put_b is not None:
                n = ncb
                if n >= diff:
                    x = v_sum + n - 0.5
                else:
                    low = half_sum + n - s
                    x = 2.0 * sqrt(low * high) - 0.5
                    if x < -_NEG_TOL or high > _G12_REDUCE_RATIO * low:
                        x = _g12_reduced_arg(n, v1, v2)
                if x < 1e-300:
                    if x < -_NEG_TOL:
                        raise _negative_photon_error(x)
                    put_b(0.0)
                else:
                    rate = (log1p(x) + x * log1p(1.0 / x)) / _LN2 - g2
                    put_b(rate if rate > 0.0 else 0.0)

            if put_ab is None:
                continue
            n = nca + ncb
            if n >= diff:
                x = v_sum + n - 0.5
            else:
                low = half_sum + n - s
                x = 2.0 * sqrt(low * high) - 0.5
                if x < -_NEG_TOL or high > _G12_REDUCE_RATIO * low:
                    x = _g12_reduced_arg(n, v1, v2)
            if x < 1e-300:
                if x < -_NEG_TOL:
                    raise _negative_photon_error(x)
                put_ab(0.0)
            else:
                rate = (log1p(x) + x * log1p(1.0 / x)) / _LN2 - g2
                put_ab(rate if rate > 0.0 else 0.0)
    return out_a, out_b, out_ab


#: Cells per block of rows in ``_rate_columns_numpy``: its temporary
#: arrays stay near 64 kB each, whatever the number of rows.
_BLOCK_CELLS = 8192


def _rate_columns_numpy(np, eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values,
                        sum_column=True, alice_column=True, bob_column=True):
    """``rate_columns`` with its cell arithmetic on arrays of the numpy
    module ``np``: the loop body's operations in its association, on
    blocks of rows of at most _BLOCK_CELLS cells (or one row).

    Only correctly rounded operations (``+ - * / sqrt abs``, comparisons)
    run in numpy, so each value has the loop's bits; the exp and
    displacement terms and every log1p stay in ``math``, whose results
    numpy's own functions do not always match.  Where a term or a cell
    would raise, the loop body runs instead and raises the loop's error.
    """
    args = (eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values,
            sum_column, alice_column, bob_column)
    t, wa, wb = _channel_terms(eta1, eta2, n_thermal)
    try:
        columns = [_user_terms(wb, n_b, r_b) for r_b in r_b_values]
        rows = [_user_terms(wa, n_a, r_a) for r_a in r_a_values]
    except (ValueError, OverflowError):
        return _rate_columns_loop(*args)
    flags = (alice_column, bob_column, sum_column)
    outs = tuple([] if flag else None for flag in flags)
    if not rows or not columns:
        return outs
    b1, b2, ncb = np.array(columns).T
    a1, a2, nca = np.array(rows).T[:, :, None]
    step = max(1, _BLOCK_CELLS // len(columns))
    with np.errstate(all="ignore"):
        for start in range(0, len(rows), step):
            block = slice(start, start + step)
            rates = _numpy_block(np, t, a1[block], a2[block], nca[block], b1, b2, ncb, flags)
            if rates is None:
                return _rate_columns_loop(*args)
            for out, values in zip(outs, rates):
                if out is not None:
                    out += values
    return outs


def _numpy_block(np, t, a1, a2, nca, b1, b2, ncb, flags):
    """The rate lists of the cells of rows (a1, a2, nca) by columns
    (b1, b2, ncb), in row-major order, None for a column whose flag in
    ``flags`` (Alice, Bob, sum) is false; or None if the loop body would
    raise on one of the cells.

    Both branch-2 forms are formed in every cell; ``raises`` marks each
    cell where the loop would take the square root of a negative or meet
    a g argument below -_NEG_TOL.
    """
    v1 = 0.25 * ((a1 + b1) + t)
    v2 = 0.25 * ((a2 + b2) + t)
    det = v1 * v2
    x = 2.0 * np.sqrt(det) - 0.5
    raises = (det < 0.0) | (x < -_NEG_TOL)
    g2 = np.where(x < 1e-300, 0.0, _g_bits(np, x))
    v_sum = v1 + v2
    diff = np.abs(v1 - v2)
    half_sum = 0.5 * v_sum
    s = 0.5 * diff
    high = half_sum + s
    v1_lower = v1 <= v2
    lo = np.where(v1_lower, v1, v2)
    hi = np.where(v1_lower, v2, v1)
    out = []
    for flag, n in zip(flags, (nca, ncb, nca + ncb)):
        if not flag:
            out.append(None)
            continue
        low = (half_sum + n) - s
        det = low * high
        x = 2.0 * np.sqrt(det) - 0.5
        reduce = (x < -_NEG_TOL) | (high > _G12_REDUCE_RATIO * low)  # _g12_arg
        det_reduced = (lo + n) * hi
        x = np.where(reduce, 2.0 * np.sqrt(det_reduced) - 0.5, x)
        branch_1 = n >= diff
        x = np.where(branch_1, (v_sum + n) - 0.5, x)
        raises |= (~branch_1 & ((det < 0.0) | (reduce & (det_reduced < 0.0)))) | (x < -_NEG_TOL)
        rate = _g_bits(np, x) - g2
        out.append(np.where((x < 1e-300) | ~(rate > 0.0), 0.0, rate).ravel())
    if raises.any():
        return None
    return [None if rates is None else rates.tolist() for rates in out]


def _g_bits(np, x):
    """``g_entropy``'s (log1p(x) + x log1p(1/x)) / ln 2 at each x of the
    array ``x`` not below 1e-300, with each log1p by ``math.log1p``; the
    value elsewhere is of no use."""
    shape = x.shape
    x = np.where(x < 1e-300, 1.0, x).ravel()
    near = np.fromiter(map(log1p, x.tolist()), float, x.size)
    far = np.fromiter(map(log1p, (1.0 / x).tolist()), float, x.size)
    return ((near + x * far) / _LN2).reshape(shape)


def point_to_point_raw(x, y):
    """Capacity g(x+y) - g(y) of a one-way channel with thermal floor ``y``."""
    rate = g_entropy(x + y) - g_entropy(y)
    return rate if rate > 0.0 else 0.0


def homodyne_rate_raw(eta1, eta2, n_thermal, n_alpha, n_beta, r_a, r_b):
    """Single-quadrature detection rate for displacement photons (n_alpha, n_beta)."""
    wb = (1.0 - eta1) / eta1
    num = 4.0 * (n_alpha + wb * n_beta)
    den = (
        math.exp(2.0 * r_a)
        + wb * math.exp(2.0 * r_b)
        + (1.0 - eta2) * (1.0 + 2.0 * n_thermal) / (eta1 * eta2)
    )
    return 0.5 * math.log1p(num / den) / _LN2


def heterodyne_rate_raw(eta1, eta2, n_thermal, n_a, n_b):
    """Dual-quadrature detection rate for coherent inputs."""
    noise = 1.0 + (1.0 - eta2) * (1.0 + 2.0 * n_thermal) / eta2
    return math.log1p((eta1 * n_a + (1.0 - eta1) * n_b) / noise) / _LN2
