"""The references the sweep kernel and the global-budget scan are pinned to.

``rate_grid`` evaluates ``rate_triple``'s composed rule, ``_triple``, at
every cell of a row-by-column squeezing grid, with the exp and
displacement terms of each column and each row formed once and added in
the association ``receiver_variances`` uses, as ``rate_columns`` forms
them.

``scan_reference`` is ``global_constraint_scan`` without its pruning:
every split swept whole, in s order.
"""

import math

from bosonic_mac._core_py import _triple, displacement_photons
from bosonic_mac.gaussian_core import _require_photons
from bosonic_mac.region import ScanCell, ScanReport, _first_max, _fractions, _sweep


def rate_grid(eta1, eta2, n_thermal, n_a, n_b, r_a_values, r_b_values):
    """``rate_triple`` at every (r_a, r_b) of ``r_a_values`` x ``r_b_values``,
    as a list in row-major order, each cell bit for bit.

    An input error comes from the first of: the column terms, in column
    order; then each row's terms, followed by its cells.
    """
    t = (1.0 - eta2) * (2.0 * n_thermal + 1.0)
    wa = eta1 * eta2
    wb = (1.0 - eta1) * eta2
    columns = [(wb * math.exp(2.0 * r_b), wb * math.exp(-2.0 * r_b),
                wb * displacement_photons(n_b, r_b)) for r_b in r_b_values]
    cells = []
    for r_a in r_a_values:
        a1 = wa * math.exp(2.0 * r_a)
        a2 = wa * math.exp(-2.0 * r_a)
        nca = wa * displacement_photons(n_a, r_a)
        cells += [_triple(0.25 * (a1 + b1 + t), 0.25 * (a2 + b2 + t), nca, ncb)
                  for b1, b2, ncb in columns]
    return cells


def scan_reference(params, total_photons, s_points=101, fraction_points=33):
    """``global_constraint_scan`` with every cell of every split computed."""
    _require_photons("total_photons", total_photons)
    p_values = _fractions(fraction_points)
    best = {}
    for s in _fractions(s_points):
        rates = _sweep(params, s * total_photons, (1.0 - s) * total_photons, p_values, (1,))[1]
        for name, values in zip(("alice", "bob", "sum"), rates):
            top, k = _first_max(values)
            if name not in best or top > best[name].value:
                best[name] = ScanCell(
                    s, p_values[k // fraction_points], p_values[k % fraction_points], top
                )
    return ScanReport(total_photons, best)
