import logging
import math
import random
from dataclasses import astuple

import numpy as np
import pytest

from bosonic_mac import (
    ChannelParams,
    InputError,
    Objective,
    Pentagon,
    PhotonBudget,
    RatePoint,
    RateRegion,
    Receiver,
    User,
    build_region,
    global_constraint_scan,
    heterodyne_sum_rate,
    homodyne_sum_rate,
    individual_rate,
    optimize_squeezing,
    outer_bound,
    pentagon_at,
    rate_bundle,
    receiver_individual_rates,
    squeeze_surface,
    sum_rate_capacity_coherent,
)
from bosonic_mac import _kernels as kernels
from bosonic_mac._search import golden_section_max
from bosonic_mac.gaussian_core import fraction_squeezing, require_full_squeeze
from bosonic_mac.region import (
    OPTIMIZE_TOL,
    SCAN_MARGIN_ABS,
    SCAN_MARGIN_REL,
    SCAN_PRUNE_MAX_THERMAL,
    SCAN_PRUNE_MAX_TOTAL,
    SIGN_LAYERS,
    OptimizeResult,
    RegionData,
    _fractions,
    _sweep,
    convex_hull,
)
from grid_reference import rate_grid, scan_reference


class TestPentagon:
    def test_zero_budget_is_single_point(self):
        pent = pentagon_at(ChannelParams(0.5, 0.9, 1.0), PhotonBudget(0.0, 0.0))
        assert pent.vertices == (RatePoint(0.0, 0.0),)

    def test_proper_pentagon(self):
        pent = Pentagon.from_rates(1.0, 2.0, 2.5)
        assert [(v.r_a, v.r_b) for v in pent.vertices] == [
            (0.0, 0.0), (1.0, 0.0), (1.0, 1.5), (0.5, 2.0), (0.0, 2.0),
        ]

    def test_rectangle_when_sum_not_binding(self):
        pent = Pentagon.from_rates(1.0, 1.0, 3.0)
        assert [(v.r_a, v.r_b) for v in pent.vertices] == [
            (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
        ]

    def test_from_rates_matches_the_corner_list_definition(self):
        def reference(r_a_max, r_b_max, sum_max):
            if sum_max >= r_a_max + r_b_max:
                corners = [(0.0, 0.0), (r_a_max, 0.0), (r_a_max, r_b_max), (0.0, r_b_max)]
            else:
                corners = [(0.0, 0.0), (r_a_max, 0.0), (r_a_max, max(sum_max - r_a_max, 0.0)),
                           (max(sum_max - r_b_max, 0.0), r_b_max), (0.0, r_b_max)]
            vertices = []
            for c in corners:
                if not vertices or vertices[-1] != c:
                    vertices.append(c)
            if len(vertices) > 1 and vertices[0] == vertices[-1]:
                vertices.pop()
            return vertices

        rng = random.Random(16)
        values = (0.0, 0.5, 1.0, 1.5, 2.0)
        cases = [(a, b, s) for a in values for b in values for s in values]
        cases += [(rng.random(), rng.random(), 2.0 * rng.random()) for _ in range(1000)]
        for a, b, s in cases:
            pent = Pentagon.from_rates(a, b, s)
            assert [(v.r_a, v.r_b) for v in pent.vertices] == reference(a, b, s), (a, b, s)
            assert all(type(v) is RatePoint for v in pent.vertices)
        assert Pentagon.from_rates(1.0, 0.0, 1.0).vertices == (RatePoint(0.0, 0.0),
                                                              RatePoint(1.0, 0.0))

    def test_vertex_sums_within_sum_max(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            params = ChannelParams(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                                   rng.uniform(0, 4))
            pent = pentagon_at(params, PhotonBudget(rng.uniform(0, 20), rng.uniform(0, 20)))
            for v in pent.vertices:
                assert v.r_a + v.r_b <= pent.sum_max + 1e-12

    def test_region_channel_values(self, region_channel, region_budget):
        coherent = pentagon_at(region_channel, region_budget)
        assert coherent.r_a_max == pytest.approx(0.581476913399357, rel=1e-13)
        assert coherent.r_b_max == pytest.approx(10.359273741489835, rel=1e-13)
        assert coherent.sum_max == pytest.approx(10.359754132849243, rel=1e-13)

        squeezed = pentagon_at(
            region_channel, PhotonBudget(1.0, 1000.0, 0.0, 3.0)
        )
        assert squeezed.r_a_max == pytest.approx(0.7198961234939317, rel=1e-13)
        assert squeezed.r_b_max == pytest.approx(6.818258089852316, rel=1e-13)
        assert squeezed.sum_max == pytest.approx(6.818738481211724, rel=1e-13)
        # Bob's squeezing buys Alice rate at the cost of Bob's own.
        assert squeezed.r_a_max > coherent.r_a_max
        assert squeezed.r_b_max < coherent.r_b_max


class TestSqueezeSurface:
    def test_coherent_cell_matches_individual_rates(self, surface_channel, surface_budget):
        surf = squeeze_surface(surface_channel, surface_budget, grid_n=5)
        ra, rb = surf.coherent_cell()
        assert ra == pytest.approx(
            individual_rate(surface_channel, surface_budget, User.ALICE)[0], rel=1e-13
        )
        assert rb == pytest.approx(
            individual_rate(surface_channel, surface_budget, User.BOB)[0], rel=1e-13
        )

    def test_row_count_and_order(self, surface_channel, surface_budget):
        surf = squeeze_surface(surface_channel, surface_budget, grid_n=3)
        rows = surf.rows()
        assert len(rows) == 3 * 3 * 4
        assert rows[0][:4] == (0.0, 0.0, 1, 1)
        assert rows[-1][:4] == (1.0, 1.0, -1, -1)

    def test_all_squeezed_row_kills_alice(self, surface_channel, surface_budget):
        surf = squeeze_surface(surface_channel, surface_budget, grid_n=3)
        for j in range(3):
            ra, _ = surf.cell(1, 1, 2, j)  # p_a = 1 row
            assert ra <= 1e-12

    def test_cell_matches_rows_in_every_layer(self, surface_channel, surface_budget):
        surf = squeeze_surface(surface_channel, surface_budget, grid_n=3)
        rows = iter(surf.rows())
        for sign_a, sign_b in SIGN_LAYERS:
            for i in range(3):
                for j in range(3):
                    row = next(rows)
                    assert row[2:4] == (sign_a, sign_b)
                    assert row[:2] == (i / 2, j / 2)
                    assert surf.cell(sign_a, sign_b, i, j) == row[4:]
        # The table is flat, so an index past a row must not reach the next layer.
        with pytest.raises(IndexError):
            surf.cell(1, 1, 3, 0)
        with pytest.raises(IndexError):
            surf.cell(1, 1, 0, -1)

    def test_max_alice_rate_is_the_first_maximum_of_the_rows(self, surface_channel):
        # Bob's squeezing helps Alice at (4, 8); zero budgets tie every
        # cell at 0, so the first row must win.
        best = []
        for budget in (PhotonBudget(4.0, 8.0), PhotonBudget(0.0, 0.0), PhotonBudget(3.0, 0.0)):
            surf = squeeze_surface(surface_channel, budget, grid_n=5)
            p_a, p_b, sign_a, sign_b, ra, _ = max(surf.rows(), key=lambda row: row[4])
            best.append(surf.max_alice_rate())
            assert best[-1] == (ra, (sign_a, sign_b), p_a, p_b)
        assert best[0][1:] != ((1, 1), 0.0, 0.0)
        assert best[1] == (0.0, (1, 1), 0.0, 0.0)

    def test_grid_validation(self, surface_channel, surface_budget):
        with pytest.raises(ValueError):
            squeeze_surface(surface_channel, surface_budget, grid_n=1)
        with pytest.raises(ValueError):
            optimize_squeezing(surface_channel, surface_budget, Objective.MAX_RA, grid_n=1)
        with pytest.raises(ValueError):
            global_constraint_scan(surface_channel, 2.0, s_points=1, fraction_points=3)
        with pytest.raises(ValueError):
            global_constraint_scan(surface_channel, 2.0, s_points=3, fraction_points=1)

    def test_squeezing_advantage_exists(self, surface_channel, surface_budget):
        surf = squeeze_surface(surface_channel, surface_budget, grid_n=33)
        best, _, p_a, p_b = surf.max_alice_rate()
        coherent = surf.coherent_cell()[0]
        assert coherent == pytest.approx(0.9067288652014576, rel=1e-13)
        assert best > coherent
        assert p_b > 0.0
        assert best == pytest.approx(0.9620831841115112, rel=1e-9)


class TestOptimize:
    def test_sum_objective_prefers_coherent(self, surface_channel, surface_budget):
        result = optimize_squeezing(
            surface_channel, surface_budget, Objective.MAX_SUM, grid_n=9
        )
        assert (result.p_a, result.p_b) == (0.0, 0.0)
        assert result.value == result.baseline

    def test_alice_objective_beats_baseline(self, surface_channel, surface_budget):
        result = optimize_squeezing(
            surface_channel, surface_budget, Objective.MAX_RA, grid_n=17
        )
        assert result.value > result.baseline
        assert result.p_b > 0.0

    def test_never_below_baseline(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            params = ChannelParams(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                                   rng.uniform(0, 3))
            budget = PhotonBudget(rng.uniform(0, 5), rng.uniform(0, 5))
            result = optimize_squeezing(params, budget, Objective.MAX_RB, grid_n=5)
            assert result.value >= result.baseline

    def test_user_swap_symmetry(self):
        # Balanced split and equal budgets: swapping users mirrors the optimum.
        params = ChannelParams(0.5, 0.9, 0.0)
        budget = PhotonBudget(2.0, 2.0)
        res_a = optimize_squeezing(params, budget, Objective.MAX_RA, grid_n=9)
        res_b = optimize_squeezing(params, budget, Objective.MAX_RB, grid_n=9)
        assert res_a.value == pytest.approx(res_b.value, rel=1e-9)
        assert res_a.p_a == pytest.approx(res_b.p_b, abs=1e-4)
        assert res_a.p_b == pytest.approx(res_b.p_a, abs=1e-4)


class TestHullAndRegion:
    def test_hull_of_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.8)]
        assert sorted(convex_hull(pts)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_hull_idempotent(self):
        rng = np.random.default_rng(43)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 5, size=(50, 2))]
        hull = convex_hull(pts)
        assert set(convex_hull(hull)) == set(hull)
        assert len(convex_hull(hull)) == len(hull)

    def test_single_coherent_encoding_equals_pentagon(self, region_channel, region_budget):
        data = build_region(region_channel, region_budget, [(0.0, 0.0)])
        pent = data.pentagons[0][1]
        assert {(v.r_a, v.r_b) for v in data.region.hull} == {
            (v.r_a, v.r_b) for v in pent.vertices
        }

    def test_region_extends_along_alice_axis(self, region_channel, region_budget):
        data = build_region(region_channel, region_budget, [(0.0, 0.0), (0.0, 3.0)])
        coherent = data.pentagons[0][1]
        max_ra = max(v.r_a for v in data.region.hull)
        assert max_ra > coherent.r_a_max
        ub_a, ub_b = data.outer_bound
        for v in data.region.hull:
            assert v.r_a <= ub_a + 1e-12
            assert v.r_b <= ub_b + 1e-12

    def test_receiver_pentagons_inside_joint_detection(self, region_channel, region_budget):
        data = build_region(region_channel, region_budget, [(0.0, 0.0)])
        coherent = data.pentagons[0][1]
        for pent in (data.heterodyne, data.homodyne):
            assert pent is not None
            for v in pent.vertices:
                assert coherent.contains(v, tol=1e-9)

    def test_time_sharing_midpoints_inside(self, region_channel, region_budget):
        data = build_region(region_channel, region_budget, [(0.0, 0.0), (0.0, 3.0)])
        hull = data.region.hull
        for i in range(len(hull)):
            for j in range(i + 1, len(hull)):
                mid = RatePoint(
                    0.5 * (hull[i].r_a + hull[j].r_a), 0.5 * (hull[i].r_b + hull[j].r_b)
                )
                assert data.region.contains(mid, tol=1e-9)

    def test_empty_encodings_rejected(self, region_channel, region_budget):
        with pytest.raises(ValueError):
            build_region(region_channel, region_budget, [])

    def test_unaffordable_encoding_rejected(self, region_channel):
        with pytest.raises(ValueError):
            build_region(region_channel, PhotonBudget(1.0, 1.0), [(0.0, 3.0)])

    def test_hull_in_outer_box_property(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            params = ChannelParams(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95),
                                   rng.uniform(0, 4))
            n_a, n_b = rng.uniform(0.5, 20, size=2)
            r_b = min(math.asinh(math.sqrt(n_b)), rng.uniform(0, 2))
            data = build_region(params, PhotonBudget(n_a, n_b), [(0.0, 0.0), (0.0, r_b)])
            ub_a, ub_b = data.outer_bound
            for v in data.region.hull:
                assert v.r_a <= ub_a + 1e-9
                assert v.r_b <= ub_b + 1e-9


class TestGlobalScan:
    def test_zero_budget(self, surface_channel):
        report = global_constraint_scan(surface_channel, 0.0, s_points=5, fraction_points=3)
        assert report.best["sum"].value == 0.0
        assert report.sum_argmax_coherent

    def test_coherent_optimal_under_global_budget(self, surface_channel):
        report = global_constraint_scan(
            surface_channel, 12.0, s_points=21, fraction_points=9
        )
        assert report.sum_argmax_coherent
        assert report.alice_argmax_full_allocation
        assert report.best["alice"].p_b == 0.0
        # All photons on Alice, all displacement: the point-to-point value.
        expected, _ = individual_rate(surface_channel, PhotonBudget(12.0, 0.0), User.ALICE)
        assert report.best["alice"].value == pytest.approx(expected, rel=1e-12)

    def test_report_round_trip(self, surface_channel):
        report = global_constraint_scan(surface_channel, 2.0, s_points=5, fraction_points=3)
        doc = report.to_dict()
        assert set(doc["argmax"]) == {"alice", "bob", "sum"}
        assert doc["total_photons"] == 2.0

    @pytest.mark.parametrize("total", [-1.0, math.inf, math.nan])
    def test_total_must_be_finite_and_non_negative(self, surface_channel, total):
        with pytest.raises(InputError) as exc:
            global_constraint_scan(surface_channel, total, s_points=3, fraction_points=3)
        assert exc.value.field == "total_photons"


# ---------------------------------------------------------------------------
# The grid walk against per-cell rate_triple, bit for bit.

def _bits(value):
    """float.hex of every float in a nest of tuples, lists and records."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def _outcome(fn):
    """What ``fn`` returns, or the type of the arithmetic error it raises."""
    try:
        return _bits(fn())
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _triple_at(params, n_a, n_b, r_a, r_b):
    return kernels.rate_triple(params.eta1, params.eta2, params.n_thermal, n_a, n_b, r_a, r_b)


def _loop_grid(params, n_a, n_b, r_a_values, r_b_values):
    return [_triple_at(params, n_a, n_b, r_a, r_b) for r_a in r_a_values for r_b in r_b_values]


def _loop_cells(params, n_a, n_b, p_values, layers=SIGN_LAYERS):
    """(p_a, p_b, sign_a, sign_b, rate_triple) per cell, layer-major and
    row-major, one rate_triple call per cell, once the totals pass the
    sweeps' full-squeeze check."""
    require_full_squeeze(n_a, n_b)
    for sign_a, sign_b in layers:
        for p_a in p_values:
            r_a = sign_a * fraction_squeezing(p_a, n_a)
            for p_b in p_values:
                r_b = sign_b * fraction_squeezing(p_b, n_b)
                yield p_a, p_b, sign_a, sign_b, _triple_at(params, n_a, n_b, r_a, r_b)


def _loop_surface(params, budget, grid_n):
    return tuple(
        (p_a, p_b, sign_a, sign_b, rates[0], rates[2])
        for p_a, p_b, sign_a, sign_b, rates in _loop_cells(
            params, budget.n_a, budget.n_b, _fractions(grid_n))
    )


def _loop_scan(params, total, s_points, fraction_points):
    """Argmax cells (s, p_a, p_b, value) by strict improvement, earliest first."""
    best = {}
    for s in _fractions(s_points):
        cells = _loop_cells(params, s * total, (1.0 - s) * total,
                            _fractions(fraction_points), layers=((1, 1),))
        for p_a, p_b, _, _, (ra, _, rb, _, rab, _) in cells:
            for name, v in (("alice", ra), ("bob", rb), ("sum", rab)):
                if name not in best or v > best[name][3]:
                    best[name] = (s, p_a, p_b, v)
    return best


def _loop_optimize(params, budget, objective, grid_n):
    idx = {Objective.MAX_RA: 0, Objective.MAX_RB: 2, Objective.MAX_SUM: 4}[objective]

    def value(p_a, p_b, sign_a, sign_b):
        return _triple_at(params, budget.n_a, budget.n_b,
                          sign_a * fraction_squeezing(p_a, budget.n_a),
                          sign_b * fraction_squeezing(p_b, budget.n_b))[idx]

    baseline = value(0.0, 0.0, 1, 1)
    best = (baseline, 0.0, 0.0, 1, 1)
    for p_a, p_b, sign_a, sign_b, rates in _loop_cells(
            params, budget.n_a, budget.n_b, _fractions(grid_n)):
        if rates[idx] > best[0]:
            best = (rates[idx], p_a, p_b, sign_a, sign_b)
    _, p_a, p_b, sign_a, sign_b = best
    step = 1.0 / (grid_n - 1)
    while step > OPTIMIZE_TOL:
        p_a, _ = golden_section_max(lambda x: value(x, p_b, sign_a, sign_b),
                                    max(0.0, p_a - step), min(1.0, p_a + step), tol=step * 1e-3)
        p_b, _ = golden_section_max(lambda x: value(p_a, x, sign_a, sign_b),
                                    max(0.0, p_b - step), min(1.0, p_b + step), tol=step * 1e-3)
        step /= 2.0
    refined = value(p_a, p_b, sign_a, sign_b)
    if refined < best[0]:
        refined, p_a, p_b = best[0], best[1], best[2]
    if refined < baseline:
        refined, p_a, p_b, sign_a, sign_b = baseline, 0.0, 0.0, 1, 1
    return OptimizeResult(objective, p_a, p_b, sign_a, sign_b, refined, baseline)


def _random_case(rng):
    """A channel and photon totals over the whole valid domain: eta at 0 or
    1, pure loss, Alice silent, photon numbers from 1e-9 to 1e9."""
    eta = lambda: rng.choice((0.0, 1.0, rng.random()))  # noqa: E731
    params = ChannelParams(eta(), eta(), rng.choice((0.0, rng.uniform(0.0, 5.0))))
    photons = lambda: 10.0 ** rng.uniform(-9.0, 9.0)  # noqa: E731
    return params, rng.choice((0.0, photons())), photons()


#: Photon totals at the edge of the float range: v_max / v_min beyond
#: 2**53, where the branch-2 argument takes its reduced form, and exp
#: overflow, where rate_triple raises (OverflowError).
RAISING_TOTALS = [(1e16, 1.0), (1.0, 1e16), (4.5e307, 1.0), (1.0, 4.5e307),
                  (1e308, 1e308), (1.7e308, 1.7e308)]


def test_rate_grid_matches_rate_triple():
    rng = random.Random(20240902)
    cases = [_random_case(rng) for _ in range(40)]
    # The branch tie: coherent, nothing sent, so n == |V1 - V2| == 0.
    cases.append((ChannelParams(0.5, 0.9, 1.0), 0.0, 0.0))
    cases += [(ChannelParams(0.5, 0.9, 1.0), n_a, n_b) for n_a, n_b in RAISING_TOTALS]
    raised = ties = 0
    for params, n_a, n_b in cases:
        budget = PhotonBudget(n_a, n_b)
        p_values = _fractions(5)  # p = 1 is the last row and column
        for sign_a, sign_b in SIGN_LAYERS:
            r_a = [sign_a * fraction_squeezing(p, n_a) for p in p_values]
            r_b = [sign_b * fraction_squeezing(p, n_b) for p in p_values]
            args = (params.eta1, params.eta2, params.n_thermal, n_a, n_b, r_a, r_b)
            got = _outcome(lambda: rate_grid(*args))
            assert got == _outcome(lambda: _loop_grid(params, n_a, n_b, r_a, r_b))
            raised += isinstance(got, type)
            ties += not isinstance(got, type) and any(
                c[1] == c[3] == c[5] == 1 and c[0] == "0x0.0p+0" for c in got)
        assert _outcome(lambda: squeeze_surface(params, budget, grid_n=5).rows()) == \
            _outcome(lambda: _loop_surface(params, budget, 5))
        total = n_a + n_b
        assert _outcome(lambda: [
            (c.s, c.p_a, c.p_b, c.value)
            for c in global_constraint_scan(params, total, s_points=5, fraction_points=5)
            .best.values()
        ]) == _outcome(lambda: list(_loop_scan(params, total, 5, 5).values()))
        for objective in Objective:
            assert _outcome(lambda: astuple(optimize_squeezing(params, budget, objective, 5))) == \
                _outcome(lambda: astuple(_loop_optimize(params, budget, objective, 5)))
    assert raised and ties


def test_rate_grid_arbitrary_squeezing():
    # Any row and column values, not only the fraction sweep's.
    rng = random.Random(20240903)
    for _ in range(40):
        params, n_a, n_b = _random_case(rng)
        r_a = [0.0] + [rng.uniform(-1.0, 1.0) * fraction_squeezing(1.0, n_a) for _ in range(4)]
        r_b = [rng.uniform(-1.0, 1.0) * fraction_squeezing(1.0, n_b) for _ in range(3)]
        args = (params.eta1, params.eta2, params.n_thermal, n_a, n_b, r_a, r_b)
        assert _outcome(lambda: rate_grid(*args)) == \
            _outcome(lambda: _loop_grid(params, n_a, n_b, r_a, r_b))
    assert rate_grid(0.5, 0.9, 1.0, 1.0, 1.0, [], [0.0]) == []
    assert rate_grid(0.5, 0.9, 1.0, 1.0, 1.0, [0.0, 0.1], []) == []


def test_mirrored_layers_are_bit_identical():
    # Flipping both signs swaps V1 and V2, which no rate can see.
    rng = random.Random(20240904)
    cases = [_random_case(rng) for _ in range(40)]
    cases.append((ChannelParams(0.5, 0.9, 1.0), 0.0, 0.0))  # the branch tie
    cases += [(ChannelParams(0.5, 0.9, 1.0), n_a, n_b) for n_a, n_b in RAISING_TOTALS]
    raised = 0
    for params, n_a, n_b in cases:
        sweep = [[fraction_squeezing(p, n) for p in _fractions(5)] for n in (n_a, n_b)]
        arbitrary = [[rng.uniform(-1.0, 1.0) * fraction_squeezing(1.0, n) for _ in range(3)]
                     for n in (n_a, n_b)]
        for r_a, r_b in (sweep, arbitrary, (sweep[0], [-r for r in sweep[1]])):
            def grid(sign):
                return rate_grid(params.eta1, params.eta2, params.n_thermal, n_a, n_b,
                                 [sign * r for r in r_a], [sign * r for r in r_b])
            got = _outcome(lambda: grid(-1))
            assert got == _outcome(lambda: grid(1))
            raised += isinstance(got, type)
    assert raised


def _counted_rate_columns(monkeypatch):
    """The argument tuples of every kernels.rate_columns call from here on."""
    seen = []
    real = kernels.rate_columns

    def counting(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "rate_columns", counting)
    return seen


def test_sweep_computes_each_mirror_pair_once(monkeypatch):
    seen = _counted_rate_columns(monkeypatch)
    params, budget, p_values = ChannelParams(0.2, 0.9, 4.0), PhotonBudget(4.0, 8.0), _fractions(3)
    for products, calls in (((1, -1), 2), ((1,), 1)):
        seen.clear()
        columns = _sweep(params, budget.n_a, budget.n_b, p_values, products)
        assert len(seen) == calls
        assert list(columns) == list(products)
        # Each layer of a computed sign product, mirrors included.
        for sign_a, sign_b in SIGN_LAYERS:
            if sign_a * sign_b not in columns:
                continue
            r_a = [sign_a * fraction_squeezing(p, budget.n_a) for p in p_values]
            r_b = [sign_b * fraction_squeezing(p, budget.n_b) for p in p_values]
            cells = _loop_grid(params, budget.n_a, budget.n_b, r_a, r_b)
            assert _bits(columns[sign_a * sign_b]) == \
                _bits([[c[k] for c in cells] for k in (0, 2, 4)])
    seen.clear()
    squeeze_surface(params, budget, grid_n=3)
    optimize_squeezing(params, budget, Objective.MAX_RA, grid_n=3)
    assert len(seen) == 4


def test_sweeps_compute_the_sum_column_only_where_read(monkeypatch):
    # Surfaces read the individual rates only, optimize the one column of
    # its objective, and the scan all three at s = 0 and s = 1 but not the
    # sum at s = 1/2, where the sum ceiling, about 3.25 bits, is below the
    # coherent sum rate of s = 0, about 3.69; the results do not depend on
    # the skipped columns.
    params, budget = ChannelParams(0.3, 0.85, 0.5), PhotonBudget(2.5, 7.0)
    real = kernels.rate_columns
    sum_flag = lambda args: args[7]  # noqa: E731
    sweeps = [(lambda: squeeze_surface(params, budget, grid_n=9).layers, sum_flag, {False}),
              (lambda: [(c.s, c.p_a, c.p_b, c.value)
                       for c in global_constraint_scan(params, 9.5, 3, 9).best.values()],
               sum_flag, {True, False})]
    # (sum_column, alice_column, bob_column)
    sweeps += [(lambda o=o: astuple(optimize_squeezing(params, budget, o, grid_n=9)),
                lambda args: args[7:10],
                {(o is Objective.MAX_SUM, o is Objective.MAX_RA, o is Objective.MAX_RB)})
               for o in Objective]
    for sweep, flags, expected in sweeps:
        seen = _counted_rate_columns(monkeypatch)
        got = _bits(sweep())
        assert seen and {flags(args) for args in seen} == expected
        monkeypatch.setattr(kernels, "rate_columns", lambda *args: real(*args[:7]))
        assert got == _bits(sweep())
        monkeypatch.setattr(kernels, "rate_columns", real)


@pytest.mark.parametrize("n_a,n_b,field", [
    (4.5e307, 1.0, "n_a"), (1.0, 4.5e307, "n_b"), (1e308, 1.0, "n_a"), (1.0, 1e308, "n_b"),
])
def test_sweeps_reject_a_total_past_the_full_squeeze(n_a, n_b, field, monkeypatch):
    # exp(2r) of the p = 1 squeeze overflows above about 4.49e307 photons:
    # every sweep names the total before any kernel call.
    seen = _counted_rate_columns(monkeypatch)
    params, budget = ChannelParams(0.5, 0.9, 1.0), PhotonBudget(n_a, n_b)
    sweeps = [(lambda: squeeze_surface(params, budget, grid_n=3), field)]
    sweeps += [(lambda o=o: optimize_squeezing(params, budget, o, grid_n=3), field)
               for o in Objective]
    # The scan's first split, s = 0, gives Bob the whole total.
    sweeps.append((lambda: global_constraint_scan(params, max(n_a, n_b), 3, 3), "n_b"))
    for sweep, name in sweeps:
        with pytest.raises(InputError) as exc:
            sweep()
        assert exc.value.field == name
        assert exc.value.message.startswith("a squeeze sweep needs a total below about 4.49e307")
    assert seen == []
    require_full_squeeze(4.4e307, 4.4e307)


# ---------------------------------------------------------------------------
# The bound-pruned global scan against its unpruned reference, and which
# (split, objective) columns it computes.

def _report(fn):
    """A scan's report as float.hex, in its ``best`` key order, or the type
    and message of the error it raises."""
    try:
        report = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return _bits([report.total_photons, [(name, c.s, c.p_a, c.p_b, c.value)
                                         for name, c in report.best.items()]])


def _skipped(seen, s_points):
    """(split, objective) columns a scan that made the calls ``seen`` skipped."""
    return 3 * s_points - sum(sum(args[7:10]) for args in seen)


def _extreme_case(rng):
    """A channel and total over the scan's whole domain: eta at 0, 1 and
    just below 1, down to 1e-300; thermal photons 0 or 1e-12 to 1e12;
    totals from 0 through the subnormals to 1e15, and past the pruning
    domain one draw in ten."""
    eta = lambda: rng.choice((0.0, 0.5, 1.0, math.nextafter(1.0, 0.0),  # noqa: E731
                              10.0 ** rng.uniform(-300.0, 0.0), rng.random()))
    n_thermal = rng.choice((0.0, 10.0 ** rng.uniform(-12.0, 12.0)))
    total = rng.choice((0.0, 5e-324, 10.0 ** rng.uniform(-323.0, -308.0),
                        10.0 ** rng.uniform(-300.0, 15.0), rng.uniform(0.0, 20.0)))
    if rng.random() < 0.1:
        n_thermal, total = rng.choice(((n_thermal, 10.0 ** rng.uniform(15.0, 17.0)),
                                       (10.0 ** rng.uniform(12.0, 14.0), total)))
    return ChannelParams(eta(), eta(), n_thermal), total


#: Inputs at the edges: the pruning domain's bounds and just past them,
#: totals whose full squeeze overflows (InputError naming n_b), and
#: constructed ties: a symmetric channel (eta1 = 0.5, where split s and
#: 1 - s swap Alice and Bob), a zero total and pure loss with eta at 0 or 1.
EDGE_CASES = [
    (ChannelParams(0.5, 0.9, 1.0), SCAN_PRUNE_MAX_TOTAL),
    (ChannelParams(0.5, 0.9, 1.0), 1e16),
    (ChannelParams(0.3, 0.9, SCAN_PRUNE_MAX_THERMAL), 5.0),
    (ChannelParams(0.3, 0.9, 1e13), 5.0),
    (ChannelParams(0.3, 0.9, 1e13), 1e16),
    (ChannelParams(0.5, 0.9, 1.0), 4.5e307),
    (ChannelParams(0.5, 0.9, 1.0), 1e308),
    (ChannelParams(0.5, 0.9, 1.0), 0.0),
    (ChannelParams(0.5, 0.9, 1.0), 7.0),
    (ChannelParams(0.5, 0.5, 0.0), 3.0),
    (ChannelParams(0.5, 1.0, 0.0), 3.0),
    (ChannelParams(0.0, 0.8, 0.0), 3.0),
    (ChannelParams(1.0, 0.8, 0.0), 3.0),
    (ChannelParams(0.3, 0.0, 2.0), 3.0),
    (ChannelParams(0.3, 1.0, 0.0), 0.0),
    (ChannelParams(0.3, 0.85, 0.5), -1.0),
    (ChannelParams(0.3, 0.85, 0.5), math.inf),
]


def test_pruned_scan_matches_the_full_scan(monkeypatch):
    # Every skipped column lies below the best, so the report keeps every
    # bit: argmax cells, values, ties and errors.
    seen = _counted_rate_columns(monkeypatch)
    rng = random.Random(20261019)
    cases = [(*_extreme_case(rng), rng.randint(2, 15), rng.randint(2, 7)) for _ in range(2000)]
    cases += [(params, total, shape, shape) for params, total in EDGE_CASES for shape in (2, 3, 9)]
    for _ in range(10):
        # The workload shape and domain.
        params = ChannelParams(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98),
                               rng.uniform(0.0, 5.0))
        cases.append((params, rng.uniform(0.0, 20.0), 101, 33))
    skipped = interior = raised = 0
    for params, total, s_points, fraction_points in cases:
        seen.clear()
        got = _report(lambda: global_constraint_scan(params, total, s_points, fraction_points))
        if isinstance(got[0], type):
            raised += 1
        else:
            skipped += _skipped(seen, s_points)
            interior += 3 * (s_points - 2)
        assert got == _report(lambda: scan_reference(params, total, s_points, fraction_points))
    # About an eighth of the interior columns prune here: most extreme
    # draws have rates of 0 or lie past the pruning domain.
    assert raised and skipped > interior / 10


def _expected_calls(params, total, s_points, fraction_points):
    """(n_a, n_b, sum, alice, bob) of each rate_columns call the ceiling
    rule asks for: both end splits whole, then each other split in order
    with the columns whose ceiling reaches the best of the end splits, and
    no call for a split with none."""
    p_values = _fractions(fraction_points)
    budgets = [(s * total, (1.0 - s) * total) for s in _fractions(s_points)]
    edges = [_sweep(params, n_a, n_b, p_values, (1,))[1] for n_a, n_b in (budgets[0], budgets[-1])]
    lower = [max(max(first), max(last)) for first, last in zip(*edges)]
    calls = [(*budgets[0], True, True, True), (*budgets[-1], True, True, True)]
    for n_a, n_b in budgets[1:-1]:
        budget = PhotonBudget(n_a, n_b)
        ceilings = (outer_bound(params, budget, User.ALICE), outer_bound(params, budget, User.BOB),
                    sum_rate_capacity_coherent(params, budget))
        alice, bob, total_column = (not c < lb - (SCAN_MARGIN_ABS + SCAN_MARGIN_REL * lb)
                                    for c, lb in zip(ceilings, lower))
        if alice or bob or total_column:
            calls.append((n_a, n_b, total_column, alice, bob))
    return calls


@pytest.mark.parametrize("params,total", [
    (ChannelParams(0.3, 0.85, 0.5), 9.5),
    (ChannelParams(0.7, 0.6, 2.0), 15.0),
    (ChannelParams(0.5, 0.9, 1.0), 4.0),  # symmetric: the sum never prunes
    (ChannelParams(0.2, 0.95, 0.0), 1e-3),
])
def test_scan_computes_the_columns_its_ceilings_allow(params, total, monkeypatch):
    expected = _expected_calls(params, total, 21, 5)
    seen = _counted_rate_columns(monkeypatch)
    global_constraint_scan(params, total, 21, 5)
    assert [(*args[3:5], *args[7:10]) for args in seen] == expected
    assert any(False in args[7:10] for args in seen)


def test_scan_skips_a_split_with_no_column_left(monkeypatch):
    # No channel prunes all three objectives of one split: Alice's ceiling
    # falls short of her best only for s below eta1, Bob's only above it.
    # A ceiling of 0 everywhere makes the case.
    monkeypatch.setattr("bosonic_mac.region._thermal_loss_capacity", lambda params, n_in: 0.0)
    seen = _counted_rate_columns(monkeypatch)
    global_constraint_scan(ChannelParams(0.3, 0.85, 0.5), 9.5, 21, 5)
    assert [(*args[3:5], *args[7:10]) for args in seen] == \
        [(0.0, 9.5, True, True, True), (9.5, 0.0, True, True, True)]


@pytest.mark.parametrize("params,total", [
    (ChannelParams(0.3, 0.85, 0.5), 1e16),
    (ChannelParams(0.3, 0.85, 1e13), 9.5),
])
def test_scan_prunes_nothing_past_its_domain(params, total, monkeypatch):
    # Outside the domain where the margin was measured, every split is
    # swept whole, in s order after the two ends.
    seen = _counted_rate_columns(monkeypatch)
    global_constraint_scan(params, total, 21, 5)
    splits = _fractions(21)
    assert [(*args[3:5], *args[7:10]) for args in seen] == [
        (s * total, (1.0 - s) * total, True, True, True)
        for s in (splits[0], splits[-1], *splits[1:-1])
    ]


def test_scan_logs_the_columns_it_computed(monkeypatch, capsys):
    # One debug line on the package logger; the report and stdout do not
    # change with it.  The CLI's logging set-up stops propagation, so the
    # test attaches its own handler.
    params = ChannelParams(0.3, 0.85, 0.5)
    quiet = _report(lambda: global_constraint_scan(params, 9.5, 21, 5))
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("bosonic_mac")
    level = log.level
    log.setLevel(logging.DEBUG)
    log.addHandler(handler)
    try:
        seen = _counted_rate_columns(monkeypatch)
        assert _report(lambda: global_constraint_scan(params, 9.5, 21, 5)) == quiet
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    skipped = _skipped(seen, 21)
    assert skipped > 0
    assert [(r.levelno, r.getMessage()) for r in records] == [(
        logging.DEBUG,
        f"global scan: {63 - skipped} of 63 (split, objective) columns computed, "
        f"{skipped} skipped",
    )]
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# build_region and convex_hull against their definitions, bit for bit.

def _reference_hull(points):
    """Andrew monotone chain with a cross call per comparison."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _pentagon_bits(pent):
    if pent is None:
        return None
    return _bits((pent.r_a_max, pent.r_b_max, pent.sum_max, len(pent.vertices),
                  [(v.r_a, v.r_b) for v in pent.vertices]))


def _receiver_reference(params, budget, receiver):
    sum_rate_of = heterodyne_sum_rate if receiver is Receiver.HETERODYNE else homodyne_sum_rate
    try:
        return Pentagon.from_rates(
            receiver_individual_rates(params, budget, receiver, User.ALICE),
            receiver_individual_rates(params, budget, receiver, User.BOB),
            sum_rate_of(params, budget),
        )
    except InputError:
        return None


def _region_bits(data):
    return (
        _bits([(v.r_a, v.r_b) for v in data.region.hull]),
        len(data.region.hull),
        _bits(list(data.region.provenance)),
        [(_bits(enc), _pentagon_bits(p)) for enc, p in data.pentagons],
        _pentagon_bits(data.heterodyne),
        _pentagon_bits(data.homodyne),
        _bits(data.outer_bound),
    )


def _reference_region(params, budget, encodings):
    """build_region from its definition: pentagon_at per encoding, the hull
    of every vertex tuple, fresh RatePoints, the receiver pentagons of the
    per-user and sum functions."""
    encodings = tuple((float(ra), float(rb)) for ra, rb in encodings)
    pentagons = [
        ((ra, rb), pentagon_at(params, PhotonBudget(budget.n_a, budget.n_b, ra, rb)))
        for ra, rb in encodings
    ]
    hull = _reference_hull([(v.r_a, v.r_b) for _, p in pentagons for v in p.vertices])
    region = RateRegion(tuple(RatePoint(a, b) for a, b in hull), encodings)
    coherent = PhotonBudget(budget.n_a, budget.n_b)
    return RegionData(
        region, tuple(pentagons),
        _receiver_reference(params, coherent, Receiver.HETERODYNE),
        _receiver_reference(params, coherent, Receiver.HOMODYNE),
        (outer_bound(params, budget, User.ALICE), outer_bound(params, budget, User.BOB)),
    )


def _region_outcome(fn):
    try:
        return _region_bits(fn())
    except ValueError as exc:
        return type(exc), str(exc)


def test_build_region_matches_its_definition():
    rng = random.Random(14)
    eta = lambda: rng.choice((0.0, 1.0, rng.random(), rng.random()))  # noqa: E731
    photons = lambda: rng.choice((0.0, rng.uniform(0.0, 20.0), 10.0 ** rng.uniform(-6, 6)))  # noqa: E731
    squeeze = lambda n: math.copysign(  # noqa: E731
        fraction_squeezing(rng.choice((0.0, 1.0, rng.random())), n), rng.choice((-1, 1)))
    for _ in range(2000):
        params = ChannelParams(eta(), eta(), rng.choice((0.0, rng.uniform(0.0, 5.0))))
        n_a, n_b = photons(), photons()
        encodings = [(squeeze(n_a), squeeze(n_b)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            encodings.append(rng.choice(encodings))  # a repeated encoding
        budget = PhotonBudget(n_a, n_b)
        assert _region_outcome(lambda: build_region(params, budget, encodings)) == \
            _region_outcome(lambda: _reference_region(params, budget, encodings))


def test_pentagon_at_matches_rate_bundle():
    rng = random.Random(16)
    for _ in range(2000):
        params = ChannelParams(*(rng.choice((0.0, 1.0, rng.random())) for _ in range(2)),
                               rng.choice((0.0, rng.uniform(0.0, 5.0))))
        n_a, n_b = (rng.choice((0.0, 10.0 ** rng.uniform(-6, 6))) for _ in range(2))
        budget = PhotonBudget(n_a, n_b, *(
            math.copysign(fraction_squeezing(rng.choice((0.0, 1.0, rng.random())), n),
                          rng.choice((-1, 1)))
            for n in (n_a, n_b)))
        bundle = rate_bundle(params, budget)
        assert _pentagon_bits(pentagon_at(params, budget)) == _pentagon_bits(
            Pentagon.from_rates(bundle.r_max_a, bundle.r_max_b, bundle.r_max_ab))


def test_build_region_hull_reuses_the_first_pentagon_vertex():
    params, budget = ChannelParams(0.5, 0.9, 1.0), PhotonBudget(2.0, 3.0)
    data = build_region(params, budget, [(0.0, 0.0), (0.0, 0.0), (0.5, 0.0)])
    first = {}
    for _, pent in data.pentagons:
        for v in pent.vertices:
            first.setdefault((v.r_a, v.r_b), v)
    for v in data.region.hull:
        assert v is first[(v.r_a, v.r_b)]


def test_convex_hull_matches_the_cross_call_chain():
    rng = random.Random(15)
    for _ in range(2000):
        grid = rng.choice((None, 4))  # a coarse grid gives collinear and repeated points
        pts = [
            (float(rng.randrange(grid)), float(rng.randrange(grid))) if grid
            else (rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
            for _ in range(rng.randint(0, 12))
        ]
        assert _bits(convex_hull(pts)) == _bits(_reference_hull(pts))


# ---------------------------------------------------------------------------
# RateRegion.contains on a hull of two vertices.

def test_segment_hull_contains_only_its_segment():
    data = build_region(ChannelParams(0.5, 0.9, 1.0), PhotonBudget(2.0, 0.0), [(0, 0)])
    (x0, y0), (x1, y1) = [(v.r_a, v.r_b) for v in data.region.hull]
    assert (x0, y0, y1) == (0.0, 0.0, 0.0) and x1 == pytest.approx(1.5166, abs=1e-4)
    region, tol = data.region, 1e-9
    assert not region.contains(RatePoint(7.58, 0.0))
    assert not region.contains(RatePoint(x1 + 4 * tol, 0.0))
    assert region.contains(RatePoint(x1 + tol / 4, 0.0))
    assert region.contains(RatePoint(x1 / 2, 0.0))
    assert region.contains(RatePoint(0.0, 0.0))
    assert not region.contains(RatePoint(x1 / 2, 4 * tol))


def test_segment_hull_both_sides_of_each_end():
    tol = 1e-9
    ends = ((1.0, 2.0), (3.0, 2.5))
    region = RateRegion(tuple(RatePoint(*e) for e in ends), ())
    (x0, y0), (x1, y1) = ends
    length = math.hypot(x1 - x0, y1 - y0)
    ux, uy = (x1 - x0) / length, (y1 - y0) / length
    for (ex, ey), outward in ((ends[0], -1.0), (ends[1], 1.0)):
        for step, inside in ((tol / 4, True), (4 * tol, False), (-4 * tol, True), (-0.5, True)):
            point = RatePoint(ex + outward * step * ux, ey + outward * step * uy)
            assert region.contains(point, tol) is inside, (ex, ey, step)
