import math

import numpy as np
import pytest

from bosonic_mac import (
    ChannelParams,
    Objective,
    Pentagon,
    PhotonBudget,
    RatePoint,
    User,
    build_region,
    global_constraint_scan,
    individual_rate,
    optimize_squeezing,
    pentagon_at,
    squeeze_surface,
)
from bosonic_mac.region import SIGN_LAYERS, convex_hull


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
