import math

import numpy as np
import pytest

from bosonic_mac import (
    Beamsplitter,
    BeamsplitterNetwork,
    ChannelParams,
    CovMatrix2,
    ModeEnsemble,
    PhotonBudget,
    canonical_network,
    heterodyne_sum_rate,
    mac_input_ensemble,
    mac_network,
    mc_heterodyne_rate,
    mode_transform,
    propagate,
    receiver_covariance,
    squeezing_cost,
)
from bosonic_mac.network import total_mean_photons


def random_network(rng, num_modes=4, num_splitters=6):
    splitters = []
    for _ in range(num_splitters):
        a, b = rng.choice(num_modes, size=2, replace=False)
        splitters.append(Beamsplitter(float(rng.uniform(0, 1)), int(a), int(b)))
    return BeamsplitterNetwork(num_modes, tuple(splitters))


def vacuum_ensemble(num_modes):
    vac = CovMatrix2(0.25, 0.25)
    return ModeEnsemble(((0.0, 0.0),) * num_modes, (vac,) * num_modes)


class TestModeTransform:
    def test_fully_transmissive_is_identity(self):
        net = BeamsplitterNetwork(2, (Beamsplitter(1.0, 0, 1),))
        assert np.allclose(mode_transform(net), np.eye(2))

    def test_receiver_row_weights(self):
        eta1, eta2, eta3 = 0.2, 0.9, 0.37
        net = mac_network(ChannelParams(eta1, eta2, 1.0), eta3=eta3)
        row = mode_transform(net)[net.receiver_mode]
        assert row[0] ** 2 == pytest.approx(eta1 * eta2, rel=1e-13)
        assert row[1] ** 2 == pytest.approx((1 - eta1) * eta2, rel=1e-13)
        assert row[2] ** 2 == pytest.approx(1 - eta2, rel=1e-13)

    def test_receiver_row_independent_of_eta3(self):
        params = ChannelParams(0.3, 0.7, 1.0)
        rows = [
            mode_transform(mac_network(params, eta3=e))[0] for e in (0.0, 0.5, 1.0)
        ]
        assert np.allclose(rows[0], rows[1])
        assert np.allclose(rows[0], rows[2])

    def test_orthogonality(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = mode_transform(random_network(rng))
            assert np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) < 1e-12

    def test_canonical_splitter_count(self):
        for k in (1, 2, 3, 4):
            etas = [0.5] * (k * (k + 1) // 2)
            net = canonical_network(k, etas)
            assert len(net.splitters) == k * (k + 1) // 2
            assert net.num_modes == k + 1
        with pytest.raises(ValueError):
            canonical_network(2, [0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            Beamsplitter(1.5, 0, 1)
        with pytest.raises(ValueError):
            Beamsplitter(0.5, 1, 1)
        with pytest.raises(ValueError):
            BeamsplitterNetwork(3, (Beamsplitter(0.5, 0, 4),))


class TestPropagate:
    def test_vacuum_in_vacuum_out(self):
        rng = np.random.default_rng(32)
        net = random_network(rng)
        result = propagate(net, vacuum_ensemble(net.num_modes))
        assert np.allclose(result.cov, 0.25 * np.eye(2 * net.num_modes))
        assert np.allclose(result.means, 0.0)

    def test_receiver_marginal_matches_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            params = ChannelParams(
                float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), float(rng.uniform(0, 5))
            )
            r_a, r_b = rng.uniform(-3, 3, size=2)
            budget = PhotonBudget(
                squeezing_cost(r_a) + float(rng.uniform(0, 10)),
                squeezing_cost(r_b) + float(rng.uniform(0, 10)),
                float(r_a),
                float(r_b),
            )
            closed = receiver_covariance(budget, params)
            net = mac_network(params, eta3=float(rng.uniform(0, 1)))
            got = propagate(net, mac_input_ensemble(params, budget)).receiver_covariance()
            scale = max(closed.v11, closed.v22)
            assert abs(got.v11 - closed.v11) / scale < 1e-10
            assert abs(got.v22 - closed.v22) / scale < 1e-10
            assert abs(got.v12) / scale < 1e-10

    def test_three_transmitter_thermal_mixture(self):
        # Receiver variance is a convex combination of the input variances.
        rng = np.random.default_rng(34)
        etas = rng.uniform(0, 1, size=6)
        net = canonical_network(3, etas)
        t = (2 * 2.5 + 1) / 4
        covs = (CovMatrix2(0.25, 0.25),) * 3 + (CovMatrix2(t, t),)
        ens = ModeEnsemble(((0.0, 0.0),) * 4, covs)
        out = propagate(net, ens).receiver_covariance()
        weights = mode_transform(net)[0] ** 2
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        expected = sum(w * c.v11 for w, c in zip(weights, covs))
        assert out.v11 == pytest.approx(expected, rel=1e-12)
        assert 0.25 <= out.v11 <= t

    def test_energy_conservation(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            net = random_network(rng, num_modes=5, num_splitters=8)
            means = tuple(
                (float(rng.normal(0, 2)), float(rng.normal(0, 2))) for _ in range(5)
            )
            covs = []
            for _ in range(5):
                r = float(rng.uniform(-1.5, 1.5))
                extra = float(rng.uniform(0, 3))
                covs.append(
                    CovMatrix2(
                        0.25 * math.exp(2 * r) + extra, 0.25 * math.exp(-2 * r) + extra
                    )
                )
            ens = ModeEnsemble(means, tuple(covs))
            before = total_mean_photons(ens)
            after = propagate(net, ens).total_mean_photons()
            assert after == pytest.approx(before, rel=1e-10)

    def test_dimension_mismatch(self):
        net = BeamsplitterNetwork(3, (Beamsplitter(0.5, 0, 1),))
        with pytest.raises(ValueError):
            propagate(net, vacuum_ensemble(2))


class TestMonteCarloHeterodyne:
    def test_reproducible(self, region_channel, region_budget):
        a = mc_heterodyne_rate(region_channel, region_budget, 50_000, seed=5)
        b = mc_heterodyne_rate(region_channel, region_budget, 50_000, seed=5)
        assert a == b
        c = mc_heterodyne_rate(region_channel, region_budget, 50_000, seed=6)
        assert c.rate != a.rate

    def test_zero_budget(self):
        est = mc_heterodyne_rate(
            ChannelParams(0.5, 0.9, 1.0), PhotonBudget(0.0, 0.0), 20_000, seed=1
        )
        assert est.rate == 0.0

    def test_lossless_single_photon(self):
        params = ChannelParams(1.0, 1.0, 0.0)
        est = mc_heterodyne_rate(params, PhotonBudget(1.0, 0.0), 400_000, seed=2)
        assert abs(est.rate - 1.0) <= 3 * est.std_error

    def test_matches_closed_form(self, region_channel, region_budget):
        est = mc_heterodyne_rate(region_channel, region_budget, 200_000, seed=3)
        closed = heterodyne_sum_rate(region_channel, region_budget)
        assert abs(est.rate - closed) <= 3 * est.std_error
        assert est.std_error < 0.01

    def test_validation(self, region_channel):
        with pytest.raises(ValueError):
            mc_heterodyne_rate(region_channel, PhotonBudget(1.0, 1.0, 0.3, 0.0), 20_000, 1)
        with pytest.raises(ValueError):
            mc_heterodyne_rate(region_channel, PhotonBudget(1.0, 1.0), 5_000, 1)
