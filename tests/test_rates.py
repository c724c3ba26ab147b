import math
from dataclasses import astuple

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import exp as mpexp
from mpmath import log as mplog
from mpmath import sqrt as mpsqrt

from bosonic_mac import (
    Branch,
    ChannelParams,
    CovMatrix2,
    InputError,
    PhotonBudget,
    Receiver,
    SqueezeFractions,
    User,
    big_g11,
    big_g12,
    big_g2,
    g_entropy,
    heterodyne_sum_rate,
    homodyne_sum_rate,
    individual_rate,
    outer_bound,
    point_to_point,
    rate_bundle,
    receiver_covariance,
    receiver_individual_rates,
    squeezing_cost,
    sum_rate,
    sum_rate_capacity_coherent,
)
from bosonic_mac import _kernels
from bosonic_mac.network import mac_input_ensemble, mac_network, propagate
from bosonic_mac.rates import big_g12_simplified, receiver_rates
from bosonic_mac.verification import branch_crossing, check_covariance_oracle

mp.dps = 40


def mp_g(x):
    x = mpf(x)
    if x == 0:
        return mpf(0)
    return (1 + x) * mplog(1 + x, 2) - x * mplog(x, 2)


def random_budget(rng, n_scale=10.0):
    r_a, r_b = rng.uniform(-2, 2, size=2)
    return PhotonBudget(
        squeezing_cost(r_a) + rng.uniform(0, n_scale),
        squeezing_cost(r_b) + rng.uniform(0, n_scale),
        r_a,
        r_b,
    )


def random_channel(rng):
    return ChannelParams(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98), rng.uniform(0, 5))


class TestGFunctions:
    def test_g11_vacuum(self):
        vac = CovMatrix2(0.25, 0.25)
        assert big_g11(0.0, vac) == 0.0
        assert big_g11(1.0, vac) == pytest.approx(2.0, abs=1e-14)

    def test_g11_thermal_value(self):
        # N = 0.18*4 + 0.72*8 = 6.48 received photons on a V1 = V2 = 0.45 mode
        v = CovMatrix2(0.45, 0.45)
        expected = float(mp_g(mpf("6.88")))
        assert expected == pytest.approx(4.325210635191087, rel=1e-15)
        assert big_g11(6.48, v) == pytest.approx(expected, rel=1e-13)

    def test_g11_negative_n_raises(self):
        with pytest.raises(ValueError):
            big_g11(-0.1, CovMatrix2(0.25, 0.25))

    def test_g12_literal_oracle(self):
        # Bob squeezes one photon (r_b = asinh(1)) on the 0.5/0.9/1.0 channel.
        eta1, eta2, nt = mpf("0.5"), mpf("0.9"), mpf(1)
        rb = mplog(1 + mpsqrt(2))  # asinh(1)
        v1 = (eta1 * eta2 + (1 - eta1) * eta2 * mpexp(2 * rb) + (1 - eta2) * (2 * nt + 1)) / 4
        v2 = (eta1 * eta2 + (1 - eta1) * eta2 * mpexp(-2 * rb) + (1 - eta2) * (2 * nt + 1)) / 4
        n = mpf("0.01")
        # literal nested form of the low-signal bracket
        inner = -(mpsqrt(((v1 - v2) / 2) ** 2) - n / 2) ** 2 + ((v1 + v2 + n) / 2) ** 2
        expected = float(mp_g(2 * mpsqrt(inner) - mpf(1) / 2))
        assert expected == pytest.approx(1.124524810836794, rel=1e-15)

        v = CovMatrix2(float(v1), float(v2))
        assert big_g12(0.01, v) == pytest.approx(expected, rel=1e-13)
        assert big_g12_simplified(0.01, v) == pytest.approx(expected, rel=1e-13)

    def test_g12_meets_g11_at_equal_variances_boundary(self):
        # With V1 = V2 the branch threshold is zero, so the boundary where
        # the two expressions must agree is n = 0; any n > 0 stays on the
        # full-signal branch and never evaluates the low-signal form.
        v = CovMatrix2(0.45, 0.45)
        assert big_g12(0.0, v) == pytest.approx(big_g11(0.0, v), rel=1e-14)
        params = ChannelParams(0.4, 0.8, 1.0)
        for n in (0.0, 0.3, 2.0):
            budget = PhotonBudget(n, n)  # coherent inputs give V1 = V2
            cov = receiver_covariance(budget, params)
            assert cov.v11 == cov.v22
            bundle = rate_bundle(params, budget)
            assert (bundle.branch_a, bundle.branch_b, bundle.branch_ab) == (Branch.ONE,) * 3

    def test_g12_equals_g11_at_threshold(self):
        v = CovMatrix2(0.9, 0.3)
        n = abs(v.v11 - v.v22)
        assert big_g12(n, v) == pytest.approx(big_g11(n, v), rel=1e-13)

    def test_g12_zero_signal(self):
        v = CovMatrix2(0.9, 0.3)
        expected = g_entropy(2 * math.sqrt(v.v11 * v.v22) - 0.5)
        assert big_g12(0.0, v) == pytest.approx(expected, rel=1e-14)

    def test_g12_full_vs_simplified_property(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            v1 = rng.uniform(0.25, 50.0)
            v2 = rng.uniform(1 / (16 * v1) + 1e-12, 50.0)
            n = rng.uniform(0.0, 100.0)
            v = CovMatrix2(v1, v2)
            assert big_g12(n, v) == pytest.approx(big_g12_simplified(n, v), rel=1e-12)

    def test_g2(self):
        assert big_g2(CovMatrix2(0.25, 0.25)) == 0.0
        n_th = 2.3
        t = (2 * n_th + 1) / 4
        assert big_g2(CovMatrix2(t, t)) == pytest.approx(g_entropy(n_th), rel=1e-14)
        expected = float(mp_g(mpf("0.4")))
        assert expected == pytest.approx(1.2083687959932834, rel=1e-15)
        assert big_g2(CovMatrix2(0.45, 0.45)) == pytest.approx(expected, rel=1e-13)


# rate_triple(eta1, eta2, n_thermal, n_a, n_b, r_a, r_b) and its outputs
# (r_a, branch_a, r_b, branch_b, r_ab, branch_ab), pinned bit for bit:
# the rates as float.hex.
PINNED_TRIPLES = [
    # coherent, n_a = 0: V1 = V2, so Alice sits on the exact tie 0 >= 0
    ((0.5, 0.9, 1.0, 0.0, 2.0, 0.0, 0.0),
     ("0x0.0p+0", 1, "0x1.843cd687ee01fp+0", 1, "0x1.843cd687ee01fp+0", 1)),
    ((0.25, 0.9, 1.0, 1.0, 1000.0, 0.0, 0.0),
     ("0x1.29b7578cdbc84p-1", 1, "0x1.4b7f2ba540553p+3", 1, "0x1.4b831b196606ep+3", 1)),
    # p = 1: Alice spends her whole budget on squeezing
    ((0.3, 0.8, 2.0, 2.0, 3.0, 1.1462158347805889, 0.0),
     ("0x0.0p+0", 2, "0x1.53d199d46025cp+0", 1, "0x1.53d199d46025cp+0", 1)),
    # p = 1 for both, opposite signs
    ((0.6, 0.7, 0.5, 4.0, 5.0, -1.4436354751788103, 1.5444849524223014),
     ("0x0.0p+0", 2, "0x0.0p+0", 2, "0x0.0p+0", 2)),
    # eta1 = 0 and eta1 = 1
    ((0.0, 0.9, 1.0, 3.0, 3.0, 0.5, -0.5),
     ("0x0.0p+0", 2, "0x1.3f20040fc911ep+1", 1, "0x1.3f20040fc911ep+1", 1)),
    ((1.0, 0.9, 1.0, 3.0, 3.0, 0.5, -0.5),
     ("0x1.3f20040fc911ep+1", 1, "0x0.0p+0", 2, "0x1.3f20040fc911ep+1", 1)),
    # n_thermal = 0
    ((0.4, 0.95, 0.0, 1.5, 2.5, 0.3, 0.2),
     ("0x1.78aad8d224696p+0", 1, "0x1.2d086a004124ep+1", 1, "0x1.5a5ea9d0d0852p+1", 1)),
    ((0.2, 0.9, 4.0, 4.0, 8.0, 0.8, -0.4),
     ("0x1.3aef46d31906ap-1", 1, "0x1.4cc58df531cbcp+1", 1, "0x1.5bdbb84a8a47cp+1", 1)),
    # mixed branches at low power, eta2 = 1, and far-apart photon numbers
    ((0.7, 0.3, 0.1, 0.01, 0.02, 0.05, -0.1),
     ("0x1.921c4e44547c0p-8", 1, "0x1.cb28e5450b980p-9", 2, "0x1.3ac91cc5bfc00p-7", 1)),
    ((0.5, 1.0, 3.0, 1e-09, 1000000000.0, 0.0, 2.0),
     ("0x1.8f036c0000000p-29", 2, "0x1.c00cdb0e6323bp+4", 1, "0x1.c00cdb0e6323bp+4", 1)),
    ((0.45, 0.55, 1000.0, 1000000.0, 0.001, -3.0, 0.0),
     ("0x1.20ec87a8c79f2p+3", 1, "0x1.041d357800000p-20", 2, "0x1.20ec87a9b986cp+3", 1)),
    ((0.9, 0.6, 0.2, 0.5, 0.5, 0.48121182505960347, -0.6584789484624084),
     ("0x1.7dc9bb462e85cp-2", 2, "0x0.0p+0", 2, "0x1.7dc9bb462e85cp-2", 2)),
]


class TestKernelContract:
    @pytest.mark.parametrize("fn", [
        lambda v: big_g12(0.5, v), big_g2, lambda v: big_g12_simplified(0.5, v),
    ], ids=["big_g12", "big_g2", "big_g12_simplified"])
    def test_cross_covariance_rejected(self, fn):
        with pytest.raises(ValueError, match="v12"):
            fn(CovMatrix2(1.0, 1.0, 0.5))

    @pytest.mark.parametrize("args,expected", PINNED_TRIPLES)
    def test_rate_triple_bits(self, args, expected):
        got = _kernels.rate_triple(*args)
        assert got[1::2] == expected[1::2]
        assert [x.hex() for x in got[0::2]] == list(expected[0::2])


def mp_rates(v1, v2, nca, ncb):
    """(rate, branch) of Alice, Bob and the sum for float receiver variances
    and received photon numbers, at 60 digits: the piecewise rule with the
    branch-2 bracket in its literal nested form."""
    with mp.workdps(60):
        v1, v2, nca, ncb = map(mpf, (v1, v2, nca, ncb))
        half = mpf(1) / 2
        g2 = mp_g(max(2 * mpsqrt(v1 * v2) - half, 0))
        out = []
        for n in (nca, ncb, nca + ncb):
            if n >= abs(v1 - v2):
                arg, branch = v1 + v2 + n - half, 1
            else:
                inner = ((v1 + v2 + n) / 2) ** 2 - (abs(v1 - v2) / 2 - n / 2) ** 2
                arg, branch = 2 * mpsqrt(inner) - half, 2
            out += [float(max(mp_g(max(arg, 0)) - g2, 0)), branch]
        return tuple(out)


#: Branch-2 inputs whose factored argument cancels, as
#: (eta1, eta2, n_thermal, n_a, n_b, p_a): V_max dwarfs V_min + n when Alice
#: squeezes 1e12 or 1e16 photons, and the lossless corner holds a pure state.
CANCELLING = [
    (0.5, 0.9, 1.0, 1e16, 1.0, 0.99),  # rates --na 1e16 --pa 0.99
    (0.5, 0.9, 1.0, 1e16, 1.0, 1.0),  # rates --pa 1 --na 1e16
    (0.5, 0.9, 1.0, 1e12, 1.0, 0.999),
    (0.5, 0.9, 1.0, 1e8, 1.0, 0.99),
    (1.0, 1.0, 1.0, 1000.0, 1.0, 0.5),  # rates --eta1 1 --eta2 1 --na 1000 --pa 0.5
    (1.0, 1.0, 1.0, 100.0, 1.0, 1.0),
]


@pytest.mark.parametrize("args", CANCELLING, ids=[str(a) for a in CANCELLING])
def test_branch_two_rates_where_the_factored_argument_cancels(args):
    eta1, eta2, nt, n_a, n_b, p_a = args
    budget = SqueezeFractions(p_a, 0.0).budget_for(n_a, n_b)
    squeezing = (budget.r_a, budget.r_b)
    v1, v2 = _kernels.receiver_variances(eta1, eta2, nt, *squeezing)
    nca, ncb = _kernels.received_photon_pair(eta1, eta2, n_a, n_b, *squeezing)
    got = _kernels.rate_triple(eta1, eta2, nt, n_a, n_b, *squeezing)
    want = mp_rates(v1, v2, nca, ncb)
    assert got[1::2] == want[1::2]
    assert 2 in got[1::2]
    assert got[0::2] == pytest.approx(want[0::2], rel=1e-12, abs=1e-10)


class TestJointDetectionRates:
    def test_pure_loss_point_to_point(self):
        params = ChannelParams(0.3, 0.8, 0.0)
        rate, branch = individual_rate(params, PhotonBudget(5.0, 0.0), User.ALICE)
        assert branch is Branch.ONE
        assert rate == pytest.approx(g_entropy(0.3 * 0.8 * 5.0), rel=1e-13)

    def test_thermal_baseline_value(self, surface_channel, surface_budget):
        rate, branch = individual_rate(surface_channel, surface_budget, User.ALICE)
        assert branch is Branch.ONE
        assert rate == pytest.approx(0.9067288652014576, rel=1e-13)

    def test_reduces_to_point_to_point_without_bob(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            params = random_channel(rng)
            n_a = rng.uniform(0, 10)
            rate, _ = individual_rate(params, PhotonBudget(n_a, 0.0), User.ALICE)
            expected = point_to_point(
                params.eta1 * params.eta2 * n_a, (1 - params.eta2) * params.n_thermal
            )
            assert rate == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_coherent_bob_does_not_enter_alice_rate(self, region_channel):
        r1, _ = individual_rate(region_channel, PhotonBudget(1.0, 0.0), User.ALICE)
        r2, _ = individual_rate(region_channel, PhotonBudget(1.0, 1000.0), User.ALICE)
        assert r1 == r2

    def test_sum_rate_all_vacuum(self):
        assert sum_rate(ChannelParams(0.5, 0.5, 1.0), PhotonBudget(0.0, 0.0))[0] == 0.0

    def test_sum_rate_equals_coherent_capacity(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            params = random_channel(rng)
            budget = PhotonBudget(rng.uniform(0, 20), rng.uniform(0, 20))
            s, branch = sum_rate(params, budget)
            assert branch is Branch.ONE
            assert s == pytest.approx(
                sum_rate_capacity_coherent(params, budget), rel=1e-12, abs=1e-15
            )

    def test_sum_rate_value(self, region_channel, region_budget):
        s, _ = sum_rate(region_channel, region_budget)
        assert s == pytest.approx(10.359754132849243, rel=1e-13)
        assert s == pytest.approx(
            point_to_point(0.9 * (0.25 * 1.0 + 0.75 * 1000.0), 0.1), rel=1e-13
        )

    def test_sum_dominates_individuals_for_coherent(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            params = random_channel(rng)
            bundle = rate_bundle(params, PhotonBudget(rng.uniform(0, 20), rng.uniform(0, 20)))
            assert bundle.r_max_ab >= max(bundle.r_max_a, bundle.r_max_b) - 1e-12

    def test_branch_two_fires_under_heavy_squeezing(self, surface_channel):
        budget = PhotonBudget(4.0, 8.0, 0.0, math.asinh(2.0))
        rate, branch = individual_rate(surface_channel, budget, User.ALICE)
        assert branch is Branch.TWO
        assert rate > 0.0

    def test_branch_continuity_at_crossing(self):
        rng = np.random.default_rng(25)
        checked = 0
        while checked < 5:
            params = random_channel(rng)
            n_a = rng.uniform(0.5, 10)
            r_b = rng.uniform(-1, 1)
            n_b = squeezing_cost(r_b) + rng.uniform(0, 2)
            r_cross = branch_crossing(params, n_a, n_b, r_b)
            if r_cross is None:
                continue
            checked += 1
            budget = PhotonBudget(n_a, n_b, r_cross, r_b)
            v = CovMatrix2(*_kernels.receiver_variances(
                params.eta1, params.eta2, params.n_thermal, r_cross, r_b
            ))
            n = params.eta1 * params.eta2 * budget.n_alpha
            b1 = big_g11(n, v) - big_g2(v)
            b2 = big_g12(n, v) - big_g2(v)
            assert abs(b1 - b2) < 1e-9


class TestPointToPointAndBounds:
    def test_point_to_point_trivial(self):
        assert point_to_point(1.5, 0.0) == pytest.approx(g_entropy(1.5), rel=1e-14)
        assert point_to_point(0.0, 2.0) == 0.0

    def test_point_to_point_value(self):
        expected = float(mp_g(2) - mp_g(1))
        assert expected == pytest.approx(0.7548875021634686, rel=1e-15)
        assert point_to_point(1.0, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_point_to_point_validation(self):
        with pytest.raises(ValueError):
            point_to_point(-1.0, 0.0)

    def test_outer_bound(self, region_channel, region_budget):
        assert outer_bound(region_channel, region_budget, User.ALICE) == pytest.approx(
            1.5165533143863354, rel=1e-13
        )
        lossless = ChannelParams(0.3, 1.0, 5.0)
        assert outer_bound(lossless, PhotonBudget(2.0, 0.0), User.ALICE) == pytest.approx(
            g_entropy(2.0), rel=1e-13
        )
        assert outer_bound(region_channel, PhotonBudget(0.0, 1.0), User.ALICE) == 0.0

    def test_individual_rate_below_outer_bound(self):
        rng = np.random.default_rng(26)
        for _ in range(10_000):
            params = random_channel(rng)
            budget = random_budget(rng)
            rate, _ = individual_rate(params, budget, User.ALICE)
            assert rate <= outer_bound(params, budget, User.ALICE) + 1e-9

    def test_coherent_capacity_decoupled_bob(self):
        params = ChannelParams(1.0, 0.8, 2.0)
        budget = PhotonBudget(3.0, 7.0)
        assert sum_rate_capacity_coherent(params, budget) == pytest.approx(
            outer_bound(params, budget, User.ALICE), rel=1e-14
        )


class TestReceiverRates:
    def test_homodyne_zero_budget(self):
        assert homodyne_sum_rate(ChannelParams(0.5, 0.9, 1.0), PhotonBudget(0.0, 0.0)) == 0.0

    def test_homodyne_point_to_point(self):
        # Fully transmissive channel and no thermal noise: 0.5 log2(1 + 4 n).
        params = ChannelParams(1.0, 1.0, 0.0)
        rate = homodyne_sum_rate(params, PhotonBudget(3.0, 0.0))
        assert rate == pytest.approx(0.5 * math.log2(13.0), rel=1e-13)

    def test_homodyne_value(self, region_channel, region_budget):
        assert homodyne_sum_rate(region_channel, region_budget) == pytest.approx(
            5.568415473051362, rel=1e-13
        )

    def test_homodyne_requires_coupling(self):
        with pytest.raises(ValueError):
            homodyne_sum_rate(ChannelParams(0.0, 0.9, 1.0), PhotonBudget(1.0, 1.0))
        with pytest.raises(ValueError):
            homodyne_sum_rate(ChannelParams(0.5, 0.0, 1.0), PhotonBudget(1.0, 1.0))

    def test_heterodyne_trivial(self):
        assert heterodyne_sum_rate(ChannelParams(0.5, 0.9, 1.0), PhotonBudget(0.0, 0.0)) == 0.0
        lossless = ChannelParams(0.25, 1.0, 3.0)
        assert heterodyne_sum_rate(lossless, PhotonBudget(4.0, 8.0)) == pytest.approx(
            math.log2(1 + 0.25 * 4 + 0.75 * 8), rel=1e-13
        )

    def test_heterodyne_value(self, region_channel, region_budget):
        assert heterodyne_sum_rate(region_channel, region_budget) == pytest.approx(
            9.138751765258174, rel=1e-13
        )

    def test_heterodyne_rejects_squeezing(self, region_channel):
        with pytest.raises(ValueError):
            heterodyne_sum_rate(region_channel, PhotonBudget(1.0, 1.0, 0.5, 0.0))

    def test_individual_receiver_rates(self, region_channel, region_budget):
        het_a = receiver_individual_rates(
            region_channel, region_budget, Receiver.HETERODYNE, User.ALICE
        )
        assert het_a == pytest.approx(0.2479275134435855, rel=1e-13)
        zero = receiver_individual_rates(
            region_channel, PhotonBudget(0.0, 5.0), Receiver.HETERODYNE, User.ALICE
        )
        assert zero == 0.0

    def test_homodyne_individual_keeps_other_squeezing(self):
        # Bob's squeezed quadrature keeps adding noise after his photons are zeroed.
        params = ChannelParams(0.5, 0.9, 1.0)
        n_b = squeezing_cost(-20.0)
        budget = PhotonBudget(2.0, n_b, 0.0, -20.0)
        hom_a = receiver_individual_rates(params, budget, Receiver.HOMODYNE, User.ALICE)
        limit = 0.5 * math.log2(
            1 + 4 * 2.0 / (1.0 + (1 - 0.9) * 3.0 / (0.5 * 0.9))
        )
        assert hom_a == pytest.approx(limit, rel=1e-9)

    def test_receivers_below_joint_detection(self):
        rng = np.random.default_rng(27)
        for _ in range(10_000):
            params = random_channel(rng)
            budget = PhotonBudget(rng.uniform(0, 20), rng.uniform(0, 20))
            s, _ = sum_rate(params, budget)
            assert heterodyne_sum_rate(params, budget) <= s + 1e-9
            assert homodyne_sum_rate(params, budget) <= s + 1e-9


# ---------------------------------------------------------------------------
# The lean point paths against their definitions, bit for bit.

def _hex(values):
    return None if values is None else [float(v).hex() for v in values]


def _receiver_reference(params, budget, receiver):
    """(alice, bob, sum) from the public per-user and sum functions."""
    sum_rate_of = heterodyne_sum_rate if receiver is Receiver.HETERODYNE else homodyne_sum_rate
    try:
        return (
            receiver_individual_rates(params, budget, receiver, User.ALICE),
            receiver_individual_rates(params, budget, receiver, User.BOB),
            sum_rate_of(params, budget),
        )
    except InputError:
        return None


def test_receiver_rates_match_the_per_user_and_sum_functions():
    rng = np.random.default_rng(141)
    undefined = 0
    for _ in range(3000):
        eta1, eta2 = (float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])) for _ in range(2))
        params = ChannelParams(eta1, eta2, float(rng.choice([0.0, rng.uniform(0, 5)])))
        budget = random_budget(rng) if rng.random() < 0.6 else PhotonBudget(
            *(float(rng.choice([0.0, rng.uniform(0, 20)])) for _ in range(2)))
        for receiver in Receiver:
            got = receiver_rates(params, budget, receiver)
            assert _hex(got) == _hex(_receiver_reference(params, budget, receiver))
            undefined += got is None
    assert undefined > 0


@pytest.mark.parametrize("n_a,n_b,r_a,fields", [
    # Alice's photons alone overflow 4 * n_alpha (at 1e308 each, Bob's do too).
    (1e308, 1.0, 0.0, ("n_a", None, "n_a", "n_a")),
    (1e308, 1e308, 0.0, ("n_a", "n_b", "n_a", "n_a")),
    (1e308, 1.0, 354.8, ("n_a", None, "n_a", "n_a")),
    # Each user's term fits a double, their sum does not.
    (3e307, 3e307, 0.0, (None, None, "n_b", "n_b")),
    (4.4e307, 0.0, 0.0, (None, None, None, None)),
])
def test_homodyne_overflow_names_the_photon_total(n_a, n_b, r_a, fields):
    # Every homodyne entry point: Alice's and Bob's rates, the sum rate and
    # receiver_rates; None where the rate is finite.
    params, budget = ChannelParams(0.5, 0.9, 1.0), PhotonBudget(n_a, n_b, r_a)
    calls = [lambda: receiver_individual_rates(params, budget, Receiver.HOMODYNE, User.ALICE),
             lambda: receiver_individual_rates(params, budget, Receiver.HOMODYNE, User.BOB),
             lambda: homodyne_sum_rate(params, budget),
             lambda: receiver_rates(params, budget, Receiver.HOMODYNE)]
    for call, field in zip(calls, fields):
        if field is None:
            assert all(map(math.isfinite, np.atleast_1d(call())))
            continue
        with pytest.raises(InputError) as exc:
            call()
        assert exc.value.field == field
        assert "4 * (n_alpha + n_beta * (1 - eta1) / eta1) overflows" in exc.value.message
    assert all(map(math.isfinite, receiver_rates(params, PhotonBudget(n_a, n_b),
                                                 Receiver.HETERODYNE)))


def test_rate_bundle_branches_are_the_branch_members():
    rng = np.random.default_rng(142)
    seen = set()
    for _ in range(500):
        params, budget = random_channel(rng), random_budget(rng)
        bundle = rate_bundle(params, budget)
        branches = (
            bundle.branch_a, bundle.branch_b, bundle.branch_ab,
            individual_rate(params, budget, User.ALICE)[1],
            individual_rate(params, budget, User.BOB)[1],
            sum_rate(params, budget)[1],
        )
        for branch in branches:
            assert branch is Branch.ONE or branch is Branch.TWO
        assert branches[:3] == branches[3:]
        seen.update(branches)
    assert seen == {Branch.ONE, Branch.TWO}


def _scalar_oracle(seed, draws):
    """check_covariance_oracle with one scalar draw at a time: each case's
    drawn values and the worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = []
    for _ in range(draws):
        params = ChannelParams(
            eta1=float(rng.uniform(0.02, 0.98)),
            eta2=float(rng.uniform(0.02, 0.98)),
            n_thermal=float(rng.uniform(0.0, 5.0)),
        )
        r_a = float(rng.uniform(-3.0, 3.0))
        r_b = float(rng.uniform(-3.0, 3.0))
        budget = PhotonBudget(
            squeezing_cost(r_a) + float(rng.uniform(0.0, 10.0)),
            squeezing_cost(r_b) + float(rng.uniform(0.0, 10.0)),
            r_a,
            r_b,
        )
        closed = receiver_covariance(budget, params)
        eta3 = float(rng.uniform(0.0, 1.0))
        net = mac_network(params, eta3=eta3)
        oracle = propagate(net, mac_input_ensemble(params, budget)).receiver_covariance()
        err = max(
            abs(closed.v11 - oracle.v11), abs(closed.v22 - oracle.v22), abs(oracle.v12)
        ) / max(closed.v11, closed.v22)
        worst = max(worst, err)
        cases.append(_hex((*astuple(params), *astuple(budget), eta3)))
    return cases, worst


@pytest.mark.parametrize("draws", [0, 1, 100])
def test_covariance_oracle_matches_scalar_draws(draws, monkeypatch):
    from bosonic_mac import verification

    cases = []

    def recording_network(params, eta3):
        cases.append((params, eta3))
        return mac_network(params, eta3=eta3)

    def recording_ensemble(params, budget):
        params, eta3 = cases.pop()
        cases.append(_hex((*astuple(params), *astuple(budget), eta3)))
        return mac_input_ensemble(params, budget)

    monkeypatch.setattr(verification, "mac_network", recording_network)
    monkeypatch.setattr(verification, "mac_input_ensemble", recording_ensemble)
    for seed in range(20):
        cases.clear()
        result = check_covariance_oracle(seed, draws)
        want_cases, want_worst = _scalar_oracle(seed, draws)
        assert cases == want_cases
        assert result.details["max_relative_error"].hex() == want_worst.hex()
        assert result.details["draws"] == draws


def test_covariance_oracle_without_draws_is_empty():
    result = check_covariance_oracle(0, -3)
    assert result.details["max_relative_error"] == 0.0
    assert result.passed


def _bisect_200(params, n_a, n_b, r_b):
    """branch_crossing with all 200 bisection steps."""

    def gap(r_a):
        v1, v2 = _kernels.receiver_variances(
            params.eta1, params.eta2, params.n_thermal, r_a, r_b
        )
        return params.eta1 * params.eta2 * _kernels.displacement_photons(n_a, r_a) - abs(v1 - v2)

    lo, hi = 0.0, math.asinh(math.sqrt(n_a))
    if gap(lo) <= 0.0 or gap(hi) >= 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_branch_crossing_matches_the_200_step_bisection():
    rng = np.random.default_rng(143)
    found = 0
    for _ in range(400):
        params = random_channel(rng)
        n_a = float(rng.uniform(0.0, 20.0))
        r_b = float(rng.uniform(-2.0, 2.0))
        n_b = squeezing_cost(r_b) + float(rng.uniform(0.0, 5.0))
        got = branch_crossing(params, n_a, n_b, r_b)
        want = _bisect_200(params, n_a, n_b, r_b)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert got.hex() == want.hex()
    assert found > 50
