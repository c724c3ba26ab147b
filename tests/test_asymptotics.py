import json
import math

import pytest

from bosonic_mac import (
    CaseThreeConfig,
    ChannelParams,
    LimitProbe,
    PhotonBudget,
    User,
    g_entropy,
    high_power_heterodyne_probe,
    high_power_heterodyne_ratio,
    homodyne_asymptotic_ratio,
    homodyne_half_probe,
    individual_rate,
    low_power_alice_first_probe,
    low_power_bob_first_probe,
    low_power_simultaneous_probes,
    max_bob_scale_branch1,
    point_to_point,
    receiver_gap_probes,
)
from bosonic_mac import _kernels
from bosonic_mac.asymptotics import DEFAULT_CHANNEL, falling_schedule, rising_schedule
from bosonic_mac.cli import dumps_json


class TestLimitProbe:
    def test_requires_monotone_schedule(self):
        with pytest.raises(ValueError):
            LimitProbe("x", (1.0, 3.0, 2.0), (1.0, 1.0, 1.0), 1.0, 0.01)

    def test_requires_finite_ratios(self):
        with pytest.raises(ValueError):
            LimitProbe("x", (1.0, 2.0), (1.0, math.inf), 1.0, 0.01)

    def test_verdict_logic(self):
        good = LimitProbe("x", (1.0, 10.0, 100.0, 1000.0, 10000.0),
                          (0.5, 0.8, 0.9, 0.95, 0.999), 1.0, 0.01)
        assert good.converged and good.verdict == "converged"
        oscillating = LimitProbe("x", (1.0, 10.0, 100.0, 1000.0, 10000.0),
                                 (0.5, 0.8, 0.999, 0.95, 0.999), 1.0, 0.01)
        assert not oscillating.converged

    def test_serialization_contract(self):
        probe = high_power_heterodyne_probe()
        doc = probe.to_dict()
        assert set(doc) == {
            "lemma", "schedule", "ratios", "target", "gap",
            "verdict", "tolerances", "metadata",
        }
        parsed = json.loads(dumps_json(doc))
        assert parsed["ratios"] == list(probe.ratios)
        assert parsed["verdict"] == probe.verdict


class TestHighPowerHeterodyne:
    def test_lossless_ratio_is_known_gap(self):
        # With no loss or noise the ratio is log2(1+n)/g(n), always below 1.
        params = ChannelParams(1.0, 1.0, 0.0)
        for n in (10.0, 1e4, 1e8):
            expected = math.log2(1 + n) / g_entropy(n)
            assert high_power_heterodyne_ratio(n, params) == pytest.approx(expected, rel=1e-12)
            assert expected < 1.0

    def test_subunity_at_low_power(self):
        assert high_power_heterodyne_ratio(0.01, DEFAULT_CHANNEL) < 1.0

    def test_probe_honest_values(self):
        # The ratio climbs monotonically but its gap at 1e8 is still 0.081:
        # the two rates differ by an additive constant while both grow only
        # logarithmically, so the gap closes like 1/log(n).
        probe = high_power_heterodyne_probe()
        assert probe.schedule[-1] == 1e8
        assert probe.ratios[-1] == pytest.approx(0.9188434608540331, rel=1e-12)
        assert probe.monotone_approach
        assert probe.gap == pytest.approx(0.0811565391459669, abs=1e-12)
        assert not probe.converged  # gap far above the 0.01 tolerance

    def test_bob_mirror(self):
        params = ChannelParams(0.3, 0.9, 1.0)
        ra = high_power_heterodyne_ratio(1e6, params, User.ALICE)
        rb = high_power_heterodyne_ratio(1e6, params, User.BOB)
        assert ra != rb
        mirrored = ChannelParams(0.7, 0.9, 1.0)
        assert high_power_heterodyne_ratio(1e6, mirrored, User.BOB) == pytest.approx(
            ra, rel=1e-12
        )


class TestHomodyneHalfLimit:
    def test_zero_alice_budget(self):
        assert homodyne_asymptotic_ratio(0.0, 10.0, DEFAULT_CHANNEL) == (0.0, 0.0)

    def test_probe_converges_to_half(self):
        probe = homodyne_half_probe()
        assert probe.schedule[-1] == 1e6
        assert probe.converged
        assert abs(probe.ratios[-1] - 0.5) < 0.05
        assert probe.ratios[-1] == pytest.approx(0.5428170636419651, rel=1e-6)
        # The optimizer reports the searched squeezing, which is strongly
        # negative at high power rather than zero.
        assert probe.metadata["optimal_r_a"][-1] < -1.0

    def test_pure_loss_analog_approaches_unity(self):
        # Without the environment coupling (eta2 = 1) the optimized ratio
        # climbs toward 1 instead of 1/2.
        params = ChannelParams(0.5, 1.0, 0.0)
        ratio, _ = homodyne_asymptotic_ratio(1e8, 1e8, params)
        assert ratio > 0.9

    def test_vacuum_loss_port_still_halves(self):
        # Any eta2 < 1 leaves vacuum noise in the measured quadrature, so
        # even a noiseless environment pins the double limit at 1/2.
        params = ChannelParams(0.5, 0.9, 0.0)
        ratio, _ = homodyne_asymptotic_ratio(1e8, 1e8, params)
        assert abs(ratio - 0.5) < 0.06


class TestLowPowerCases:
    def test_bob_first_exact_reduction(self):
        probe = low_power_bob_first_probe()
        assert probe.converged
        assert all(abs(r - 1.0) < 1e-9 for r in probe.ratios)

    def test_bob_first_is_identity_with_zero_bob(self):
        for n_a in (1e-3, 0.5, 4.0):
            rate, _ = individual_rate(DEFAULT_CHANNEL, PhotonBudget(n_a, 0.0), User.ALICE)
            expected = point_to_point(0.45 * n_a, 0.1)
            assert rate == pytest.approx(expected, rel=1e-12)

    def test_alice_first_probe(self):
        probe = low_power_alice_first_probe()
        assert probe.converged
        assert probe.gap < 0.01
        assert all(b == 2 for b in probe.metadata["branches"])

    def test_alice_first_noise_dominated(self):
        # Strong thermal noise with small budgets still converges to 1.
        probe = low_power_alice_first_probe(ChannelParams(0.5, 0.9, 50.0))
        assert probe.converged

    def test_alice_first_inner_limit_value(self):
        # At fixed Bob squeezing the small-Alice ratio approaches a closed
        # form assembled from the receiver variances; evaluate it directly.
        params = DEFAULT_CHANNEL
        n_b = 1.0
        r_b = math.asinh(math.sqrt(n_b))
        v1, v2 = _kernels.receiver_variances(params.eta1, params.eta2, params.n_thermal, 0.0, r_b)
        s = math.sqrt(v1 * v2)
        expected = (v1 / s) * math.log((1 + 4 * s) / (-1 + 4 * s)) / math.log(
            1 + 1 / ((1 - params.eta2) * params.n_thermal)
        )
        assert expected == pytest.approx(1.1639233618999931, rel=1e-12)

        n_a = 1e-8
        budget = PhotonBudget(n_a, n_b, 0.0, r_b)
        rate, branch = individual_rate(params, budget, User.ALICE)
        assert branch == 2
        ratio = rate / point_to_point(0.45 * n_a, 0.1)
        assert abs(ratio - expected) < 0.05

    def test_simultaneous_probes_converge(self):
        probes = low_power_simultaneous_probes(CaseThreeConfig(kappa=1.0))
        for probe in probes:
            assert probe.converged
            assert probe.gap < 0.01

    def test_simultaneous_kappa_zero_is_coherent(self):
        probe1, _ = low_power_simultaneous_probes(CaseThreeConfig(kappa=0.0))
        assert probe1.converged
        assert all(abs(r - 1.0) < 1e-9 for r in probe1.ratios)

    def test_squeezing_effect_vanishes(self):
        # Bob's permitted squeezing shifts the ratio by an amount that
        # shrinks along the schedule; squeezing is asymptotically useless.
        schedule = falling_schedule(6)
        base, _ = low_power_simultaneous_probes(CaseThreeConfig(kappa=0.0))
        deltas = {}
        for kappa in (0.5, 1.0):
            probe, _ = low_power_simultaneous_probes(CaseThreeConfig(kappa=kappa))
            diffs = [abs(a - b) for a, b in zip(probe.ratios, base.ratios)]
            tail = [d for n, d in zip(schedule, diffs) if n <= 1e-4]
            assert all(d < 1e-4 for d in tail)
            assert all(b < a for a, b in zip(tail, tail[1:]))
            deltas[kappa] = tail
        assert max(deltas[0.5][-1], deltas[1.0][-1]) < 1e-6

    def test_case_config_validation(self):
        with pytest.raises(ValueError):
            CaseThreeConfig(a=-1.0)
        with pytest.raises(ValueError):
            CaseThreeConfig(kappa=1.5)
        with pytest.raises(ValueError):
            CaseThreeConfig(p_a=2.0)


class TestBobScaleBound:
    def test_value(self):
        assert max_bob_scale_branch1(1.0, 0.5, 0.1) == pytest.approx(
            0.09901951359278482, rel=1e-12
        )

    def test_constraint_holds_with_equality(self):
        for a, eta1, n in ((1.0, 0.5, 0.1), (2.0, 0.3, 1e-3), (0.5, 0.8, 1e-5)):
            b = max_bob_scale_branch1(a, eta1, n)
            r_b = math.asinh(math.sqrt(b * n))
            v1, v2 = _kernels.receiver_variances(eta1, 0.9, 1.0, 0.0, r_b)
            n_ca = eta1 * 0.9 * a * n
            assert abs(n_ca - abs(v1 - v2)) / n_ca < 1e-9

    def test_matches_independent_root(self):
        # Bisection on the defining constraint, reusing nothing from the
        # closed form.
        a, eta1, n = 1.0, 0.5, 0.1

        def excess(b):
            r_b = math.asinh(math.sqrt(b * n))
            v1, v2 = _kernels.receiver_variances(eta1, 0.7, 2.0, 0.0, r_b)
            return eta1 * 0.7 * a * n - abs(v1 - v2)

        lo, hi = 0.0, 10.0
        assert excess(lo) > 0 and excess(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert max_bob_scale_branch1(a, eta1, n) == pytest.approx(root, rel=1e-9)

    def test_unbounded_at_full_transmissivity(self):
        with pytest.raises(ValueError):
            max_bob_scale_branch1(1.0, 1.0, 0.1)


class TestReceiverGap:
    def test_ratios_decrease_to_positive_plateau(self):
        het, hom = receiver_gap_probes()
        for probe in (het, hom):
            gaps = [abs(r) for r in probe.ratios[-4:]]
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        # The plateau is set by the thermal floor: both ratios approach
        # fixed positive constants, not zero.
        params = DEFAULT_CHANNEL
        d = 1 + (1 - params.eta2) * (1 + 2 * params.n_thermal) / params.eta2
        y = (1 - params.eta2) * params.n_thermal
        log2e = 1 / math.log(2.0)
        het_limit = log2e / (d * params.eta2 * math.log2(1 + 1 / y))
        assert het.ratios[-1] == pytest.approx(het_limit, rel=1e-3)
        assert het.ratios[-1] == pytest.approx(0.3475, abs=2e-4)
        assert hom.ratios[-1] == pytest.approx(0.6951, abs=2e-4)
        assert not het.converged and not hom.converged

    def test_pure_loss_guarded(self):
        with pytest.raises(ValueError):
            receiver_gap_probes(ChannelParams(0.5, 0.9, 0.0))


def test_schedules():
    up = rising_schedule(8)
    assert up[0] == 1.0 and up[-1] == 1e8 and len(up) == 9
    down = falling_schedule(6)
    assert down[0] == 1.0 and down[-1] == 1e-6 and len(down) == 7


#: float.hex of each probe's ratios and metadata lists on PROBE_CHANNEL
#: with PROBE_CONFIG.  Case 3 with a != 1 pins the association of
#: eta1 * eta2 * a * n in the branch-1 reference: eta1 * eta2 * (a * n)
#: rounds differently.
PROBE_CHANNEL = ChannelParams(0.2, 0.99, 0.01)
PROBE_CONFIG = CaseThreeConfig(a=0.7, b=2.5, kappa=0.3, p_a=0.8)
PROBE_BITS = {
    "high-power-heterodyne": {
        "ratios": [
            "0x1.0c5d6fa47a412p-3", "0x1.4eb005ed72e7cp-2", "0x1.1581c7d2569f5p-1",
            "0x1.572b41c7340a6p-1", "0x1.7d125dca93025p-1", "0x1.952b36cd6d787p-1",
            "0x1.a5c87e5949512p-1", "0x1.b1ed16d84d3f7p-1", "0x1.bb302850225aap-1",
        ],
    },
    "homodyne-half": {
        "ratios": [
            "0x1.80cd42a614a45p-1", "0x1.a05475b888715p-1", "0x1.85d596ffac2c9p-1",
            "0x1.688350c99b97ap-1", "0x1.534f8afcfd4bep-1", "0x1.44956e987d00fp-1",
            "0x1.3a14d7b389c02p-1",
        ],
        "optimal_r_a": [
            "-0x1.0933eb3a39b1cp-1", "-0x1.5bad94084fea8p+0", "-0x1.10d780482d930p+1",
            "-0x1.63e13e295e586p+1", "-0x1.b097a0221bd14p+1", "-0x1.fb3ccb2c52736p+1",
            "-0x1.229cc9899799ep+2",
        ],
    },
    "low-power-bob-first": {
        "ratios": [
            "0x1.0000000000000p+0", "0x1.000000000000ap+0", "0x1.fffffffffffcep-1",
            "0x1.00000000002c8p+0", "0x1.0000000000cb7p+0", "0x1.ffffffffd05b2p-1",
            "0x1.fffffffde34eep-1",
        ],
    },
    "low-power-alice-first": {
        "ratios": [
            "0x1.cebc3618f264ep-1", "0x1.7a3ace21d5337p-1", "0x1.9df1d0d9f403bp-1",
            "0x1.e167ea23abc22p-1", "0x1.ff8e596ca6f64p-1", "0x1.00d41bd928622p+0",
            "0x1.005c212ba29acp+0",
        ],
        "branches": [2, 2, 2, 2, 2, 2, 2],
    },
    "low-power-simultaneous-branch1": {
        "ratios": [
            "0x1.02757eff1bbc7p+0", "0x1.009c2ebfd8974p+0", "0x1.00159bc727373p+0",
            "0x1.0002895814ea7p+0", "0x1.0000450052b33p+0", "0x1.000006f728172p+0",
            "0x1.000000b3e310ap+0",
        ],
        "branches": [1, 1, 1, 1, 1, 1, 1],
        "b_along_schedule": [
            "0x1.245c6cd8eadbbp-7", "0x1.e18acbd6ef66cp-11", "0x1.8159ba5bfd0f3p-14",
            "0x1.3448058aa9a49p-17", "0x1.ed4009d8c24adp-21", "0x1.8a99a17c36dfdp-24",
            "0x1.3bae1ac9c99c3p-27",
        ],
    },
    "low-power-simultaneous-branch2": {
        "ratios": [
            "0x1.65d1dbd8e779bp+1", "0x1.4f46b7e4854b8p+1", "0x1.2be25640eb548p+1",
            "0x1.d303481e73067p+0", "0x1.2cedb965d5e0cp+0", "0x1.050d43a5a8862p+0",
            "0x1.0082b7b6d02bep+0",
        ],
    },
    "receiver-gap-heterodyne": {
        "ratios": [
            "0x1.58e941fe840cfp-2", "0x1.9dc5f8be2c2d1p-3", "0x1.2342351591fcdp-3",
            "0x1.ddf686822b22dp-4", "0x1.c12805fa980bep-4", "0x1.bd193e197e71fp-4",
            "0x1.bcabe84079551p-4",
        ],
    },
    "receiver-gap-homodyne": {
        "ratios": [
            "0x1.1670777e07e14p-1", "0x1.9222e2719e525p-2", "0x1.22660942ff067p-2",
            "0x1.ddd2366b4be20p-3", "0x1.c1249bf4c912bp-3", "0x1.bd18e77b88465p-3",
            "0x1.bcabdf9931bd9p-3",
        ],
    },
}


def test_probe_bits():
    params = PROBE_CHANNEL
    probes = [
        high_power_heterodyne_probe(params),
        homodyne_half_probe(params),
        low_power_bob_first_probe(params),
        low_power_alice_first_probe(params),
        *low_power_simultaneous_probes(PROBE_CONFIG, params),
        *receiver_gap_probes(params),
    ]
    bits = {}
    for probe in probes:
        fields = bits[probe.name] = {"ratios": [r.hex() for r in probe.ratios]}
        for key in ("optimal_r_a", "b_along_schedule"):
            if key in probe.metadata:
                fields[key] = [v.hex() for v in probe.metadata[key]]
        if "branches" in probe.metadata:
            fields["branches"] = probe.metadata["branches"]
    assert bits == PROBE_BITS
