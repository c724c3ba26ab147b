import json

import pytest

from bosonic_mac import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BAD_INPUTS = [
    (["rates", "--na", "inf"], "na"),
    (["rates", "--nt", "inf"], "nt"),
    (["rates", "--eta1", "nan"], "eta1"),
    (["rates", "--ra", "inf"], "ra"),
    (["rates", "--ra", "5"], "ra"),
    (["rates", "--ra", "1000"], "ra"),
    (["rates", "--pa", "nan"], "pa"),
    (["rates", "--pa", "0.5", "--na", "-1"], "na"),
    (["region", "--encoding", "nan,0"], "encoding"),
    (["region", "--encoding", "5,0"], "encoding"),
    (["asymptotics", "--lemma", "1", "--kappa", "5"], "kappa"),
    (["asymptotics", "--eta1", "0"], "eta1"),
    (["asymptotics", "--eta1", "1e-20"], "eta1"),
    (["asymptotics", "--eta2", "1e-300"], "eta2"),
    (["asymptotics", "--lemma", "hom-half", "--eta1", "0"], "eta1"),
    (["asymptotics", "--lemma", "2", "--case", "3", "--eta1", "0"], "eta1"),
    (["asymptotics", "--eta2", "0"], "eta2"),
    (["asymptotics", "--eta1", "1"], "eta1"),
    (["asymptotics", "--nt", "1e300"], "nt"),
    (["surface", "--grid", "514"], "grid"),
    (["optimize", "--grid", "1"], "grid"),
    (["verify", "--seed", "-1"], "seed"),
    (["verify", "--tolerance", "nan"], "tolerance"),
]


@pytest.mark.parametrize("argv,flag", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_names_flag(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


class TestRates:
    def test_default_record(self, capsys):
        code, out, _ = run(["rates"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["channel"] == {"eta1": 0.5, "eta2": 0.9, "n_thermal": 1.0}
        assert set(doc["rates"]) == {
            "r_max_a", "branch_a", "r_max_b", "branch_b", "r_max_ab", "branch_ab",
        }

    def test_thermal_baseline(self, capsys):
        code, out, _ = run(
            ["rates", "--eta1", "0.2", "--eta2", "0.9", "--nt", "4", "--na", "4", "--nb", "8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rates"]["r_max_a"] == pytest.approx(0.9067288652014576, rel=1e-13)
        assert doc["rates"]["branch_a"] == 1
        assert doc["receivers"]["heterodyne"] is not None

    def test_zero_budget(self, capsys):
        code, out, _ = run(["rates", "--na", "0", "--nb", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rates"]["r_max_ab"] == 0.0

    def test_validation_names_field(self, capsys):
        code, _, err = run(["rates", "--na", "-1"], capsys)
        assert code == 2
        assert "na" in err

    def test_conflicting_conventions(self, capsys):
        code, _, err = run(["rates", "--ra", "0.5", "--pa", "0.5"], capsys)
        assert code == 2
        assert "pa" in err

    def test_squeezed_record_drops_heterodyne(self, capsys):
        code, out, _ = run(["rates", "--ra", "0.5", "--na", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["receivers"]["heterodyne"] is None
        assert doc["receivers"]["homodyne"] is not None

    def test_csv_format(self, capsys):
        code, out, _ = run(["rates", "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("channel.eta1,")
        assert len(header.split(",")) == len(row.split(","))

    def test_json_round_trip(self, capsys):
        code, out, _ = run(["rates", "--eta1", "0.123456789012345"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["channel"]["eta1"] == 0.123456789012345
        # 17 significant digits round-trip doubles exactly.
        assert cli.dumps_json(doc) == out


class TestSurface:
    def test_small_grid_shape(self, capsys):
        code, out, _ = run(["surface", "--grid", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p_A,p_B,sign_A,sign_B,r_max_a,r_max_b"
        assert len(lines) == 1 + 2 * 2 * 4

    def test_coherent_cell_matches_rates(self, capsys):
        args = ["--eta1", "0.2", "--eta2", "0.9", "--nt", "4", "--na", "4", "--nb", "8"]
        code, out, _ = run(["surface", "--grid", "2"] + args, capsys)
        first = out.strip().split("\n")[1].split(",")
        code2, out2, _ = run(["rates"] + args, capsys)
        assert code == code2 == 0
        doc = json.loads(out2)
        assert float(first[4]) == doc["rates"]["r_max_a"]

    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(["surface", "--grid", "3", "--out", str(p)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(["surface", "--grid", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["p_A", "p_B", "sign_A", "sign_B", "r_max_a", "r_max_b"]
        assert len(doc["rows"]) == 16


class TestRegion:
    FIG_ARGS = [
        "--eta1", "0.25", "--eta2", "0.9", "--nt", "1", "--na", "1", "--nb", "1000",
    ]

    def test_default_is_coherent_pentagon(self, capsys):
        code, out, _ = run(["region"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["encodings"]) == 1
        assert doc["encodings"][0]["label"] == "coherent"
        assert sorted(map(tuple, doc["hull"]["vertices"])) == sorted(
            map(tuple, doc["encodings"][0]["vertices"])
        )

    def test_legend_datasets(self, capsys):
        code, out, _ = run(
            ["region", "--encoding", "0,0", "--encoding", "0,3"] + self.FIG_ARGS, capsys
        )
        assert code == 0
        doc = json.loads(out)
        labels = [e["label"] for e in doc["encodings"]]
        assert labels == ["coherent", "squeezed(0,3)"]
        assert doc["heterodyne"] is not None
        assert doc["homodyne"] is not None
        assert doc["outer_bound"]["r_ub_a"] == pytest.approx(1.5165533143863354, rel=1e-13)
        max_ra = max(v[0] for v in doc["hull"]["vertices"])
        assert max_ra == pytest.approx(0.7198961234939317, rel=1e-13)

    def test_empty_encodings_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("encodings =\n")
        code, _, err = run(["region", "--config", str(cfg)], capsys)
        assert code == 2
        assert "encoding" in err

    def test_bad_encoding(self, capsys):
        code, _, err = run(["region", "--encoding", "1"], capsys)
        assert code == 2
        assert "encoding" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(["region", "--format", "csv"], capsys)
        assert code == 0
        assert out.startswith("dataset,vertex,r_a,r_b\n")


class TestAsymptotics:
    def test_low_power_cases_converge(self, capsys):
        code, out, _ = run(["asymptotics", "--lemma", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_converged"] is True
        names = [p["lemma"] for p in doc["probes"]]
        assert names == [
            "low-power-bob-first",
            "low-power-alice-first",
            "low-power-simultaneous-branch1",
            "low-power-simultaneous-branch2",
        ]

    def test_single_case_with_kappa(self, capsys):
        code, out, _ = run(
            ["asymptotics", "--lemma", "2", "--case", "3", "--kappa", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["probes"]) == 2
        assert all(p["verdict"] == "converged" for p in doc["probes"])

    def test_homodyne_half(self, capsys):
        code, out, _ = run(["asymptotics", "--lemma", "hom-half"], capsys)
        assert code == 0
        doc = json.loads(out)
        probe = doc["probes"][0]
        assert abs(probe["ratios"][-1] - 0.5) < 0.05

    def test_high_power_reports_honest_divergence(self, capsys):
        # The ratio is still 0.08 away from 1 at the deepest point, so the
        # probe must not claim convergence; the report is written anyway.
        code, out, _ = run(["asymptotics", "--lemma", "1"], capsys)
        assert code == 4
        doc = json.loads(out)
        assert doc["probes"][0]["verdict"] == "diverged"
        assert doc["probes"][0]["gap"] == pytest.approx(0.0811565391459669, abs=1e-9)

    def test_bad_lemma(self, capsys):
        code, _, err = run(["asymptotics", "--lemma", "7"], capsys)
        assert code == 2
        assert "lemma" in err

    def test_receiver_gap_requires_thermal(self, capsys):
        code, _, err = run(["asymptotics", "--lemma", "receiver-gap", "--nt", "0"], capsys)
        assert code == 2
        assert "nt" in err


class TestOptimize:
    def test_alice_objective(self, capsys):
        code, out, _ = run(
            ["optimize", "--eta1", "0.2", "--eta2", "0.9", "--nt", "4",
             "--na", "4", "--nb", "8", "--objective", "max-ra", "--grid", "9"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] > doc["coherent_baseline"]
        assert doc["advantage"] > 0

    def test_bad_objective(self, capsys):
        code, _, err = run(["optimize", "--objective", "maximize"], capsys)
        assert code == 2
        assert "objective" in err


class TestVerify:
    def test_passes_with_default_checks(self, capsys):
        code, out, _ = run(["verify", "--draws", "60", "--seed", "9"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "covariance-oracle", "mc-heterodyne", "piecewise-continuity", "containment",
        ]

    def test_deterministic_per_seed(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                ["verify", "--draws", "40", "--seed", "3", "--out", str(p)], capsys
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tampered_tolerance_fails(self, capsys):
        code, out, err = run(
            ["verify", "--draws", "30", "--tolerance", "0"], capsys
        )
        assert code == 4
        assert "failed checks" in err
        doc = json.loads(out)
        assert doc["all_passed"] is False


class TestConfigAndOutput:
    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta1 = 0.2\neta2 = 0.9\nnt = 4\nna = 4\nnb = 8\n")
        code, out, _ = run(["rates", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["channel"]["eta1"] == 0.2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta1 = 0.2\n")
        code, out, _ = run(["rates", "--config", str(cfg), "--eta1", "0.3"], capsys)
        assert code == 0
        assert json.loads(out)["channel"]["eta1"] == 0.3

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(["rates", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bogus" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(["rates", "--config", "/no/such/file.cfg"], capsys)
        assert code == 3
        assert "/no/such/file.cfg" in err

    def test_unwritable_out(self, capsys):
        code, _, err = run(["rates", "--out", "/no/such/dir/out.json"], capsys)
        assert code == 3
        assert "/no/such/dir/out.json" in err
