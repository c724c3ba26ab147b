import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bosonic_mac
from bosonic_mac import _kernels as kernels
from bosonic_mac import cli, region

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BAD_INPUTS = [
    (["rates", "--na", "inf"], "na"),
    (["rates", "--nt", "inf"], "nt"),
    (["rates", "--eta1", "nan"], "eta1"),
    (["rates", "--ra", "inf"], "ra"),
    (["rates", "--ra", "5"], "ra"),
    (["rates", "--ra", "1000"], "ra"),
    (["rates", "--ra", "355", "--na", "1e308"], "ra"),
    (["rates", "--rb", "-355", "--nb", "1e308"], "rb"),
    (["rates", "--pa", "1", "--na", "1.7e308"], "pa"),
    (["rates", "--pa", "nan"], "pa"),
    (["rates", "--pa", "0.5", "--na", "-1"], "na"),
    (["region", "--encoding", "nan,0"], "encoding"),
    (["region", "--encoding", "5,0"], "encoding"),
    (["region", "--na", "1e308", "--encoding=355,0"], "encoding"),
    # The homodyne rate's photon term 4 * (n_alpha + n_beta * (1 - eta1) / eta1)
    # overflows: Alice's photons alone, or with Bob's.
    (["rates", "--na", "1e308", "--nb", "1e308"], "na"),
    (["rates", "--ra", "354.8", "--na", "1e308"], "na"),
    (["region", "--na", "1e308", "--nb", "1e308"], "na"),
    (["rates", "--na", "3e307", "--nb", "3e307"], "nb"),
    (["asymptotics", "--lemma", "1", "--kappa", "5"], "kappa"),
    (["asymptotics", "--eta1", "0"], "eta1"),
    (["asymptotics", "--eta1", "1e-20"], "eta1"),
    (["asymptotics", "--eta2", "1e-300"], "eta2"),
    (["asymptotics", "--lemma", "hom-half", "--eta1", "0"], "eta1"),
    (["asymptotics", "--lemma", "2", "--case", "3", "--eta1", "0"], "eta1"),
    (["asymptotics", "--eta2", "0"], "eta2"),
    (["asymptotics", "--eta1", "1"], "eta1"),
    (["asymptotics", "--nt", "1e300"], "nt"),
    (["asymptotics", "--eta2", "1", "--nt", "1e308"], "nt"),
    (["rates", "--eta2", "1", "--nt", "1e308"], "nt"),
    (["surface", "--grid", "514"], "grid"),
    # Every squeeze sweep reaches p = 1, whose full squeeze overflows exp(2r).
    (["surface", "--na", "4.5e307"], "na"),
    (["surface", "--na", "1e308", "--grid", "2"], "na"),
    (["optimize", "--eta1", "0.0688", "--eta2", "0.528", "--nt", "332", "--na", "1e308",
      "--nb", "1e308", "--grid", "9"], "na"),
    (["optimize", "--grid", "1"], "grid"),
    (["verify", "--seed", "-1"], "seed"),
    (["verify", "--tolerance", "nan"], "tolerance"),
    (["verify", "--draws", "10001"], "draws"),
]


@pytest.mark.parametrize("argv,flag", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_names_flag(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


# Finite inputs where the factored branch-2 argument cancels: Alice
# squeezes 1e16 photons, or the lossless corner holds a pure state.
GOOD_EXTREME_INPUTS = [
    ["rates", "--pa", "1", "--na", "1e16"],
    ["surface", "--na", "1e16", "--grid", "2"],
    ["optimize", "--na", "1e16"],
    ["surface", "--eta1", "1", "--eta2", "1", "--na", "100"],
    ["optimize", "--eta1", "1", "--eta2", "1", "--na", "1000"],
    ["rates", "--eta1", "1", "--eta2", "1", "--na", "1000", "--pa", "0.5"],
]


@pytest.mark.parametrize("argv", GOOD_EXTREME_INPUTS, ids=" ".join)
def test_extreme_finite_input_exits_0(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out


# Flags a subcommand does not read, and a bad value in a config file.
UNREAD_FLAGS = [
    (["verify", "--eta1", "nan"], None, "eta1"),
    (["verify", "--samples", "-7"], None, "samples"),
    (["asymptotics", "--na", "-1"], None, "na"),
    (["rates", "--grid", "0"], None, "grid"),
    (["rates", "--seed", "x"], None, "seed"),
    (["surface", "--kappa", "5"], None, "kappa"),
    (["optimize", "--format", "csv"], None, "format"),
    (["surface", "--ra", "0.5"], None, "ra"),
    (["rates"], "format = xml\n", "format"),
    (["surface"], "format = xml\n", "format"),
]


@pytest.mark.parametrize(
    "argv,config,flag", UNREAD_FLAGS,
    ids=[" ".join(a) + (f" [{c.strip()}]" if c else "") for a, c, _ in UNREAD_FLAGS],
)
def test_unread_flag_or_bad_config_value_is_rejected(argv, config, flag, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert (f"error: {flag}: " if config else f"unrecognized arguments: --{flag}") in err


#: Every config key but the squeezing ones, which come in two conventions
#: that a budget cannot combine.
EVERY_KEY = {
    "eta1": "0.3", "eta2": "0.8", "nt": "0.5", "na": "2", "nb": "3",
    "kappa": "0.5", "tolerance": "5", "grid": "3", "seed": "7", "draws": "20",
    "format": "json", "encodings": "0,0;0,0.5", "lemma": "2", "case": "3",
    "objective": "max-sum",
}
SQUEEZING = [{"ra": "0.5", "rb": "0.25"}, {"pa": "0.5", "pb": "0.25"}]


def test_every_config_key_is_known():
    assert set(EVERY_KEY).union({"out"}, *SQUEEZING) == set(cli.OPTIONS)
    assert len(cli.OPTIONS) == 20


@pytest.mark.parametrize("squeezing", SQUEEZING, ids=["ra-rb", "pa-pb"])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_config_with_every_key_serves_every_command(command, squeezing, tmp_path, capsys):
    out_path = tmp_path / "out"
    values = {**EVERY_KEY, **squeezing, "out": str(out_path)}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text()


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_lists_the_flags_of_every_subcommand():
    rows = re.findall(r"^\| `([a-z]+)` \| (.+) \|$", README.read_text(), re.MULTILINE)
    documented = {name: set(re.findall(r"--[a-z0-9]+", flags)) | {"--out", "--config"}
                  for name, flags in rows}
    declared = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers(cli.build_parser()).items()
    }
    assert documented == declared
    assert sum(map(len, declared.values())) == 53


TINY_ETA = [
    ["rates", "--eta1", "1e-200", "--eta2", "1e-200"],
    ["region", "--eta1", "1e-200", "--eta2", "1e-200"],
    ["rates", "--eta1", "1e-310"],
]


@pytest.mark.parametrize("argv", TINY_ETA, ids=[" ".join(a) for a in TINY_ETA])
def test_tiny_eta_has_no_homodyne_rates(argv, capsys):
    # eta1 * eta2 below the smallest normal float leaves the homodyne
    # receiver undefined; every other rate is still printed.
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    receivers = doc["receivers"] if argv[0] == "rates" else doc
    assert receivers["homodyne"] is None
    assert receivers["heterodyne"] is not None


# A negative value after a space reads as it does after '=', for every
# flag, abbreviated or not.  argparse alone takes "-1e-3" or "-0.5,0" for
# an option and exits 2 with "expected one argument".
SPACED_NEGATIVES = [
    (["rates", "--ra", "-1e-3", "--na", "1"], ["rates", "--ra=-1e-3", "--na", "1"]),
    (["rates", "--rb", "-2e-1"], ["rates", "--rb=-2e-1"]),
    (["rates", "--ra", "-.25", "--rb", "-0.5"], ["rates", "--ra=-.25", "--rb=-0.5"]),
    (["rates", "--eta1", "-1e-3"], ["rates", "--eta1=-1e-3"]),
    (["region", "--enc", "-0.5,0"], ["region", "--enc=-0.5,0"]),
    (["region", "--encoding", "0,0", "--encoding", "-1e-1,0.5"],
     ["region", "--encoding=0,0", "--encoding=-1e-1,0.5"]),
    (["asymptotics", "--lemma", "2", "--case", "3", "--kappa", "-5e-1"],
     ["asymptotics", "--lemma", "2", "--case", "3", "--kappa=-5e-1"]),
]


@pytest.mark.parametrize("spaced,joined", SPACED_NEGATIVES,
                         ids=[" ".join(s) for s, _ in SPACED_NEGATIVES])
def test_negative_value_after_a_space(spaced, joined, capsys):
    assert run(spaced, capsys) == run(joined, capsys)


# Rows are written value by value: 17 significant digits for a float,
# the integer digits for an int, and bool and None by name.
SERIALIZER_ROWS = [
    [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    [2**70, -(2**70), 0, -1, 7],
    [0.1, 2, -3.5, 2**70, 1e-300, 0.3333333333333333, -0.0, 1],
    [],
    [1.0],
    ["label", 0.5, 3],
    [True, False, 1, 0.0],
    [None, 0.25, None],
    [[1.0, 2], [], [[-0.0, 5e-324], "x"]],
    (0.125, 0.5, 1, -1, 0.7, 1e16),
]

#: The recorded text of SERIALIZER_ROWS: a change here changes printed bytes.
SERIALIZER_CSV = (
    "c0,c1,c2,c3,c4,c5,c6,c7\n"
    "-0,0,4.9406564584124654e-324,1.7976931348623157e+308,-1.7976931348623157e+308\n"
    "1180591620717411303424,-1180591620717411303424,0,-1,7\n"
    "0.10000000000000001,2,-3.5,1180591620717411303424,1e-300,0.33333333333333331,-0,1\n"
    "\n"
    "1\n"
    "label,0.5,3\n"
    "true,false,1,0\n"
    "None,0.25,None\n"
    "0.125,0.5,1,-1,0.69999999999999996,10000000000000000\n"
)
SERIALIZER_JSON = (
    '{"rows": [[-0, 0, 4.9406564584124654e-324, 1.7976931348623157e+308, '
    '-1.7976931348623157e+308], [1180591620717411303424, -1180591620717411303424, 0, -1, 7], '
    '[0.10000000000000001, 2, -3.5, 1180591620717411303424, 1e-300, 0.33333333333333331, '
    '-0, 1], [], [1], ["label", 0.5, 3], [true, false, 1, 0], [null, 0.25, null], '
    '[[1, 2], [], [[-0, 4.9406564584124654e-324], "x"]], '
    '[0.125, 0.5, 1, -1, 0.69999999999999996, 10000000000000000]], '
    '"one": [0.10000000000000001, 2, -3.5, 1180591620717411303424, 1e-300, '
    '0.33333333333333331, -0, 1]}\n'
)


def test_serializer_rows_are_pinned():
    flat = [row for row in SERIALIZER_ROWS if not any(isinstance(v, list) for v in row)]
    header = [f"c{i}" for i in range(8)]
    csv = cli.dumps_csv(header, flat)
    json_text = cli.dumps_json({"rows": SERIALIZER_ROWS, "one": SERIALIZER_ROWS[2]})
    assert csv == SERIALIZER_CSV
    assert json_text == SERIALIZER_JSON
    assert csv.split("\n")[1] == (
        "-0,0,4.9406564584124654e-324,1.7976931348623157e+308,-1.7976931348623157e+308")
    assert csv.split("\n")[2] == "1180591620717411303424,-1180591620717411303424,0,-1,7"
    assert json.loads(json_text)["rows"][6] == [True, False, 1, 0.0]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_row_raises_the_per_value_error(bad):
    rows = [[1.0, 2, bad, math.inf]]
    errors = []
    for dump in (lambda: cli.dumps_csv(["a", "b", "c", "d"], rows),
                 lambda: cli.dumps_json({"rows": rows})):
        with pytest.raises(cli.CliError) as exc:
            dump()
        errors.append(str(exc.value))
    assert errors == [f"non-finite number in output: {bad}"] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_surface_cell_exits_3_with_nothing_written(bad, fmt, tmp_path,
                                                              monkeypatch, capsys):
    # The message names the first non-finite value in output order: here
    # r_max_b of cell 5 of layer (1, 1), ahead of another value in r_max_a
    # of cell 6 and of the first cell of layer (1, -1).
    other = math.nan if math.isinf(bad) else math.inf
    real = kernels.rate_columns

    def poisoned(*args):
        r_max_a, r_max_b, r_max_ab = real(*args)
        if not seen:
            r_max_b[5] = bad
            r_max_a[6] = other
        else:
            r_max_a[0] = other
        seen.append(args)
        return r_max_a, r_max_b, r_max_ab

    seen = []
    monkeypatch.setattr(kernels, "rate_columns", poisoned)
    out_path = tmp_path / "surface.out"
    for extra in ([], ["--out", str(out_path)]):
        seen.clear()
        code, out, err = run(["surface", "--grid", "3", "--format", fmt, *extra], capsys)
        assert len(seen) == 2
        assert (code, out, err) == (3, "", f"error: non-finite number in output: {bad}\n")
    assert not out_path.exists() or out_path.read_bytes() == b""


#: sha256 of `surface --grid 9` for one channel, recorded before the
#: surface rows went through the kernel grid walk and the row templates.
SURFACE_9 = ["surface", "--grid", "9", "--eta1", "0.3", "--eta2", "0.85", "--nt", "0.5",
             "--na", "2.5", "--nb", "7"]
SURFACE_9_SHA256 = {
    "csv": "c322f47199d223321e7189441da55e41441f7c831810a8ab5949fab1d1cfdd09",
    "json": "30cd726e8571660dca3b1cdde628a2074898df23d40116df67788c7b53ff8598",
}


@pytest.mark.parametrize("fmt", sorted(SURFACE_9_SHA256))
def test_surface_bytes_are_pinned(fmt, capsys):
    code, out, _ = run(SURFACE_9 + ["--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SURFACE_9_SHA256[fmt]


def _surface_text_value_by_value(opts: dict) -> str:
    """The surface text as the serializer wrote it before the rows were
    streamed in blocks: one row template per long-format row."""
    params, budget = cli.channel_from(opts), cli.budget_from(opts)
    rows = region.squeeze_surface(params, budget, grid_n=opts["grid"]).rows()
    if opts["format"] != "json":
        return "".join(["p_A,p_B,sign_A,sign_B,r_max_a,r_max_b\n",
                        *("%.17g,%.17g,%d,%d,%.17g,%.17g\n" % row for row in rows)])
    head = ('{"channel": {"eta1": %.17g, "eta2": %.17g, "n_thermal": %.17g}, '
            '"budget": {"n_a": %.17g, "n_b": %.17g}, "grid": %d, '
            '"columns": ["p_A", "p_B", "sign_A", "sign_B", "r_max_a", "r_max_b"], "rows": [') % (
        params.eta1, params.eta2, params.n_thermal, budget.n_a, budget.n_b, opts["grid"])
    return head + ", ".join("[%.17g, %.17g, %d, %d, %.17g, %.17g]" % row for row in rows) + "]}\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("grid", [2, 3, 9, 129])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_surface_streams_its_row_blocks(grid, fmt, tmp_path, capsys):
    # A surface reaches main as its prefix, one block per grid row of each
    # layer, then its suffix; joined, the chunks are the one-string text.
    argv = [*SURFACE_9[:1], *SURFACE_9[3:], "--grid", str(grid), "--format", fmt]
    opts = cli.options_for(cli.build_parser().parse_args(argv))
    chunks, failure = cli.cmd_surface(opts)
    chunks = list(chunks)
    assert failure is None
    assert len(chunks) == 2 + 4 * grid and all(isinstance(c, str) for c in chunks)
    want = _sha256(_surface_text_value_by_value(opts))
    if grid == 9:
        assert want == SURFACE_9_SHA256[fmt]
    assert _sha256("".join(chunks)) == want
    out_path = tmp_path / "surface.out"
    code, out, _ = run([*argv, "--out", str(out_path)], capsys)
    assert (code, out) == (0, "")
    assert run(argv, capsys)[:2] == (0, out_path.read_text(encoding="utf-8"))
    assert _sha256(out_path.read_text(encoding="utf-8")) == want


@pytest.mark.parametrize("argv,chunks", [
    (SURFACE_9 + ["--format", "csv"], 38),
    (SURFACE_9 + ["--format", "json"], 38),
    (["rates", "--format", "csv"], 1),
    (["region", "--encoding", "0,0", "--encoding", "0.3,-0.2"], 1),
], ids=["surface-csv", "surface-json", "rates-csv", "region-json"])
def test_output_stage_logs_one_line_at_info(argv, chunks, tmp_path, monkeypatch, capsys):
    # Logging goes to stderr only: the data bytes are the same at every level.
    out_path = tmp_path / "out"
    texts = set()
    for level in ("error", "info"):
        monkeypatch.setenv("BOSONIC_MAC_LOG", level)
        code, out, err = run(argv, capsys)
        texts.add(out)
        size = len(out.encode("utf-8"))
        wrote = [line for line in err.splitlines() if " wrote " in line]
        assert wrote == ([f"INFO wrote {size} bytes in {chunks} chunks to stdout"]
                         if level == "info" else [])
        code, out, err = run([*argv, "--out", str(out_path)], capsys)
        assert (code, out) == (0, "")
        texts.add(out_path.read_text(encoding="utf-8"))
        wrote = [line for line in err.splitlines() if " wrote " in line]
        assert wrote == ([f"INFO wrote {size} bytes in {chunks} chunks to {out_path}"]
                         if level == "info" else [])
    assert len(texts) == 1


def test_unknown_log_level_is_named_on_stderr(monkeypatch, capsys):
    # A mistyped level logs at warn, as the default does, and says so once;
    # stdout is unchanged, and an empty value is the default.
    monkeypatch.delenv("BOSONIC_MAC_LOG", raising=False)
    want = run(["rates"], capsys)
    assert want[0] == 0 and want[2] == ""
    for value in ("", "warn"):
        monkeypatch.setenv("BOSONIC_MAC_LOG", value)
        assert run(["rates"], capsys) == want
    for value in ("INFO", "verbose", "0"):
        monkeypatch.setenv("BOSONIC_MAC_LOG", value)
        code, out, err = run(["rates"], capsys)
        assert (code, out) == want[:2]
        assert err.splitlines() == [
            f"WARNING unknown BOSONIC_MAC_LOG level '{value}', logging at warn; "
            "the levels are error, warn, info, debug"]


CHANNEL = ["--eta1", "0.3", "--eta2", "0.85", "--nt", "0.5"]
BUDGET = ["--na", "2.5", "--nb", "7"]
ENCODINGS = ["--encoding", "0,0", "--encoding", "0.3,-0.2"]

#: (argv, sha256 of stdout, exit code, last stderr line) of one command per
#: subcommand, format and exit path.
COMMAND_PINS = [
    (["rates", *CHANNEL, *BUDGET, "--ra", "0.2", "--rb", "-0.3"],
     "1c638ba2f1a3ad34e08a3fdd481c8e2f1b2d0a8d299893f8b3701c5a86f83b8e", 0, ""),
    (["rates", *CHANNEL, *BUDGET, "--pa", "0.3", "--pb", "0.6", "--format", "csv"],
     "8dd43c58d0e52a6719ddb4f75a1475d377ef4a32f07b12dfdcd2dc7c9c759595", 0, ""),
    (["region", *CHANNEL, *BUDGET, *ENCODINGS],
     "5a797d1ce0ba3962bf01e4517a7e614bd75e49660f8cb14bfd5ed46e2559705e", 0, ""),
    (["region", *CHANNEL, *BUDGET, *ENCODINGS, "--format", "csv"],
     "3958cb4629d6ae8728caf6f3234ca88e4ea9df35b19c29896b9969fbfed9cd77", 0, ""),
    (["asymptotics", *CHANNEL, "--lemma", "2"],
     "b0ccca5664b2315fa3ee65554db0c59aff55e9ea4eead578aa319c0c34acbc8a", 0, ""),
    (["asymptotics", *CHANNEL],
     "5ae5b06b9bd658bcabbf9593229bfd868191ccdfe2e91acec2445b9c92430f0d", 4,
     "ERROR diverged probes: high-power-heterodyne, receiver-gap-heterodyne, "
     "receiver-gap-homodyne"),
    (["optimize", *CHANNEL, *BUDGET, "--grid", "9", "--objective", "max-ra"],
     "607f51f6e40f334b1096fe7b41f791cc388fab5f9163e282d80cd641197e8542", 0, ""),
    (["optimize", *CHANNEL, *BUDGET, "--grid", "9", "--objective", "max-rb"],
     "16f87ac88c27c6f864adf2d93d804b4610f1d704f55115bd74119c272db3f3c7", 0, ""),
    (["optimize", *CHANNEL, *BUDGET, "--grid", "9", "--objective", "max-sum"],
     "5abc696a23d8b275d9f97d32e9286eca59cb6f24d897263b96030bdc980cafdb", 0, ""),
    (["verify", "--draws", "10", "--seed", "7"],
     "d0c6f550ae26b857be17aa5091b4ee53623faa9c1f20cf16c946c5086989387f", 0, ""),
    (["verify", "--draws", "10", "--seed", "7", "--tolerance", "0"],
     "61ed85b6034cf2decfb06e561648d0ca946894a1f86c7cec9984af3de2b3de9e", 4,
     "ERROR failed checks: covariance-oracle, mc-heterodyne, piecewise-continuity"),
    # Outside the benchmark's workload domain: vanishing transmissivities,
    # a signal far below the thermal floor, a budget near the float range's
    # 2**53 precision, the lossless noiseless corner and a near-silent Bob.
    # These rows pin bytes, not correctness: some printed values are known
    # wrong (ROADMAP item 4), and a change that fixes them re-records them.
    (["rates", "--eta1", "2e-154", "--eta2", "2e-154"],
     "8765df471d7c9dd465f9ca6b09d71179af6e0409af7b7565ccb8d59a0631246b", 0, ""),
    (["rates", "--eta1", "0.146", "--eta2", "0.139", "--nt", "5.71e4", "--na", "4.94e-9",
      "--nb", "5.47e10", "--ra", "-8.54e-6", "--rb", "-13"],
     "9699995212a3b15adf34cbe5ad0733359b6f14261fa4d7f2c2616d911250c135", 0, ""),
    (["rates", "--na", "1e16", "--pa", "0.99"],
     "1d58e9d1a4e80ffa8a10006cf961e98be1ec53ef8c219b6973f0ba5628759338", 0, ""),
    (["surface", "--grid", "5", "--eta1", "1", "--eta2", "1", "--nt", "0", "--na", "1e15",
      "--nb", "1e-12"],
     "8f533a77e4cc93a6d506fe7b09fbbc0f818d9d01f89a15c2512b455de25a7d24", 0, ""),
    (["optimize", "--grid", "5", "--na", "1e15", "--nb", "1e-9", "--objective", "max-sum"],
     "32f8ac81d368a6245eb5c2ecaefce109c851be36145f56eef4752879c776ca9a", 0, ""),
]


@pytest.mark.parametrize("argv,sha256,code,last_err", COMMAND_PINS,
                         ids=[" ".join(argv) for argv, *_ in COMMAND_PINS])
def test_command_bytes_are_pinned(argv, sha256, code, last_err, capsys):
    got_code, out, err = run(argv, capsys)
    assert (got_code, err.splitlines()[-1] if err else "") == (code, last_err)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


#: The pinned commands that sweep.  In this process numpy is loaded, so
#: their sweeps run the kernel's numpy body; a CLI process never loads it
#: and runs the cell loop, which must print the same bytes.
SWEEP_PINS = [pin for pin in COMMAND_PINS if pin[0][0] in ("surface", "optimize")] + [
    (SURFACE_9 + ["--format", fmt], sha256, 0, "") for fmt, sha256 in sorted(SURFACE_9_SHA256.items())]


@pytest.mark.parametrize("argv,sha256,code,last_err", SWEEP_PINS,
                         ids=[" ".join(argv) for argv, *_ in SWEEP_PINS])
def test_sweep_bytes_are_pinned_without_numpy(argv, sha256, code, last_err, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)
    test_command_bytes_are_pinned(argv, sha256, code, last_err, capsys)


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

    def test_csv_header_is_fixed(self, capsys):
        # A receiver without rates keeps its columns, empty.
        headers = set()
        for args in ([], ["--ra", "0.5", "--na", "2"], ["--eta1", "0"], ["--eta1", "1e-310"]):
            code, out, _ = run(["rates", "--format", "csv", *args], capsys)
            assert code == 0
            header, row = out.strip("\n").split("\n")
            assert len(row.split(",")) == len(header.split(","))
            headers.add(header)
        (header,) = headers
        columns = header.split(",")
        assert len(columns) == 24
        assert columns[-6:] == [
            f"receivers.{rx}.{field}" for rx in ("heterodyne", "homodyne")
            for field in ("alice", "bob", "sum")
        ]

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

    @pytest.mark.parametrize("value", ["-0.5,0", "-.5,0.25"])
    def test_negative_encoding_after_a_space(self, value, capsys):
        joined = run(["region", f"--encoding={value}"], capsys)
        spaced = run(["region", "--encoding", value], capsys)
        assert joined[0] == spaced[0] == 0
        assert spaced[1] == joined[1]


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


class TestVersion:
    def test_prints_the_package_version(self, capsys):
        assert run(["--version"], capsys) == (0, "bosonic-mac 0.1.0\n", "")
        pyproject = (README.parent / "pyproject.toml").read_text()
        assert re.search(r'^version = "(.+)"$', pyproject, re.MULTILINE)[1] == bosonic_mac.__version__

    def test_goes_through_the_output_stage(self, monkeypatch, capsys):
        written = []
        monkeypatch.setattr(cli, "write_output", lambda text, out: written.append((text, out)))
        assert run(["--version"], capsys)[0] == 0
        assert written == [(f"bosonic-mac {bosonic_mac.__version__}\n", None)]

    def test_a_command_is_still_required_without_it(self, capsys):
        code, out, err = run([], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: command\n")


# Exit-4 reasons as a user sees them: a fresh interpreter, with the log
# level set in the environment.
EXIT_4 = [
    (level, ["asymptotics", "--lemma", "1"], "high-power-heterodyne")
    for level in ("error", "warn", "info", "debug")
] + [("error", ["verify", "--draws", "30", "--tolerance", "0"], "covariance-oracle")]


@pytest.mark.parametrize("level,argv,reason", EXIT_4,
                         ids=[f"{lvl}-{a[0]}" for lvl, a, _ in EXIT_4])
def test_exit_4_reason_on_stderr_at_every_log_level(level, argv, reason):
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "BOSONIC_MAC_LOG": level,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "bosonic_mac.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4
    assert reason in proc.stderr
