"""Command-line front end.

Subcommands: rates, surface, region, asymptotics, optimize, verify;
``--version`` alone prints the package version.
``COMMANDS`` lists the flags each subcommand reads; all of them also take
--out and --config, and any other flag is rejected.  A value comes from
its flag, else from the config file, else from the built-in default in
``OPTIONS``, and flag and config values go through the same conversion
and choice check.  A config file may hold any key of ``OPTIONS``; a
subcommand ignores the keys it does not read, so one file serves all.
Data goes to stdout or --out; diagnostics go to stderr, with verbosity
controlled by the BOSONIC_MAC_LOG environment variable (error, warn,
info, debug; any other value logs at warn and says so).  A subcommand
returns its text, a str or, for a surface, chunks whose numbers are
already checked, and the reason for a verification failure, or None;
``main`` alone writes the text, chunk by chunk, and decides every exit
code: 0 success, 2 bad input (the message names the flag), 3 I/O
failure, 4 verification failure (its reason is logged as an error, so it
shows at every level).  Any other exception is a bug and surfaces as a
traceback.  Identical configuration and seed give byte-identical output.

Numbers print as "%.17g".  A surface's rate pairs have two serializer
bodies with the same bytes, picked by ``_core_py.loaded_numpy`` as the
sweep kernel's are: the "%.17g" template wherever numpy is not loaded
(every CLI process), and a numpy body once other code has loaded it (a
library session, the benchmark's surface worker).  The numpy body finds
the 17 digits of each value from 1e-4 to 1e16 in exact arithmetic
(np.log10 only guesses the exponent; a range check on the digits decides
it) and leaves every other value to "%.17g"; see ``_numpy_text``.  It
costs a fixed 0.2 ms or so per surface, so it is slower below about
17 x 17 cells and faster above: at grid 129 a surface's text takes about
16.5 ms against 33 ms, formatting, joining and writing together.
"""

import argparse
import contextlib
import itertools
import logging
import math
import os
import sys
from dataclasses import asdict
from typing import NamedTuple

from . import __version__, asymptotics, region
from ._core_py import loaded_numpy
from .gaussian_core import (
    ChannelParams,
    InputError,
    PhotonBudget,
    SqueezeFractions,
)
from .rates import (
    Receiver,
    User,
    outer_bound,
    rate_bundle,
    receiver_rates,
    sum_rate_capacity_coherent,
)

log = logging.getLogger("bosonic_mac")


class CliError(Exception):
    """An I/O failure (exit code 3)."""


# ---------------------------------------------------------------------------
# Deterministic serialization: 17 significant digits, stable key order.

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CliError(f"non-finite number in output: {x}")
    return format(float(x), ".17g")


def _surface_blocks(surface, sep: str, row_sep: str, start: str, end: str):
    """The long-format rows of ``surface`` as text, one block per grid row
    of each layer in output order.  Each row is ``start``, its six values
    joined by ``sep``, then ``end``; rows are joined by ``row_sep``.

    The text equals the rows written value by value, but each p value is
    formatted once, and the rate pairs of a mirrored layer's shared columns
    (see region.SIGN_LAYERS) once for both layers.  Every rate pair is
    checked and formatted here, raising CliError for the first inf or nan
    in output order; the returned iterator only joins blocks, so a caller
    can write each block as it comes without holding the whole text.
    """
    pairs = {}  # id of an r_max_a column -> its rows' formatted rate pairs
    for _, _, ra, rb in surface.layers:
        if id(ra) not in pairs:
            pairs[id(ra)] = _pair_texts(ra, rb, sep, end)
    return _join_blocks(surface, pairs, sep, row_sep, start)


def _pair_texts(ra, rb, sep: str, end: str):
    """``f"%.17g{sep}%.17g{end}" % (a, b)`` for each pair of the rate
    columns ``ra`` and ``rb``, raising CliError for the first inf or nan in
    output order.  While numpy is not loaded, as in every CLI process, the
    template formats each pair into a list; once other code has loaded it,
    ``_numpy_text.pair_texts`` forms the same texts on arrays and returns a
    ``PairTexts``, whose slices are lists (the rule is ``loaded_numpy``, as
    for the sweep kernel)."""
    np = loaded_numpy()
    if np is not None:
        from . import _numpy_text  # compiled only where numpy is loaded

        texts = _numpy_text.pair_texts(np, ra, rb, sep, end)
        if texts is None:
            _raise_non_finite(ra, rb)
        return texts
    if not (all(map(math.isfinite, ra)) and all(map(math.isfinite, rb))):
        _raise_non_finite(ra, rb)
    template = f"%.17g{sep}%.17g{end}"
    return [template % pair for pair in zip(ra, rb)]


def _raise_non_finite(ra, rb) -> None:
    """Raise CliError for the first inf or nan of ``ra`` and ``rb`` in
    output order, pair by pair."""
    for a, b in zip(ra, rb):
        _fmt_float(a)
        _fmt_float(b)


def _join_blocks(surface, pairs: dict, sep: str, row_sep: str, start: str):
    """Yield the row blocks of ``_surface_blocks`` from the formatted pairs."""
    g = surface.grid_n
    p_text = ["%.17g" % p for p in surface.p_values]
    items = [None] * (3 * g)  # per row: separator and p_a, p_b and signs, rate pair
    first = True
    for sign_a, sign_b, ra, _ in surface.layers:
        texts = pairs[id(ra)]
        items[1::3] = [f"{sep}{p}{sep}{sign_a:d}{sep}{sign_b:d}{sep}" for p in p_text]
        for i, p in enumerate(p_text):
            items[0::3] = [row_sep + start + p] * g
            items[2::3] = texts[i * g:(i + 1) * g]
            block = "".join(items)
            if first:
                block = block[len(row_sep):]
                first = False
            yield block


def _json_write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _json_write(str(k), out)
            out.append(": ")
            _json_write(v, out)
        out.append("}")
    elif isinstance(obj, region.SqueezeSurface):
        out.append("[")
        out.append(_surface_blocks(obj, ", ", ", ", "[", "]"))
        out.append("]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _json_write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _chunks(parts: list):
    """``parts`` as one str or, when one part is the block iterator of a
    surface (``_surface_blocks``), as chunks: the text before it, its
    blocks, then the text after it."""
    k = next((i for i, part in enumerate(parts) if not isinstance(part, str)), None)
    if k is None:
        return "".join(parts)
    return itertools.chain(("".join(parts[:k]),), parts[k], ("".join(parts[k + 1:]),))


def dumps_json(obj):
    """JSON text of ``obj``: a str, or chunks (see ``_chunks``) when it
    holds a SqueezeSurface."""
    out: list = []
    _json_write(obj, out)
    out.append("\n")
    return _chunks(out)


def dumps_csv(header, rows):
    """CSV text of a header and rows: a str, or, when ``rows`` is a
    SqueezeSurface, chunks (see ``_chunks``) of its long-format rows,
    written from its columns."""
    if isinstance(rows, region.SqueezeSurface):
        return _chunks([",".join(header), "\n", _surface_blocks(rows, ",", "\n", "", ""), "\n"])

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            return _fmt_float(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_output(text: str, sink) -> None:
    """Write one chunk of a command's text to ``sink``, an open file, or to
    stdout when it is None."""
    (sys.stdout if sink is None else sink).write(text)


def _emit(text, out_path: str | None) -> None:
    """Write a command's text, a str or an iterable of str chunks, to
    ``out_path`` or, when it is None, to stdout, one ``write_output`` call
    per chunk.  The file is opened only here, after the command has
    checked every number, so an exit-3 number leaves it unwritten."""
    chunks = (text,) if isinstance(text, str) else text
    size = count = 0
    try:
        with (contextlib.nullcontext() if out_path is None
              else open(out_path, "w", encoding="utf-8", newline="")) as sink:
            for chunk in chunks:
                write_output(chunk, sink)
                size += len(chunk) if chunk.isascii() else len(chunk.encode("utf-8"))
                count += 1
    except OSError as exc:
        raise CliError(f"{out_path or 'stdout'}: {exc}") from exc
    log.info("wrote %d bytes in %d chunks to %s", size, count, out_path or "stdout")


# ---------------------------------------------------------------------------
# Options: built-in default < config file < flag.

class Option(NamedTuple):
    """One configuration key.  ``parse`` turns a flag or config string into
    its value (None hands the raw value to the command); ``choices`` lists
    the allowed values; a ``default`` of None leaves the key unset."""

    parse: object = float
    default: object = None
    choices: tuple = ()
    help: str | None = None


OPTIONS = {
    "eta1": Option(default=0.5),
    "eta2": Option(default=0.9),
    "nt": Option(default=1.0),
    "na": Option(default=1.0),
    "nb": Option(default=1.0),
    "ra": Option(),
    "rb": Option(),
    "pa": Option(),
    "pb": Option(),
    "kappa": Option(),
    "tolerance": Option(),
    "grid": Option(int, 33),
    "seed": Option(int, 20240901),
    "draws": Option(int, 1000),
    # Unset: each command writes its own format (CSV for surface, else JSON).
    "format": Option(str, choices=("csv", "json")),
    "out": Option(str),
    # --encoding RA,RB (repeated) on the command line, RA,RB;RA,RB in a file.
    "encodings": Option(None, help="squeezing pair; repeat for several encodings (default 0,0)"),
    "lemma": Option(str, "all", ("1", "2", "hom-half", "receiver-gap", "all")),
    "case": Option(str, choices=("1", "2", "3"), help="restrict lemma 2 to one case"),
    "objective": Option(str, "max-ra", tuple(o.value for o in region.Objective)),
}

_KIND = {float: "a number", int: "an integer"}


def _convert(key: str, raw):
    option = OPTIONS[key]
    if option.parse is None:
        return raw
    try:
        value = option.parse(raw)
    except ValueError:
        raise InputError(key, f"not {_KIND[option.parse]}: {raw!r}") from None
    if option.choices and value not in option.choices:
        raise InputError(key, f"must be one of {', '.join(option.choices)}, got {raw!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"{path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError("config", f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in OPTIONS:
            raise InputError("config", f"{path}:{lineno}: unknown key '{key}'")
        values[key] = value.strip()
    return values


def options_for(args: argparse.Namespace) -> dict:
    """Value of each key the subcommand reads: its flag, else the config
    file, else the built-in default."""
    config = load_config(args.config) if args.config else {}
    opts = {}
    for key in (*COMMANDS[args.command][2], "out"):
        raw = getattr(args, key)
        if raw is None:
            raw = config.get(key)
        opts[key] = OPTIONS[key].default if raw is None else _convert(key, raw)
    return opts


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise InputError(field, message)


def channel_from(opts: dict) -> ChannelParams:
    return ChannelParams(opts["eta1"], opts["eta2"], opts["nt"])


def budget_from(opts: dict) -> PhotonBudget:
    """Photon totals plus squeezing as ra/rb or as fractions pa/pb; the
    squeezing keys are absent for commands that read photon totals only."""
    given = {key: opts[key] for key in ("ra", "rb", "pa", "pb") if opts.get(key) is not None}
    if not given.keys() & {"pa", "pb"}:
        return PhotonBudget(opts["na"], opts["nb"], given.get("ra", 0.0), given.get("rb", 0.0))
    if given.keys() & {"ra", "rb"}:
        raise InputError("pa", "cannot be combined with ra/rb; give one convention")
    fractions = SqueezeFractions(given.get("pa", 0.0), given.get("pb", 0.0))
    return fractions.budget_for(opts["na"], opts["nb"])


def grid_from(opts: dict) -> int:
    grid = opts["grid"]
    _require(2 <= grid <= MAX_GRID, "grid", f"must be in [2, {MAX_GRID}], got {grid}")
    return grid


def _budget_dict(budget: PhotonBudget) -> dict:
    return {
        "n_a": budget.n_a, "n_b": budget.n_b,
        "r_a": budget.r_a, "r_b": budget.r_b,
        "n_alpha": budget.n_alpha, "n_beta": budget.n_beta,
    }


def _pentagon_dict(pent: region.Pentagon) -> dict:
    return {
        "r_a_max": pent.r_a_max,
        "r_b_max": pent.r_b_max,
        "sum_max": pent.sum_max,
        "vertices": [[v.r_a, v.r_b] for v in pent.vertices],
    }


# ---------------------------------------------------------------------------
# Subcommands.

RECEIVER_FIELDS = ("alice", "bob", "sum")


def cmd_rates(opts: dict) -> tuple:
    params = channel_from(opts)
    budget = budget_from(opts)
    bundle = rate_bundle(params, budget)
    receivers = {}
    for receiver in (Receiver.HETERODYNE, Receiver.HOMODYNE):
        rates = receiver_rates(params, budget, receiver)
        receivers[receiver.value] = None if rates is None else dict(zip(RECEIVER_FIELDS, rates))
    record = {
        "channel": asdict(params),
        "budget": _budget_dict(budget),
        "rates": {
            "r_max_a": bundle.r_max_a, "branch_a": int(bundle.branch_a),
            "r_max_b": bundle.r_max_b, "branch_b": int(bundle.branch_b),
            "r_max_ab": bundle.r_max_ab, "branch_ab": int(bundle.branch_ab),
        },
        "outer_bounds": {
            "alice": outer_bound(params, budget, User.ALICE),
            "bob": outer_bound(params, budget, User.BOB),
        },
        "coherent_sum_capacity": sum_rate_capacity_coherent(params, budget),
        "receivers": receivers,
    }
    if opts["format"] != "csv":
        return dumps_json(record), None
    # An undefined receiver keeps its columns, empty, so every input gives
    # the same header.
    record["receivers"] = {
        name: block or dict.fromkeys(RECEIVER_FIELDS, "") for name, block in receivers.items()
    }
    flat = _flatten(record)
    return dumps_csv(list(flat.keys()), [list(flat.values())]), None


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


SURFACE_COLUMNS = ("p_A", "p_B", "sign_A", "sign_B", "r_max_a", "r_max_b")

#: Largest --grid.  A surface computes 2 * grid**2 cells and writes
#: 4 * grid**2 rows, one grid row of one layer per write; at 513 the
#: command peaks at about 115 MB with CSV output (70 MB of text) and with
#: JSON (79 MB), mostly the rate columns and their formatted pairs
#: (Python 3.11, 64-bit Linux).  In a process with numpy loaded, the
#: serializer's numpy body holds the pairs as character codes, about 20 MB
#: less at 513 (101 against 122 MB there, numpy's own share included).
MAX_GRID = 513

#: Largest --draws.  The Monte-Carlo check holds 100 * draws samples at
#: once; 10,000 draws take about 1.7 s and 90 MB.
MAX_DRAWS = 10_000


def cmd_surface(opts: dict) -> tuple:
    params = channel_from(opts)
    budget = budget_from(opts)
    grid = grid_from(opts)
    surface = region.squeeze_surface(params, budget, grid_n=grid)
    log.info("surface grid %dx%d over %d sign layers", grid, grid, len(region.SIGN_LAYERS))
    if opts["format"] != "json":
        return dumps_csv(SURFACE_COLUMNS, surface), None
    return dumps_json({
        "channel": asdict(params),
        "budget": {"n_a": budget.n_a, "n_b": budget.n_b},
        "grid": grid,
        "columns": list(SURFACE_COLUMNS),
        "rows": surface,
    }), None


def _parse_encodings(raw):
    """(r_a, r_b) pairs from the repeated --encoding flag (a list) or the
    config value (a string of pairs separated by ';')."""
    if raw is None:
        return [(0.0, 0.0)]
    pairs = []
    for item in raw.split(";") if isinstance(raw, str) else raw:
        item = item.strip()
        if not item:
            continue
        parts = item.split(",")
        if len(parts) != 2:
            raise InputError("encoding", f"expected 'RA,RB', got {item!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise InputError("encoding", f"not numeric: {item!r}") from None
    if not pairs:
        raise InputError("encoding", "list must not be empty")
    return pairs


def cmd_region(opts: dict) -> tuple:
    params = channel_from(opts)
    budget = budget_from(opts)
    encodings = _parse_encodings(opts["encodings"])
    try:
        data = region.build_region(params, budget, encodings)
    except InputError as exc:
        # The encodings' squeezings are new to build_region; the totals
        # passed budget_from and keep their own flags.
        if exc.field not in ("r_a", "r_b"):
            raise
        raise InputError("encoding", str(exc)) from None
    doc = {
        "channel": asdict(params),
        "budget": {"n_a": budget.n_a, "n_b": budget.n_b},
        "hull": {
            "vertices": [[v.r_a, v.r_b] for v in data.region.hull],
            "provenance": [[ra, rb] for ra, rb in data.region.provenance],
        },
        "encodings": [
            {
                "r_a": ra, "r_b": rb,
                "label": "coherent" if ra == 0.0 and rb == 0.0 else f"squeezed({ra:g},{rb:g})",
                **_pentagon_dict(pent),
            }
            for (ra, rb), pent in data.pentagons
        ],
        "heterodyne": _pentagon_dict(data.heterodyne) if data.heterodyne else None,
        "homodyne": _pentagon_dict(data.homodyne) if data.homodyne else None,
        "outer_bound": {
            "r_ub_a": data.outer_bound[0],
            "r_ub_b": data.outer_bound[1],
            "vertices": [
                [0.0, 0.0], [data.outer_bound[0], 0.0],
                [data.outer_bound[0], data.outer_bound[1]], [0.0, data.outer_bound[1]],
            ],
        },
    }
    if opts["format"] != "csv":
        return dumps_json(doc), None
    rows = []
    for name, vertices in _region_curves(doc):
        rows.extend((name, i, v[0], v[1]) for i, v in enumerate(vertices))
    return dumps_csv(("dataset", "vertex", "r_a", "r_b"), rows), None


def _region_curves(doc: dict):
    yield "hull", doc["hull"]["vertices"]
    for enc in doc["encodings"]:
        yield enc["label"], enc["vertices"]
    for name in ("heterodyne", "homodyne", "outer_bound"):
        if doc[name] is not None:
            yield name, doc[name]["vertices"]


def cmd_asymptotics(opts: dict) -> tuple:
    params = channel_from(opts)
    which = opts["lemma"]
    given = {"kappa": opts["kappa"], "p_a": opts["pa"]}
    config = asymptotics.CaseThreeConfig(**{k: v for k, v in given.items() if v is not None})

    probes = []
    if which in ("1", "all"):
        probes.append(asymptotics.high_power_heterodyne_probe(params))
    if which in ("hom-half", "all"):
        probes.append(asymptotics.homodyne_half_probe(params))
    if which in ("2", "all"):
        selected = ("1", "2", "3") if opts["case"] is None else (opts["case"],)
        if "1" in selected:
            probes.append(asymptotics.low_power_bob_first_probe(params))
        if "2" in selected:
            probes.append(asymptotics.low_power_alice_first_probe(params))
        if "3" in selected:
            probes.extend(asymptotics.low_power_simultaneous_probes(config, params))
    # The receiver-gap probes reject pure loss; "all" skips them there.
    if which == "receiver-gap" or (which == "all" and params.n_thermal > 0.0):
        probes.extend(asymptotics.receiver_gap_probes(params))

    diverged = [p.name for p in probes if not p.converged]
    report = {
        "channel": asdict(params),
        "probes": [p.to_dict() for p in probes],
        "all_converged": not diverged,
    }
    return dumps_json(report), (f"diverged probes: {', '.join(diverged)}" if diverged else None)


def cmd_optimize(opts: dict) -> tuple:
    params = channel_from(opts)
    budget = budget_from(opts)
    objective = region.Objective(opts["objective"])
    grid = grid_from(opts)
    result = region.optimize_squeezing(params, budget, objective, grid_n=grid)
    report = {
        "channel": asdict(params),
        "budget": {"n_a": budget.n_a, "n_b": budget.n_b},
        "objective": objective.value,
        "p_a": result.p_a,
        "p_b": result.p_b,
        "sign_a": result.sign_a,
        "sign_b": result.sign_b,
        "value": result.value,
        "coherent_baseline": result.baseline,
        "advantage": result.value - result.baseline,
    }
    return dumps_json(report), None


def cmd_verify(opts: dict) -> tuple:
    seed, draws, tolerance = opts["seed"], opts["draws"], opts["tolerance"]
    _require(seed >= 0, "seed", f"must be >= 0, got {seed}")
    _require(1 <= draws <= MAX_DRAWS, "draws", f"must be in [1, {MAX_DRAWS}], got {draws}")
    _require(tolerance is None or math.isfinite(tolerance), "tolerance",
             f"must be finite, got {tolerance}")
    from . import verification  # numpy; the other subcommands start without it

    results = verification.run_all(seed, draws, tolerance)
    failing = [r.name for r in results if not r.passed]
    report = {
        "seed": seed,
        "draws": draws,
        "tolerance_override": tolerance,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": not failing,
    }
    return dumps_json(report), (f"failed checks: {', '.join(failing)}" if failing else None)


# ---------------------------------------------------------------------------
# Parser and entry point.

#: Subcommand -> (function, help, the keys of OPTIONS it reads besides out).
COMMANDS = {
    "rates": (cmd_rates, "one record of all closed-form rates",
              ("eta1", "eta2", "nt", "na", "nb", "ra", "rb", "pa", "pb", "format")),
    "surface": (cmd_surface, "individual rates over a squeeze-fraction grid",
                ("eta1", "eta2", "nt", "na", "nb", "grid", "format")),
    "region": (cmd_region, "rate region and receiver curves",
               ("eta1", "eta2", "nt", "na", "nb", "encodings", "format")),
    "asymptotics": (cmd_asymptotics, "limit verification probes",
                    ("eta1", "eta2", "nt", "lemma", "case", "kappa", "pa")),
    "optimize": (cmd_optimize, "search squeeze fractions",
                 ("eta1", "eta2", "nt", "na", "nb", "grid", "objective")),
    "verify": (cmd_verify, "oracle and property cross-checks", ("seed", "draws", "tolerance")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonic-mac",
        description="Gaussian-input rates and capacity regions for a "
                    "two-transmitter lossy bosonic channel with thermal noise.",
    )
    parser.add_argument("--version", action="store_true",
                        help="print the package version and exit")
    # main requires a command unless --version is given.
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, keys) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key in (*keys, "out"):
            option = OPTIONS[key]
            if key == "encodings":
                command.add_argument("--encoding", dest=key, action="append",
                                     metavar="RA,RB", help=option.help)
            else:
                metavar = "{" + ",".join(option.choices) + "}" if option.choices else None
                command.add_argument(f"--{key}", metavar=metavar, help=option.help)
        command.add_argument("--config")
    return parser


_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    """Send the package's log records to the current stderr at the level
    BOSONIC_MAC_LOG names, replacing the handler of an earlier call.  An
    unknown name logs at warn, and says so."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers[:] = [handler]
    name = os.environ.get("BOSONIC_MAC_LOG") or "warn"
    log.setLevel(_LOG_LEVELS.get(name, logging.WARNING))
    log.propagate = False
    if name not in _LOG_LEVELS:
        log.warning("unknown BOSONIC_MAC_LOG level %r, logging at warn; the levels are %s",
                    name, ", ".join(_LOG_LEVELS))


#: CLI flag of each library field whose name differs from it.
FLAGS = {
    "n_thermal": "nt",
    "n_a": "na",
    "n_b": "nb",
    "r_a": "ra",
    "r_b": "rb",
    "p_a": "pa",
    "p_b": "pb",
}


def _join_negative_values(argv: list) -> list:
    """Glue a value such as ``-1e-3`` or ``-0.5,0`` to the flag before it.

    argparse reads an argument that starts with '-' as an option unless it
    is a plain ``-<digits>[.<digits>]`` number, so ``--ra -1e-3`` or
    ``--encoding -0.5,0`` would lack its value; ``--ra=-1e-3`` is read as
    meant, also for an abbreviated flag.
    """
    joined = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (flag[:2] == "--" and len(flag) > 2 and "=" not in flag and arg[:1] == "-"
                and (arg[1:2].isdigit() or arg[1:2] == ".")):
            joined[-1] = f"{flag}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(argv))
    if args.command is None and not args.version:
        parser.error("the following arguments are required: command")
    try:
        if args.version:
            text, failure, out = f"{parser.prog} {__version__}\n", None, None
        else:
            opts = options_for(args)
            text, failure = COMMANDS[args.command][0](opts)
            out = opts["out"]
        _emit(text, out)
    except InputError as exc:
        print(f"error: {FLAGS.get(exc.field, exc.field)}: {exc.message}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if failure is None:
        return 0
    log.error("%s", failure)
    return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
