"""Command-line front end.

Subcommands: rates, surface, region, asymptotics, optimize, verify.
Data goes to stdout or --out; diagnostics go to stderr, with verbosity
controlled by the BOSONIC_MAC_LOG environment variable (error, warn,
info, debug).  Exit codes: 0 success, 2 bad input (the message names
the flag), 3 I/O failure, 4 verification failure; any other exception
is a bug and surfaces as a traceback.  Identical configuration and seed
give byte-identical output.
"""

import argparse
import logging
import math
import os
import sys

from . import asymptotics, region, verification
from .gaussian_core import ChannelParams, InputError, PhotonBudget, SqueezeFractions
from .rates import (
    Receiver,
    User,
    heterodyne_sum_rate,
    homodyne_sum_rate,
    outer_bound,
    rate_bundle,
    receiver_individual_rates,
    sum_rate_capacity_coherent,
)

log = logging.getLogger("bosonic_mac")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Deterministic serialization: 17 significant digits, stable key order.

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CliError(3, f"non-finite number in output: {x}")
    return format(float(x), ".17g")


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
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _json_write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    out: list = []
    _json_write(obj, out)
    out.append("\n")
    return "".join(out)


def dumps_csv(header, rows) -> str:
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


def write_output(text: str, out_path: str | None) -> None:
    try:
        if out_path is None:
            sys.stdout.write(text)
            return
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(3, f"{out_path or 'stdout'}: {exc}") from exc
    log.info("wrote %s", out_path)


# ---------------------------------------------------------------------------
# Configuration: built-in defaults < config file < flags.

BUILTIN = {
    "eta1": "0.5",
    "eta2": "0.9",
    "nt": "1.0",
    "na": "1.0",
    "nb": "1.0",
    "grid": "33",
    "seed": "20240901",
}

_FLOAT_KEYS = ("eta1", "eta2", "nt", "na", "nb", "ra", "rb", "pa", "pb",
               "kappa", "tolerance")
_INT_KEYS = ("grid", "seed", "draws", "samples")
_STR_KEYS = ("format", "out", "encodings", "lemma", "case", "objective")
KNOWN_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(3, f"{path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(2, f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise CliError(2, f"{path}:{lineno}: unknown key '{key}'")
        values[key] = value.strip()
    return values


class Settings:
    """Merged view over flags, config file and built-ins."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = load_config(args.config) if args.config else {}

    def _raw(self, key):
        flag = self._args.get(key)
        if flag is not None:
            return flag
        if key in self._config:
            return self._config[key]
        return BUILTIN.get(key)

    def float_of(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise CliError(2, f"{key}: not a number: {raw!r}") from None

    def int_of(self, key, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise CliError(2, f"{key}: not an integer: {raw!r}") from None

    def str_of(self, key, default=None):
        raw = self._raw(key)
        return default if raw is None else str(raw)

    def provided(self, key) -> bool:
        return self._args.get(key) is not None or key in self._config


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise CliError(2, f"{field}: {message}")


def channel_from(settings: Settings) -> ChannelParams:
    return ChannelParams(
        settings.float_of("eta1"), settings.float_of("eta2"), settings.float_of("nt")
    )


def budget_from(settings: Settings) -> PhotonBudget:
    na = settings.float_of("na")
    nb = settings.float_of("nb")
    has_r = settings.provided("ra") or settings.provided("rb")
    has_p = settings.provided("pa") or settings.provided("pb")
    if has_r and has_p:
        raise CliError(2, "pa: cannot be combined with ra/rb; give one convention")
    if has_p:
        fractions = SqueezeFractions(settings.float_of("pa", 0.0), settings.float_of("pb", 0.0))
        return fractions.budget_for(na, nb)
    return PhotonBudget(na, nb, settings.float_of("ra", 0.0), settings.float_of("rb", 0.0))


def grid_from(settings: Settings) -> int:
    grid = settings.int_of("grid")
    _require(2 <= grid <= MAX_GRID, "grid", f"must be in [2, {MAX_GRID}], got {grid}")
    return grid


def _channel_dict(params: ChannelParams) -> dict:
    return {"eta1": params.eta1, "eta2": params.eta2, "n_thermal": params.n_thermal}


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

def cmd_rates(settings: Settings) -> int:
    params = channel_from(settings)
    budget = budget_from(settings)
    bundle = rate_bundle(params, budget)
    receivers: dict = {"heterodyne": None, "homodyne": None}
    if budget.is_coherent and params.eta2 > 0.0:
        receivers["heterodyne"] = {
            "alice": receiver_individual_rates(params, budget, Receiver.HETERODYNE, User.ALICE),
            "bob": receiver_individual_rates(params, budget, Receiver.HETERODYNE, User.BOB),
            "sum": heterodyne_sum_rate(params, budget),
        }
    if params.eta1 > 0.0 and params.eta2 > 0.0:
        receivers["homodyne"] = {
            "alice": receiver_individual_rates(params, budget, Receiver.HOMODYNE, User.ALICE),
            "bob": receiver_individual_rates(params, budget, Receiver.HOMODYNE, User.BOB),
            "sum": homodyne_sum_rate(params, budget),
        }
    record = {
        "channel": _channel_dict(params),
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
    if settings.str_of("format", "json") == "csv":
        flat = _flatten(record)
        text = dumps_csv(list(flat.keys()), [list(flat.values())])
    else:
        text = dumps_json(record)
    write_output(text, settings.str_of("out"))
    return 0


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif value is None:
            flat[name] = ""
        else:
            flat[name] = value
    return flat


SURFACE_COLUMNS = ("p_A", "p_B", "sign_A", "sign_B", "r_max_a", "r_max_b")

#: Largest --grid.  A surface holds 4 * grid**2 cells in memory, about
#: 540 MB at 513.
MAX_GRID = 513


def cmd_surface(settings: Settings) -> int:
    params = channel_from(settings)
    budget = budget_from(settings)
    grid = grid_from(settings)
    surface = region.squeeze_surface(params, budget, grid_n=grid)
    rows = surface.rows()
    log.info("surface grid %dx%d over %d sign layers", grid, grid, len(surface.layers))
    if settings.str_of("format", "csv") == "json":
        text = dumps_json({
            "channel": _channel_dict(params),
            "budget": {"n_a": budget.n_a, "n_b": budget.n_b},
            "grid": grid,
            "columns": list(SURFACE_COLUMNS),
            "rows": [list(r) for r in rows],
        })
    else:
        text = dumps_csv(SURFACE_COLUMNS, rows)
    write_output(text, settings.str_of("out"))
    return 0


def _parse_encodings(settings: Settings):
    raw_list = settings._args.get("encoding")
    if raw_list is None:
        raw = settings.str_of("encodings")
        if raw is None:
            return [(0.0, 0.0)]
        raw_list = [s for s in raw.split(";")]
    pairs = []
    for item in raw_list:
        item = item.strip()
        if not item:
            continue
        parts = item.split(",")
        if len(parts) != 2:
            raise CliError(2, f"encoding: expected 'RA,RB', got {item!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise CliError(2, f"encoding: not numeric: {item!r}") from None
    if not pairs:
        raise CliError(2, "encoding: list must not be empty")
    return pairs


def cmd_region(settings: Settings) -> int:
    params = channel_from(settings)
    budget = budget_from(settings)
    encodings = _parse_encodings(settings)
    try:
        data = region.build_region(params, budget, encodings)
    except InputError as exc:
        # Only the encodings' budgets are new to build_region.
        raise InputError("encoding", str(exc)) from None
    doc = {
        "channel": _channel_dict(params),
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
    if settings.str_of("format", "json") == "csv":
        rows = []
        for name, vertices in _region_curves(doc):
            rows.extend((name, i, v[0], v[1]) for i, v in enumerate(vertices))
        text = dumps_csv(("dataset", "vertex", "r_a", "r_b"), rows)
    else:
        text = dumps_json(doc)
    write_output(text, settings.str_of("out"))
    return 0


def _region_curves(doc: dict):
    yield "hull", doc["hull"]["vertices"]
    for enc in doc["encodings"]:
        yield enc["label"], enc["vertices"]
    for name in ("heterodyne", "homodyne", "outer_bound"):
        if doc[name] is not None:
            yield name, doc[name]["vertices"]


def cmd_asymptotics(settings: Settings) -> int:
    params = channel_from(settings)
    which = settings.str_of("lemma", "all")
    cases = settings.str_of("case")
    config = asymptotics.CaseThreeConfig(
        kappa=settings.float_of("kappa", 1.0), p_a=settings.float_of("pa", 0.5)
    )

    probes = []
    if which in ("1", "all"):
        probes.append(asymptotics.high_power_heterodyne_probe(params))
    if which in ("hom-half", "all"):
        probes.append(asymptotics.homodyne_half_probe(params))
    if which in ("2", "all"):
        selected = ("1", "2", "3") if cases is None else (cases,)
        _require(
            all(c in ("1", "2", "3") for c in selected),
            "case", f"must be 1, 2 or 3, got {cases}",
        )
        if "1" in selected:
            probes.append(asymptotics.low_power_bob_first_probe(params))
        if "2" in selected:
            probes.append(asymptotics.low_power_alice_first_probe(params))
        if "3" in selected:
            probes.extend(asymptotics.low_power_simultaneous_probes(config, params))
    if which in ("receiver-gap", "all"):
        if params.n_thermal > 0.0:
            probes.extend(asymptotics.receiver_gap_probes(params))
        elif which == "receiver-gap":
            raise CliError(2, "nt: receiver-gap probes require nt > 0")
    if not probes:
        raise CliError(2, f"lemma: unknown selection {which!r}")

    all_converged = all(p.converged for p in probes)
    report = {
        "channel": _channel_dict(params),
        "probes": [p.to_dict() for p in probes],
        "all_converged": all_converged,
    }
    write_output(dumps_json(report), settings.str_of("out"))
    if not all_converged:
        diverged = [p.name for p in probes if not p.converged]
        log.warning("diverged probes: %s", ", ".join(diverged))
        return 4
    return 0


def cmd_optimize(settings: Settings) -> int:
    params = channel_from(settings)
    budget = budget_from(settings)
    raw = settings.str_of("objective", "max-ra")
    try:
        objective = region.Objective(raw)
    except ValueError:
        raise CliError(2, f"objective: must be one of max-ra, max-rb, max-sum, got {raw!r}") from None
    grid = grid_from(settings)
    result = region.optimize_squeezing(params, budget, objective, grid_n=grid)
    report = {
        "channel": _channel_dict(params),
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
    write_output(dumps_json(report), settings.str_of("out"))
    return 0


def cmd_verify(settings: Settings) -> int:
    seed = settings.int_of("seed")
    _require(seed >= 0, "seed", f"must be >= 0, got {seed}")
    draws = settings.int_of("draws", 1000)
    _require(draws >= 1, "draws", f"must be >= 1, got {draws}")
    tolerance = settings.float_of("tolerance") if settings.provided("tolerance") else None
    _require(tolerance is None or math.isfinite(tolerance), "tolerance",
             f"must be finite, got {tolerance}")
    results = verification.run_all(seed, draws, tolerance)
    report = {
        "seed": seed,
        "draws": draws,
        "tolerance_override": tolerance,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    write_output(dumps_json(report), settings.str_of("out"))
    if not report["all_passed"]:
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"failed checks: {failing}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key in _FLOAT_KEYS:
        common.add_argument(f"--{key}", type=str, default=None)
    for key in _INT_KEYS:
        common.add_argument(f"--{key}", type=str, default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--config", type=str, default=None)

    parser = argparse.ArgumentParser(
        prog="bosonic-mac",
        description="Gaussian-input rates and capacity regions for a "
                    "two-transmitter lossy bosonic channel with thermal noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rates", parents=[common], help="one record of all closed-form rates")
    sub.add_parser("surface", parents=[common], help="individual rates over a squeeze-fraction grid")
    p_region = sub.add_parser("region", parents=[common], help="rate region and receiver curves")
    p_region.add_argument(
        "--encoding", action="append", default=None, metavar="RA,RB",
        help="squeezing pair; repeat for several encodings (default 0,0)",
    )
    p_asym = sub.add_parser("asymptotics", parents=[common], help="limit verification probes")
    p_asym.add_argument("--lemma", type=str, default=None,
                        help="1, 2, hom-half, receiver-gap or all")
    p_asym.add_argument("--case", type=str, default=None, help="restrict lemma 2 to one case")
    p_opt = sub.add_parser("optimize", parents=[common], help="search squeeze fractions")
    p_opt.add_argument("--objective", type=str, default=None,
                       help="max-ra, max-rb or max-sum")
    sub.add_parser("verify", parents=[common], help="oracle and property cross-checks")
    return parser


_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("BOSONIC_MAC_LOG", "warn"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


COMMANDS = {
    "rates": cmd_rates,
    "surface": cmd_surface,
    "region": cmd_region,
    "asymptotics": cmd_asymptotics,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
}


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


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args)
        return COMMANDS[args.command](settings)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InputError as exc:
        print(f"error: {FLAGS.get(exc.field, exc.field)}: {exc.message}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
