"""Layer tracing from outside the package.

``Tracer.install()`` replaces each public entry point of the package
modules with a timing wrapper, in every ``bosonic_mac`` module namespace
that holds it: ``cli`` binds ``rate_bundle`` by name while ``region``
reaches ``kernels.rate_triple`` through the module, so both bindings are
swapped.  The kernel modules' own namespaces are left alone, because the
calls between kernel functions are not layer boundaries.

Every wrapped call pushes a frame; on return its duration is charged to
the calling frame, so a frame's self time is its duration minus its
children's.  Entry points with few calls per op record a span (name,
start, end, parent span, op).  Hot functions (kernels, rate formulas,
dataclass validation) are only aggregated per op as calls, total and self
time.  Spans stay in memory until the run ends.
"""

import functools
import time

_now = time.perf_counter_ns

#: The benchmark's own time inside a traced op (the root frame's self time).
BENCH = "bench"


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start_ns, child_ns, span_id]
        self.spans = []  # (op, name, start_ns, end_ns, parent_span, self_ns)
        self.ops = []  # per traced op: index, wall_ns, cells, acc, counters
        self.acc = {}  # name -> [calls, total_ns, self_ns] of the current op
        self.counters = {}
        self._op = None
        self._undo = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        for cell in self.acc.values():
            cell[:] = [0, 0, 0]
        self.counters = dict.fromkeys(self.counters, 0)
        self.stack.append([BENCH, _now(), 0, None])

    def end_op(self, cells: int) -> None:
        _, start, child, _ = self.stack.pop()
        wall = _now() - start
        acc = {k: tuple(v) for k, v in self.acc.items() if v[0]}
        acc[BENCH] = (1, wall, wall - child)
        self.ops.append({"index": self._op, "wall_ns": wall, "cells": cells,
                         "acc": acc, "counters": dict(self.counters)})
        self._op = None

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _cell(self, name: str) -> list:
        return self.acc.setdefault(name, [0, 0, 0])

    def wrap(self, name: str, fn, span: bool = False, before=None, after=None):
        """Timing wrapper; ``before`` may rewrite the arguments and
        ``after(args, kwargs, result)`` updates counters once timing ended."""
        stack, spans, cell = self.stack, self.spans, self._cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1]
            span_id = len(spans) if span else parent[3]
            if span:
                spans.append(None)
            frame = [name, _now(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - frame[1]
                parent[2] += dur
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[2]
                if span:
                    spans[span_id] = (self._op, name, frame[1], end, parent[3], dur - frame[2])
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Cheaper wrapper for kernel functions, which call no other layer."""
        stack, cell = self.stack, self._cell(name)

        @functools.wraps(fn)
        def wrapper(*args):
            if not stack:
                return fn(*args)
            start = _now()
            try:
                return fn(*args)
            finally:
                dur = _now() - start
                stack[-1][2] += dur
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        import sys

        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("bosonic_mac") or mod_name in (
                "bosonic_mac._core", "bosonic_mac._core_py"
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from bosonic_mac import (
            _kernels, _search, asymptotics, cli, gaussian_core, network, rates,
            region, verification,
        )

        for attr, fn in list(vars(_kernels).items()):
            if callable(fn) and getattr(fn, "__module__", "").startswith("bosonic_mac._core"):
                label = "kernels.rate_triple" if attr == "rate_triple" else f"kernels.other.{attr}"
                self._replace(fn, self.leaf(label, fn))

        def out_bytes(args, kwargs, result):
            self.count("cli.out_bytes", len(args[0].encode("utf-8")))

        def traced_parser(args, kwargs, parser):
            parser.parse_args = self.wrap("cli.parse", parser.parse_args, span=True)

        spans = [
            (cli, "main", "cli.main", {}),
            (cli, "build_parser", "cli.parse", {"after": traced_parser}),
            (cli, "channel_from", "cli.validate", {}),
            (cli, "budget_from", "cli.validate", {}),
            (cli, "_parse_encodings", "cli.validate", {}),
            (cli, "dumps_csv", "cli.serialize", {}),
            (cli, "dumps_json", "cli.serialize", {}),
            (cli, "write_output", "cli.write", {"after": out_bytes}),
            (region, "squeeze_surface", "region.squeeze_surface", {}),
            (region, "optimize_squeezing", "region.optimize_squeezing", {}),
            (region, "global_constraint_scan", "region.global_constraint_scan", {}),
            (network, "mc_heterodyne_rate", "network.mc_heterodyne_rate", {
                "after": lambda a, k, r: self.count("network.mc_samples", a[2]),
            }),
            (verification, "run_all", "verification.run_all", {
                "after": lambda a, k, r: self.count(
                    "verification.failed", sum(not c.passed for c in r)),
            }),
        ]
        for check in ("covariance_oracle", "mc_heterodyne", "piecewise_continuity", "containment"):
            spans.append((verification, f"check_{check}", f"verification.{check}", {}))
        for probe in ("high_power_heterodyne_probe", "homodyne_half_probe",
                      "low_power_bob_first_probe", "low_power_alice_first_probe",
                      "low_power_simultaneous_probes", "receiver_gap_probes"):
            spans.append((asymptotics, probe, "asymptotics.probe", {
                "after": lambda a, k, r: self.count(
                    "asymptotics.probes", len(r) if isinstance(r, tuple) else 1),
            }))
        for module, attr, name, hooks in spans:
            fn = getattr(module, attr)
            self._replace(fn, self.wrap(name, fn, span=True, **hooks))
        self._method(region.SqueezeSurface, "rows", self.wrap(
            "region.SqueezeSurface.rows", region.SqueezeSurface.rows, span=True))

        def counted_search(args, kwargs):
            f = args[0]
            in_optimize = any(frame[0] == "region.optimize_squeezing" for frame in self.stack)
            counters = ("search.evals", "search.optimize_evals") if in_optimize else ("search.evals",)

            def evaluate(x):
                for name in counters:
                    self.count(name, 1)
                return f(x)

            return (evaluate, *args[1:]), kwargs

        aggregated = [
            (region, "build_region", "region.build_region", {}),
            (region, "pentagon_at", "region.pentagon_at", {}),
            (network, "propagate", "network.propagate", {}),
            (_search, "golden_section_max", "search.golden_section_max",
             {"before": counted_search}),
        ]
        for attr in ("rate_bundle", "individual_rate", "sum_rate", "outer_bound",
                     "point_to_point", "sum_rate_capacity_coherent", "homodyne_sum_rate",
                     "heterodyne_sum_rate", "receiver_individual_rates", "big_g11",
                     "big_g12", "big_g12_simplified", "big_g2"):
            aggregated.append((rates, attr, f"rates.{attr}", {}))
        for module, attr, name, hooks in aggregated:
            fn = getattr(module, attr)
            self._replace(fn, self.wrap(name, fn, **hooks))
        for cls in (gaussian_core.ChannelParams, gaussian_core.PhotonBudget,
                    gaussian_core.CovMatrix2, gaussian_core.SqueezeFractions):
            self._method(cls, "__post_init__", self.wrap(
                f"gaussian_core.{cls.__name__}", cls.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced ops.

def _sum(ops, key: str, pick: int, prefix: bool = False) -> int:
    total = 0
    for op in ops:
        for name, cell in op["acc"].items():
            if name == key or (prefix and name.startswith(key)):
                total += cell[pick]
    return total


def _counter(ops, key: str) -> int:
    return sum(op["counters"].get(key, 0) for op in ops)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


CALLS, TOTAL, SELF = 0, 1, 2


def layer_metrics(ops) -> dict:
    """Per-op means (and ratios) of every per-layer metric of the table."""
    n = len(ops)
    ms = 1e-6 / n

    def self_ms(key, prefix=False):
        return _sum(ops, key, SELF, prefix) * ms

    serialize_ns = _sum(ops, "cli.serialize", SELF)
    out_bytes = _counter(ops, "cli.out_bytes")
    triple_calls = _sum(ops, "kernels.rate_triple", CALLS)
    triple_ns = _sum(ops, "kernels.rate_triple", TOTAL)
    evals = _counter(ops, "search.evals")
    mc_ns = _sum(ops, "network.mc_heterodyne_rate", TOTAL)
    mc_samples = _counter(ops, "network.mc_samples")
    m = {
        "cli.parse_ms": self_ms("cli.parse"),
        "cli.validate_ms": self_ms("cli.validate"),
        "cli.serialize_ms": serialize_ns * ms,
        "cli.write_ms": self_ms("cli.write"),
        "cli.out_bytes": out_bytes / n,
        "cli.serialize_ns_per_byte": _ratio(serialize_ns, out_bytes),
    }
    for entry in ("squeeze_surface", "SqueezeSurface.rows", "optimize_squeezing",
                  "global_constraint_scan", "build_region", "pentagon_at"):
        m[f"region.{entry}.self_ms"] = self_ms(f"region.{entry}")
    m.update({
        "kernels.rate_triple.calls": triple_calls / n,
        "kernels.rate_triple.ms": triple_ns * ms,
        "kernels.rate_triple.ns_per_call": _ratio(triple_ns, triple_calls),
        "kernels.calls_per_cell": _ratio(triple_calls, sum(op["cells"] for op in ops)),
        "kernels.other.calls": _sum(ops, "kernels.other.", CALLS, prefix=True) / n,
        "rates.calls": _sum(ops, "rates.", CALLS, prefix=True) / n,
        "rates.self_ms": self_ms("rates.", prefix=True),
        "gaussian_core.budgets": _sum(ops, "gaussian_core.PhotonBudget", CALLS) / n,
        "gaussian_core.validate_ms": self_ms("gaussian_core.", prefix=True),
        "search.calls": _sum(ops, "search.golden_section_max", CALLS) / n,
        "search.evals": evals / n,
        "search.evals_per_optimize": _ratio(_counter(ops, "search.optimize_evals"),
                                            _sum(ops, "region.optimize_squeezing", CALLS)),
        "network.propagate.calls": _sum(ops, "network.propagate", CALLS) / n,
        "network.propagate_ms": _sum(ops, "network.propagate", TOTAL) * ms,
        "network.mc_samples": mc_samples / n,
        "network.mc_ns_per_sample": _ratio(mc_ns, mc_samples),
    })
    for check in ("covariance_oracle", "mc_heterodyne", "piecewise_continuity", "containment"):
        m[f"verification.{check}_ms"] = _sum(ops, f"verification.{check}", TOTAL) * ms
    m["verification.failed"] = _counter(ops, "verification.failed")
    m["asymptotics.probes"] = _counter(ops, "asymptotics.probes") / n
    m["asymptotics.ms"] = _sum(ops, "asymptotics.probe", TOTAL) * ms
    return m


def layer_self_ms(ops) -> dict:
    """Self time per op of each layer plus the benchmark's own time; the
    values add up to the mean traced op wall time."""
    n = len(ops)
    out = {}
    for op in ops:
        for name, cell in op["acc"].items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + cell[SELF] * 1e-6 / n
    return out
