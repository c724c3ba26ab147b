"""Seeded inputs and in-process operations of the three workloads.

``spec(workload, seed, index)`` is the input generator: it draws the
inputs of op ``index`` from its own stream of the workload seed and
returns a plain dict of argv lists and numbers.  The program only ever
receives those generated values.  Ops run in whole rounds (``ROUND``), so
every run sees the same mix of op kinds.

Inputs cover the valid domain: eta in [0.02, 0.98], n_thermal in [0, 5],
photon numbers in [0, 20] and signed squeeze fractions in [-1, 1].
"""

import json
import math
import random
import statistics
import time

WORKLOADS = ("cli-session", "surface-grid", "point-mix")

#: Seed whose op outputs have golden hashes in golden.json.
DEFAULT_SEED = 0
#: Seed kept out of tuning: a later speed claim is confirmed on it too.
HELD_OUT_SEED = 20220701

#: Ops per round; a run always ends on a round boundary.
ROUND = {"cli-session": 6, "surface-grid": 7, "point-mix": 1}

#: Point queries per point-mix op: about as long as run_all(draws=100).
POINT_QUERIES = 200
POINT_VERIFY_DRAWS = 100

SIGN_LAYERS = 4
OPTIMIZE_GRID = 33  # the CLI's default coarse grid
SCAN_SHAPE = (101, 33, 33)
OBJECTIVES = ("max-ra", "max-rb", "max-sum")


# A shared machine (here a 2-vCPU Intel Xeon VM) slows by up to a third
# for seconds at a time, in CPU time as well as wall time.  So each op is
# timed right after a fixed pure-Python snippet that runs no package code,
# and its times are scaled by CALIBRATION_REF_NS over the median snippet
# time of the surrounding ops: the slow phases cancel, a change in the
# program's own cost does not.  Run-to-run spread (IQR/median) of
# op_p50_ms: point-mix 15% unscaled, 4% to 8% scaled; cli-session 1% to
# 16% unscaled depending on the hour, 6% to 12% scaled.  Calibrating
# cli-session with a bare interpreter start instead gave 10% to 19%.

#: Snippet time of the reference machine.
CALIBRATION_REF_NS = 200_000
#: Ops on each side of an op whose calibrations set its scale factor.
CALIBRATION_WINDOW = 5


def _snippet_ns() -> int:
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(1, 1001):
        x = i * 1e-3
        acc += math.log1p(x) + x * math.log1p(1.0 / x) + math.sqrt(x)
    return time.perf_counter_ns() - start


def snippet_ns() -> int:
    """Best of three timings of the calibration snippet (the first pass may
    find cold caches)."""
    return min(_snippet_ns() for _ in range(3))


def speed_factors(cal_ns: list) -> list:
    """Per-op scale factors from the calibrations around each op."""
    w = CALIBRATION_WINDOW
    return [CALIBRATION_REF_NS / statistics.median(cal_ns[max(0, k - w):k + w + 1])
            for k in range(len(cal_ns))]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _channel(rng) -> dict:
    return {
        "eta1": rng.uniform(0.02, 0.98),
        "eta2": rng.uniform(0.02, 0.98),
        "nt": rng.uniform(0.0, 5.0),
    }


def _squeeze(rng, n: float) -> float:
    """Signed squeezing parameter spending a fraction |p| of ``n`` photons."""
    p = rng.uniform(-1.0, 1.0)
    return math.copysign(math.asinh(math.sqrt(abs(p) * n)), p)


def _point(rng) -> dict:
    point = _channel(rng)
    point["na"] = rng.uniform(0.0, 20.0)
    point["nb"] = rng.uniform(0.0, 20.0)
    return point


def _flags(point: dict, keys=("eta1", "eta2", "nt", "na", "nb")) -> list:
    argv = []
    for key in keys:
        argv += [f"--{key}", repr(point[key])]
    return argv


def _cli(name: str, argv: list, point: dict, cells: int, fmt: str) -> dict:
    return {"kind": "cli", "name": name, "argv": argv, "point": point,
            "cells": cells, "format": fmt}


def _cli_session(rng, position: int) -> dict:
    point = _point(rng)
    if position == 0:
        argv = ["rates", *_flags(point)]
        if rng.random() < 0.5:
            point["ra"] = _squeeze(rng, point["na"])
            point["rb"] = _squeeze(rng, point["nb"])
            argv += [f"--ra={point['ra']!r}", f"--rb={point['rb']!r}"]
        return _cli("rates", argv, point, 1, "json")
    if position == 1:
        ra, rb = _squeeze(rng, point["na"]), _squeeze(rng, point["nb"])
        argv = ["region", *_flags(point), "--encoding=0,0", f"--encoding={ra!r},{rb!r}"]
        return _cli("region", argv, point, 2, "json")
    if position == 2:
        argv = ["asymptotics", "--lemma", "all", *_flags(point, ("eta1", "eta2", "nt"))]
        return _cli("asymptotics", argv, point, 0, "json")
    if position == 3:
        objective = rng.choice(OBJECTIVES)
        argv = ["optimize", *_flags(point), "--objective", objective]
        return _cli("optimize", argv, point, SIGN_LAYERS * OPTIMIZE_GRID ** 2, "json")
    if position == 4:
        argv = ["surface", *_flags(point), "--grid", "33"]
        return _cli("surface", argv, point, SIGN_LAYERS * 33 ** 2, "csv")
    argv = ["verify", "--draws", "1000", "--seed", str(rng.randrange(2 ** 31))]
    return _cli("verify", argv, point, 0, "json")


def _surface_grid(rng, position: int) -> dict:
    point = _point(rng)
    if position < 3:
        grid, fmt = ((65, "csv"), (129, "csv"), (129, "json"))[position]
        argv = ["surface", *_flags(point), "--grid", str(grid), "--format", fmt]
        return dict(_cli("surface", argv, point, SIGN_LAYERS * grid * grid, fmt),
                    label=f"surface-{grid}-{fmt}")
    if position < 6:
        argv = ["optimize", *_flags(point), "--objective", OBJECTIVES[position - 3]]
        return _cli("optimize", argv, point, SIGN_LAYERS * OPTIMIZE_GRID ** 2, "json")
    point["total"] = rng.uniform(0.0, 20.0)
    s, f, _ = SCAN_SHAPE
    return {"kind": "scan", "name": "scan", "point": point, "cells": s * f * f}


def _point_mix(rng) -> dict:
    queries = []
    for _ in range(POINT_QUERIES):
        q = _point(rng)
        if rng.random() < 0.25:
            q["ra"] = q["rb"] = 0.0
        else:
            q["ra"] = _squeeze(rng, q["na"])
            q["rb"] = _squeeze(rng, q["nb"])
        q["encodings"] = [[0.0, 0.0], [q["ra"], q["rb"]],
                          [_squeeze(rng, q["na"]), _squeeze(rng, q["nb"])]]
        queries.append(q)
    return {
        "kind": "points", "name": "points", "queries": queries,
        "verify_seed": rng.randrange(2 ** 31), "probe_channel": _channel(rng),
        "cells": POINT_QUERIES,
    }


def spec(workload: str, seed: int, index: int) -> dict:
    """Inputs of op ``index`` of ``workload`` under ``seed``."""
    rng = _rng(workload, seed, index)
    if workload == "cli-session":
        op = _cli_session(rng, index % ROUND[workload])
    elif workload == "surface-grid":
        op = _surface_grid(rng, index % ROUND[workload])
    elif workload == "point-mix":
        op = _point_mix(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    op["index"] = index
    return op


# ---------------------------------------------------------------------------
# In-process execution.  Modules are reached through their attributes at
# call time, so wrappers installed by the tracer see every call.

def execute(op: dict, out_path: str):
    """Run one op; returns (exit code, payload).

    CLI ops write their output to ``out_path`` themselves and return no
    payload.  Library ops return the raw result objects; ``to_bytes``
    serializes them outside the timed region.
    """
    import bosonic_mac
    from bosonic_mac import asymptotics, cli, region, verification
    from bosonic_mac import rates as r

    if op["kind"] == "cli":
        return cli.main([*op["argv"], "--out", out_path]), None
    if op["kind"] == "scan":
        pt = op["point"]
        params = bosonic_mac.ChannelParams(pt["eta1"], pt["eta2"], pt["nt"])
        return 0, region.global_constraint_scan(params, pt["total"], *SCAN_SHAPE[:2])

    results = []
    for q in op["queries"]:
        params = bosonic_mac.ChannelParams(q["eta1"], q["eta2"], q["nt"])
        budget = bosonic_mac.PhotonBudget(q["na"], q["nb"], q["ra"], q["rb"])
        item = {
            "bundle": r.rate_bundle(params, budget),
            "pentagon": region.pentagon_at(params, budget),
            "outer": (r.outer_bound(params, budget, r.User.ALICE),
                      r.outer_bound(params, budget, r.User.BOB)),
            "coherent_sum": r.sum_rate_capacity_coherent(params, budget),
            "homodyne": (
                r.homodyne_sum_rate(params, budget),
                r.receiver_individual_rates(params, budget, r.Receiver.HOMODYNE, r.User.ALICE),
                r.receiver_individual_rates(params, budget, r.Receiver.HOMODYNE, r.User.BOB),
            ),
            "region": region.build_region(params, budget, q["encodings"]),
        }
        if budget.is_coherent:
            item["heterodyne"] = (
                r.heterodyne_sum_rate(params, budget),
                r.receiver_individual_rates(params, budget, r.Receiver.HETERODYNE, r.User.ALICE),
                r.receiver_individual_rates(params, budget, r.Receiver.HETERODYNE, r.User.BOB),
            )
        results.append(item)
    checks = verification.run_all(op["verify_seed"], POINT_VERIFY_DRAWS)
    ch = op["probe_channel"]
    params = bosonic_mac.ChannelParams(ch["eta1"], ch["eta2"], ch["nt"])
    probes = [
        asymptotics.high_power_heterodyne_probe(params),
        asymptotics.homodyne_half_probe(params),
        asymptotics.low_power_bob_first_probe(params),
        asymptotics.low_power_alice_first_probe(params),
        *asymptotics.low_power_simultaneous_probes(asymptotics.CaseThreeConfig(), params),
    ]
    if params.n_thermal > 0.0:
        probes.extend(asymptotics.receiver_gap_probes(params))
    return 0, {"queries": results, "checks": checks, "probes": probes}


def _pentagon(p) -> list:
    """Pentagon limits; its vertices follow from them (Pentagon.from_rates)."""
    return [p.r_a_max, p.r_b_max, p.sum_max, len(p.vertices)]


def _plain_points(result: dict) -> dict:
    queries = []
    for item in result["queries"]:
        b, reg = item["bundle"], item["region"]
        queries.append({
            "bundle": [b.r_max_a, b.r_max_b, b.r_max_ab,
                       int(b.branch_a), int(b.branch_b), int(b.branch_ab)],
            "pentagon": _pentagon(item["pentagon"]),
            "outer": item["outer"],
            "coherent_sum": item["coherent_sum"],
            "homodyne": item["homodyne"],
            "heterodyne": item.get("heterodyne"),
            "region": {
                "hull": [[v.r_a, v.r_b] for v in reg.region.hull],
                "pentagons": [_pentagon(p) for _, p in reg.pentagons],
                "heterodyne": _pentagon(reg.heterodyne) if reg.heterodyne else None,
                "homodyne": _pentagon(reg.homodyne) if reg.homodyne else None,
                "outer": reg.outer_bound,
            },
        })
    return {
        "queries": queries,
        "checks": [{"name": c.name, "passed": c.passed, "details": c.details}
                   for c in result["checks"]],
        "probes": [p.to_dict() for p in result["probes"]],
    }


def to_bytes(payload) -> bytes:
    """Canonical JSON of a library result: floats in shortest round-trip form."""
    plain = payload.to_dict() if hasattr(payload, "to_dict") else _plain_points(payload)
    return (json.dumps(plain, allow_nan=False) + "\n").encode("utf-8")
