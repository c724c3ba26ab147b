"""Seeded end-to-end benchmark of bosonic-mac, run against this checkout's src/.

    python3 perfbench/run.py --workload {cli-session,surface-grid,point-mix}
        --seed N --seconds S --trace {0,1} [--smoke] [--out FILE]
    python3 perfbench/run.py --write-golden

Each workload is a closed loop with one caller: the next op starts when
the previous one has returned, and the run ends on the first round
boundary after S seconds.  ``cli-session`` runs every CLI subcommand as
its own ``python -m bosonic_mac.cli`` process; ``surface-grid`` and
``point-mix`` run in one warm worker process (perfbench/worker.py).  Every
op's output is checked (gate.py) after the loop.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run of the same workload and seed.  The last
line of stdout is the result object; the line before it holds the
provenance, sample counts, tail percentile and every per-layer metric,
and ``--out`` writes that record (with the trace spans) to FILE.
``--smoke`` runs one op and one set-up, with every gate on.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Op outputs live here until the gate has read them.
SCRATCH = ROOT / ".perfbench_tmp"
PY = sys.executable

#: Cold starts per run (set-up time is their median), or start-up probes
#: per traced run.
SETUP_REPEATS = 5
#: Ops per workload with golden hashes: over twice what one run makes today.
GOLDEN_OPS = {"cli-session": 600, "surface-grid": 140, "point-mix": 1500}
#: Percentiles tried for the tail, highest first.  The rungs are far
#: apart, so a run's op count stays inside one rung from run to run:
#: p75 needs 40 ops, p95 200 and p99 1000 (cli-session makes about 100,
#: surface-grid about 70 and point-mix 300 to 500 in 25 s).
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one worker, no extra threads
    env.pop("BOSONIC_MAC_LOG", None)
    return env


def remove_scratch(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only when no other run is using it
    except OSError:
        pass


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail(values):
    """(percentile, value) at the highest percentile with ten samples beyond it."""
    n = len(values)
    p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10 - 1e-9), 50.0)
    return p, percentile(values, p)


# ---------------------------------------------------------------------------
# Runs.

def cli_argv(op: dict) -> list:
    return [PY, "-m", "bosonic_mac.cli", *op["argv"]]


def children_cpu_ns() -> int:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


def cli_session_loop(seed: int, seconds: float, count, env) -> list:
    """Client loop of cli-session: one CLI process at a time."""
    records = []
    begin = time.perf_counter_ns()
    index = 0
    while True:
        op = workloads.spec("cli-session", seed, index)
        cal = workloads.snippet_ns()
        c0, w0 = children_cpu_ns(), time.perf_counter_ns()
        try:
            proc = subprocess.run(cli_argv(op), capture_output=True, env=env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            code, data, error = proc.returncode, proc.stdout, proc.stderr.decode()[-500:] or None
        except subprocess.TimeoutExpired:
            code, data, error = None, b"", "timed out"
        w1, c1 = time.perf_counter_ns(), children_cpu_ns()
        records.append({"index": index, "wall_ns": w1 - w0, "cpu_ns": c1 - c0, "cal_ns": cal,
                        "code": code, "data": data, "error": error})
        index += 1
        if count is not None:
            if index >= count:
                break
        elif index % workloads.ROUND["cli-session"] == 0 and \
                time.perf_counter_ns() - begin >= seconds * 1e9:
            break
    return records


def run_worker(workload, seed, mode, outdir, env, seconds=0.0, count=None) -> dict:
    cmd = [PY, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--outdir", str(outdir), "--seconds", repr(seconds)]
    if count is not None:
        cmd += ["--max-ops", str(count)]
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    return json.loads((outdir / "worker.json").read_text())


def cold_start(workload, seed, outdir, env) -> tuple:
    """(seconds, speed factor): wall time from spawning a fresh interpreter
    until ``import bosonic_mac`` has returned and the first, cold op has
    completed, and the scale factor measured just before."""
    cal = statistics.median(workloads.snippet_ns() for _ in range(3))
    return cold_start_s(workload, seed, outdir, env), workloads.CALIBRATION_REF_NS / cal


def cold_start_s(workload, seed, outdir, env) -> float:
    """Seconds from spawning the cold process until its op has completed."""
    if workload == "cli-session":
        t0 = time.perf_counter()
        proc = subprocess.run(cli_argv(workloads.spec(workload, seed, 0)), capture_output=True,
                              env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"cold op failed: {proc.stderr.decode()[-2000:]}")
        return elapsed
    cmd = [PY, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", "cold", "--outdir", str(outdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"cold op failed: {err.decode()[-2000:]}")
    return elapsed


def startup_breakdown(env, repeats: int) -> dict:
    """Medians of bare interpreter start-up and of ``-X importtime`` rows."""
    python_s, numpy_us, pkg_us = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", "pass"], check=True, env=env, cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
        python_s.append(time.perf_counter() - t0)
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import bosonic_mac"],
                              capture_output=True, check=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        cumulative = parse_importtime(proc.stderr.decode())
        numpy = cumulative.get("numpy", 0)
        numpy_us.append(numpy)
        pkg_us.append(cumulative["bosonic_mac"] - numpy)
    return {
        "startup.python_ms": statistics.median(python_s) * 1e3,
        "startup.numpy_import_ms": statistics.median(numpy_us) * 1e-3,
        "startup.pkg_import_ms": statistics.median(pkg_us) * 1e-3,
    }


def parse_importtime(text: str) -> dict:
    """Cumulative microseconds per module from ``python -X importtime``."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if cum.strip().isdigit():
            cumulative.setdefault(name.strip(), int(cum))
    return cumulative


# ---------------------------------------------------------------------------
# Gate, provenance and metrics.

def import_package():
    """Import the checkout's package into this process, for the gate's
    reference values and for provenance."""
    sys.path.insert(0, str(SRC))
    import bosonic_mac
    import numpy

    pkg = pathlib.Path(bosonic_mac.__file__).resolve()
    if SRC.resolve() not in pkg.parents:
        raise BenchError(f"bosonic_mac resolved to {pkg}, outside {SRC}")
    return bosonic_mac, numpy


def versions(bosonic_mac, numpy) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "backend": bosonic_mac.BACKEND}


def git_state() -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or pathlib.Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "-uno"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30).stdout
        return {"commit": head, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def gate_ops(workload, seed, records, golden) -> tuple:
    failures, golden_checked = [], 0
    for rec in records:
        op = workloads.spec(workload, seed, rec["index"])
        if "data" in rec:
            data = rec["data"]
        else:
            path = pathlib.Path(rec["path"])
            data = path.read_bytes() if path.exists() else b""
        if rec["error"] and rec["code"] is None:
            reasons = [f"crashed: {rec['error'].strip().splitlines()[-1]}"]
        else:
            reasons = gate.check_op(workload, seed, op, data, rec["code"], golden)
        golden_checked += gate.golden_hash(golden, workload, seed, rec["index"]) is not None
        if reasons:
            failures.append({"index": rec["index"], "op": op["name"], "reasons": reasons})
            print(f"gate: {workload} seed {seed} op {rec['index']} ({op['name']}): "
                  + "; ".join(reasons), file=sys.stderr)
    return failures, golden_checked


def end_to_end(workload, seed, records, setup, peak_rss_kb) -> tuple:
    """End-to-end metrics from speed-scaled op times; the unscaled medians
    go into the samples record."""
    factors = workloads.speed_factors([r["cal_ns"] for r in records])
    wall_ms = [r["wall_ns"] * 1e-6 * f for r, f in zip(records, factors)]
    cpu_ms = [r["cpu_ns"] * 1e-6 * f for r, f in zip(records, factors)]
    busy_s = sum(wall_ms) * 1e-3
    cells = sum(workloads.spec(workload, seed, r["index"])["cells"] for r in records)
    tail_p, tail_ms = tail(wall_ms)
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setup),
        "ops_per_s": len(records) / busy_s,
        "op_p50_ms": statistics.median(wall_ms),
        "op_tail_ms": tail_ms,
        "op_cpu_ms": statistics.median(cpu_ms),
        "cells_per_s": cells / busy_s,
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
    }
    by_label = {}
    for r, ms in zip(records, wall_ms):
        op = workloads.spec(workload, seed, r["index"])
        by_label.setdefault(op.get("label", op["name"]), []).append(ms)
    samples = {
        "setup_s": len(setup), "ops": len(records), "op_tail_percentile": tail_p,
        "cells": cells, "busy_s": busy_s,
        "op_p50_ms_by_kind": {k: statistics.median(v) for k, v in by_label.items()},
        "speed_factor_median": statistics.median(factors),
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setup),
            "op_p50_ms": statistics.median(r["wall_ns"] * 1e-6 for r in records),
            "op_cpu_ms": statistics.median(r["cpu_ns"] * 1e-6 for r in records),
            "ops_per_s": len(records) / (sum(r["wall_ns"] for r in records) * 1e-9),
        },
    }
    return metrics, samples


def run(args) -> int:
    if not (SRC / "bosonic_mac" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bosonic_mac'}", file=sys.stderr)
        return 2
    # One CPU for the client, the worker and every CLI process, so each
    # calibration runs where the ops run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    count = 1 if args.smoke else None
    repeats = 1 if args.smoke else SETUP_REPEATS
    load_before = os.getloadavg()
    outdir = SCRATCH / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke}
    try:
        if args.trace:
            startup = startup_breakdown(env, repeats)
            worker = run_worker(args.workload, args.seed, "traced", outdir, env,
                                args.seconds, count)
            records = worker["ops"]
            n_traced = len(records) // 2
            layers = dict(startup)
            layers.update(worker["layers"])
            layers["sched.wait_ms"] = worker["sched_wait_ns"] * 1e-6 / n_traced
            layers["trace.overhead_ratio"] = worker["overhead_ratio"]
            detail.update({"samples": {"traced_ops": n_traced, "startup_repeats": repeats},
                           "layer_self_ms": worker["layer_self_ms"],
                           "traced_op_ms": worker["traced_op_ms"]})
            measured = layers
            kind = "per_layer"
        else:
            setup = [cold_start(args.workload, args.seed, outdir, env) for _ in range(repeats)]
            if args.workload == "cli-session":
                worker = {}
                records = cli_session_loop(args.seed, args.seconds, count, env)
                peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                worker = run_worker(args.workload, args.seed, "timed", outdir, env,
                                    args.seconds, count)
                records = worker["ops"]
                peak_kb = worker["peak_rss_kb"]
            measured, samples = end_to_end(args.workload, args.seed, records, setup, peak_kb)
            detail["samples"] = samples
            kind = "end_to_end"

        bosonic_mac, numpy = import_package()
        vers = versions(bosonic_mac, numpy)
        for key, ours in (("backend", vers["backend"]), ("numpy", vers["numpy"])):
            if key in worker and worker[key] != ours:
                raise BenchError(f"worker {key} {worker[key]} differs from {ours}")
        golden = gate.load_golden(vers)
        gate_start = time.perf_counter()
        failures, golden_checked = gate_ops(args.workload, args.seed, records, golden)
        detail["gate_s"] = time.perf_counter() - gate_start
    finally:
        remove_scratch(outdir)

    detail["provenance"] = {
        **git_state(), **vers,
        "package_file": bosonic_mac.__file__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "seed": args.seed,
    }
    detail["gate"] = {"attempted": len(records), "failed": len(failures),
                      "error_rate": len(failures) / len(records),
                      "golden_checked": golden_checked,
                      "golden": "applies" if golden else "not recorded for these versions",
                      "failures": failures}
    detail["metrics"] = measured
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        full = dict(detail, spans=worker.get("spans", []))
        pathlib.Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Golden hashes.

def write_golden() -> int:
    """Record the output hashes of the default seed's first ops, in process."""
    bosonic_mac, numpy = import_package()
    vers = versions(bosonic_mac, numpy)
    seed = workloads.DEFAULT_SEED
    scratch = SCRATCH / f"golden-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    hashes = {}
    try:
        for workload, n in GOLDEN_OPS.items():
            hashes[workload] = []
            for index in range(n):
                op = workloads.spec(workload, seed, index)
                path = scratch / "out"
                code, payload = workloads.execute(op, str(path))
                data = workloads.to_bytes(payload) if payload is not None else path.read_bytes()
                reasons = gate.check_op(workload, seed, op, data, code, None)
                if reasons:
                    raise BenchError(f"{workload} op {index}: {'; '.join(reasons)}")
                hashes[workload].append(gate.sha256(data))
            print(f"{workload}: {n} ops", file=sys.stderr)
    finally:
        remove_scratch(scratch)
    doc = {"versions": vers, "seed": seed, "workloads": hashes}
    gate.GOLDEN_PATH.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one op and one set-up, all gates on")
    ap.add_argument("--out", help="write the full record, spans included, to this file")
    ap.add_argument("--write-golden", action="store_true",
                    help="record golden hashes for the default seed")
    args = ap.parse_args(argv)
    try:
        if args.write_golden:
            return write_golden()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
