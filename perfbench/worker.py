"""Worker process: runs one workload's ops in process, one at a time.

    python3 perfbench/worker.py --workload W --seed N --mode MODE --outdir DIR
        [--seconds S] [--max-ops K]

MODE is ``cold`` (import the package, run op 0, print ``ready``),
``timed`` (closed loop for S seconds, ending on a round boundary) or
``traced`` (blocks of ops run untraced and then again with the layer
tracer installed, for S seconds).  Each op writes its output under DIR;
the record of the run goes to DIR/worker.json.  The parent process checks
the outputs after this process has exited, so the gate does not inflate
the worker's peak memory.
"""

import argparse
import json
import pathlib
import resource
import sys
import time
import traceback

import workloads

SCHEDSTAT = pathlib.Path("/proc/self/schedstat")
#: Rounds per block of a traced run: run untraced, then again traced.
TRACE_BLOCK_ROUNDS = 2


def run_queue_wait_ns() -> int:
    """Time this process has waited on a run queue, or 0 where unavailable."""
    try:
        return int(SCHEDSTAT.read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return 0


def run_ops(workload, seed, outdir, prefix, seconds=None, count=None, tracer=None, start=0):
    """Closed loop: the next op starts when the previous one has returned.
    Runs ops ``start``, ``start + 1``, ... for ``count`` ops or, without a
    count, until the first round boundary after ``seconds``."""
    round_len = workloads.ROUND[workload]
    records = []
    begin = time.perf_counter_ns()
    index = start
    while True:
        op = workloads.spec(workload, seed, index)
        path = outdir / f"{prefix}{index}.out"
        error = None
        cal = workloads.snippet_ns()
        if tracer is not None:
            tracer.begin_op(index)
        w0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            code, payload = workloads.execute(op, str(path))
        except Exception:  # a crash is a failed op, not the end of the run
            code, payload, error = None, None, traceback.format_exc(limit=3)
        c1, w1 = time.process_time_ns(), time.perf_counter_ns()
        if tracer is not None:
            tracer.end_op(op["cells"])
        if payload is not None:
            path.write_bytes(workloads.to_bytes(payload))
        records.append({"index": index, "wall_ns": w1 - w0, "cpu_ns": c1 - c0, "cal_ns": cal,
                        "code": code, "path": str(path), "error": error})
        index += 1
        if count is not None:
            if index >= start + count:
                break
        elif index % round_len == 0 and time.perf_counter_ns() - begin >= seconds * 1e9:
            break
    return records


def scaled_wall(records) -> float:
    factors = workloads.speed_factors([r["cal_ns"] for r in records])
    return sum(r["wall_ns"] * f for r, f in zip(records, factors))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("cold", "timed", "traced"))
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-ops", type=int, default=None)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)

    if args.mode == "cold":
        (record,) = run_ops(args.workload, args.seed, outdir, "cold", count=1)
        if record["error"]:
            print(record["error"], file=sys.stderr)
            return 1
        print("ready", flush=True)
        return 0

    import bosonic_mac
    import numpy

    result = {"file": bosonic_mac.__file__, "backend": bosonic_mac.BACKEND,
              "numpy": numpy.__version__}
    # Warm: lazy set-up finishes before timing; set-up time is measured
    # separately from cold processes.
    run_ops(args.workload, args.seed, outdir, "warm", count=1)
    if args.mode == "timed":
        wait0 = run_queue_wait_ns()
        result["ops"] = run_ops(args.workload, args.seed, outdir, "op",
                                seconds=args.seconds, count=args.max_ops)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["sched_wait_ns"] = run_queue_wait_ns() - wait0
    else:
        import tracer as tracing

        # Blocks of ops run untraced and then traced, so both passes see the
        # same phases of a shared machine.
        block = args.max_ops or workloads.ROUND[args.workload] * TRACE_BLOCK_ROUNDS
        tracer = tracing.Tracer()
        plain, traced, wait_ns = [], [], 0
        begin = time.perf_counter_ns()
        while not plain or (args.max_ops is None
                            and time.perf_counter_ns() - begin < args.seconds * 1e9):
            start = len(plain)
            plain += run_ops(args.workload, args.seed, outdir, "plain", count=block, start=start)
            tracer.install()
            wait0 = run_queue_wait_ns()
            try:
                traced += run_ops(args.workload, args.seed, outdir, "traced", count=block,
                                  tracer=tracer, start=start)
            finally:
                wait_ns += run_queue_wait_ns() - wait0
                tracer.uninstall()
        result.update({
            "ops": plain + traced,
            "overhead_ratio": scaled_wall(traced) / scaled_wall(plain),
            "layers": tracing.layer_metrics(tracer.ops),
            "layer_self_ms": tracing.layer_self_ms(tracer.ops),
            "traced_op_ms": sum(op["wall_ns"] for op in tracer.ops) * 1e-6 / len(tracer.ops),
            "spans": tracer.spans,
            "sched_wait_ns": wait_ns,  # during the traced ops
        })
    (outdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
