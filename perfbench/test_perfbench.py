"""Tests of the benchmark harness itself: inputs, tracer, gate and smoke runs.

    python3 -m pytest perfbench -q
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_inputs_depend_only_on_workload_seed_and_index():
    for workload in workloads.WORKLOADS:
        assert workloads.spec(workload, 5, 3) == workloads.spec(workload, 5, 3)
        assert workloads.spec(workload, 5, 3) != workloads.spec(workload, 6, 3)
    assert workloads.HELD_OUT_SEED != workloads.DEFAULT_SEED


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(40)))[0] == 75.0
    assert run.tail(list(range(199)))[0] == 75.0
    assert run.tail(list(range(200)))[0] == 95.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.percentile([1.0, 2.0, 3.0], 50.0) == 2.0


def test_importtime_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1573 |     132238 |     numpy\n"
            "import time:       515 |     173890 | bosonic_mac\n")
    assert run.parse_importtime(text) == {"numpy": 132238, "bosonic_mac": 173890}


def _output(workload: str, index: int, tmp_path) -> tuple:
    op = workloads.spec(workload, workloads.DEFAULT_SEED, index)
    path = tmp_path / f"op{index}"
    code, payload = workloads.execute(op, str(path))
    data = workloads.to_bytes(payload) if payload is not None else path.read_bytes()
    return op, code, data


@pytest.mark.parametrize("workload,index", [
    ("cli-session", 0), ("cli-session", 5), ("surface-grid", 0), ("point-mix", 0),
])
def test_gate_fails_an_op_when_one_output_byte_changes(workload, index, tmp_path):
    import bosonic_mac
    import numpy

    golden = gate.load_golden(run.versions(bosonic_mac, numpy))
    if golden is None:
        pytest.skip("golden hashes were recorded under other versions")
    seed = workloads.DEFAULT_SEED
    op, code, data = _output(workload, index, tmp_path)
    assert gate.check_op(workload, seed, op, data, code, golden) == []
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0x01
    assert gate.check_op(workload, seed, op, bytes(flipped), code, golden)


def test_invariants_catch_a_truncated_number(tmp_path):
    op, code, data = _output("cli-session", 4, tmp_path)  # surface CSV
    assert gate.check_op("cli-session", 1, op, data, code, None) == []
    rows = data.decode().split("\n")
    cells = rows[1].split(",")
    cells[4] = format(float(cells[4]), ".6g")
    rows[1] = ",".join(cells)
    assert gate.check_op("cli-session", 1, op, "\n".join(rows).encode(), code, None)


def test_tracer_self_times_account_for_the_op(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload, index in (("surface-grid", 6), ("surface-grid", 0), ("point-mix", 0)):
            op = workloads.spec(workload, 1, index)
            tracer.begin_op(index)
            workloads.execute(op, str(tmp_path / "out"))
            tracer.end_op(op["cells"])
    finally:
        tracer.uninstall()
    for op in tracer.ops:
        assert sum(cell[tracing.SELF] for cell in op["acc"].values()) == op["wall_ns"]
    layers = tracing.layer_metrics(tracer.ops)
    names = {"cli.parse_ms", "region.global_constraint_scan.self_ms", "network.propagate_ms",
             "verification.covariance_oracle_ms", "asymptotics.ms", "search.evals_per_optimize"}
    assert names <= set(layers)
    assert layers["kernels.rate_triple.calls"] > 0 and layers["network.propagate.calls"] > 0
    spans = {s[1] for s in tracer.spans}
    assert {"cli.main", "region.squeeze_surface", "region.global_constraint_scan"} <= spans

    from bosonic_mac import _kernels, region
    assert region.kernels.rate_triple is _kernels.impl.rate_triple
    assert "__post_init__" in region.PhotonBudget.__dict__


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "point-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_backends(tmp_path):
    import compare

    record = {"workload": "point-mix", "trace": 0,
              "provenance": {"backend": "python", "numpy": "2.4.6"}, "metrics": {}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    record["provenance"]["backend"] = "cython"
    (tmp_path / "b.json").write_text(json.dumps(record))
    assert compare.main(["--base", str(tmp_path / "a.json"), "--new", str(tmp_path / "b.json")]) == 2
