"""Self-test of the benchmark: the correctness gate, fidelity, spans, and a
short-mode smoke run of the one command on every workload.

    python3 -m pytest -q perfbench/tests

The smoke runs take a few minutes (they run the real program).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import common, workloads  # noqa: E402
from perfbench.trace import Tracer, union_length  # noqa: E402

REPORT = {
    "experiment": "table2",
    "config": {"seed": 7},
    "rows": [{"SW": 8, "mode": "1x16b", "P [mW]": 36.0, "P paper [mW]": 36.0}],
    "cached": False,
    "elapsed_seconds": 0.0123,
    "compute_seconds": 0.0123,
    "key": "k",
    "fingerprint": "f",
}


def test_tampered_row_trips_the_gate():
    result = workloads.Result()
    workloads.gate_reports(result, [REPORT], "cold", 1)
    warm = dict(copy.deepcopy(REPORT), cached=True, elapsed_seconds=0.0001)
    workloads.gate_reports(result, [warm], "cold", 1)
    assert result.gate.ok and result.failed == 0 and result.attempted == 2

    tampered = copy.deepcopy(REPORT)
    tampered["rows"][0]["P [mW]"] = 36.1
    workloads.gate_reports(result, [tampered], "cold", 1)
    assert not result.gate.ok
    assert result.gate.mismatches == ["cold.table2"]
    assert (result.attempted, result.failed) == (3, 1)


def test_missing_report_counts_as_failed():
    result = workloads.Result()
    workloads.gate_reports(result, [], "cold", 8)
    assert (result.attempted, result.failed) == (8, 8)


def test_warm_body_mask_keeps_rows():
    body = json.dumps({**REPORT, "request_id": "abc"}).encode()
    other = json.dumps({**REPORT, "elapsed_seconds": 9.5e-05, "request_id": "xyz"}).encode()
    assert common.mask_warm_body(body) == common.mask_warm_body(other)
    tampered = copy.deepcopy(REPORT)
    tampered["rows"][0]["mode"] = "1x8b"
    assert common.mask_warm_body(json.dumps({**tampered, "request_id": "abc"}).encode()) != common.mask_warm_body(body)


def test_paper_fidelity_skips_placeholders():
    rows = {
        "table1": [{"k0": 1.1, "k0 (paper)": 1.0, "N": 2, "N (paper)": 2}],
        "table2": [{"P [mW]": 30.0, "P paper [mW]": 40.0}],
        "table3": [{"P [mW]": "-", "P paper": 26.0, "Eff [TOPS/W]": 3.0, "Eff paper": 2.0}],
    }
    fidelity = common.paper_fidelity(rows)
    assert fidelity["fidelity.table1"] == pytest.approx(0.05)
    assert fidelity["fidelity.table2"] == pytest.approx(0.25)
    assert fidelity["fidelity.table3"] == pytest.approx(0.5)
    assert fidelity["paper_rel_dev"] == pytest.approx((0.1 + 0.0 + 0.25 + 0.5) / 4)


def test_self_time_and_chrome_trace(tmp_path):
    tracer = Tracer("unit")
    root = tracer.add("runner.run_many", 0.0, 10.0)
    tracer.add("runner.wave0", 1.0, 6.0, parent=root)
    child = tracer.add("nn.fc.forward_batch", 2.0, 5.0, parent=root + 1)
    tracer.spans[child].counts["macs"] = 12
    assert tracer.self_times() == pytest.approx({"runner": 7.0, "nn": 3.0})
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["ph"] for event in events] == ["X", "X", "X"]
    assert events[2]["args"]["macs"] == 12 and events[2]["dur"] == pytest.approx(3e6)


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("cold-reproduce", 0), ("warm-cli", 0), ("warm-cli", 1)],
)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}
    line = _run(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == declared
    assert all(isinstance(metric["value"], float) for metric in line["metrics"].values())
