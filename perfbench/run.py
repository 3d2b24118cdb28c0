"""The reproduction's benchmark: one command, two workloads and a traced pass.

    python3 perfbench/run.py --workload cold-reproduce|warm-cli \\
        [--seed 2017] [--seconds 30] [--trace 0|1]

Run it from the root of a checkout.  ``--trace 0`` measures the workload
untraced and prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced pass and prints every per-layer metric, and
writes a Chrome trace (open it in Perfetto) under ``.bench_out/``.  Either
way every output of the program is checked, the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` and the full
result, with its environment stamp, is written under ``.bench_out/``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, traced, workloads  # noqa: E402
from perfbench.common import BenchError  # noqa: E402


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` promises."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload in a scratch directory; the result line and the record."""
    work = common.fresh_dir(common.WORK_ROOT / f"{workload}-{os.getpid()}")
    try:
        common.prepare_sources(work)
        stamp = common.environment_stamp(work, seed)
        trace_path = common.OUT_ROOT / f"trace-{workload}-seed{seed}.json"
        if trace:
            result = traced.traced_pass(work, workload, seed, seconds, trace_path)
        else:
            result = workloads.WORKLOADS[workload](work, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result.attempted:
        raise BenchError("no operation was attempted")
    if not trace:
        result.add("success_ratio", (result.attempted - result.failed) / result.attempted, "ratio")
    declared = declared_metrics(trace)
    emitted = {name: unit for name, (_value, unit) in result.metrics.items()}
    if emitted != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: emitted {sorted(emitted.items() ^ declared.items())}")
    line = {
        "correct": result.gate.ok,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": stamp,
        "mismatches": result.gate.mismatches,
        "details": result.details,
        "result": line,
    }
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the DVAFS reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2017, help="input seed (default 2017, the paper config)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced per-layer pass")
    args = parser.parse_args(argv)
    try:
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"benchmark failed: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    out = common.OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"# environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# full record: {out.relative_to(common.ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
