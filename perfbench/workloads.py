"""The workloads, measured untraced.

Every workload reports the same end-to-end metrics (see ``README.md`` for
what each one means on each workload):

``setup_s``           median of ``SETUP_REPEATS`` set-ups
``success_ratio``     operations that succeeded over operations attempted
``paper_rel_dev``     mean relative deviation from the paper's own columns
``peak_rss_mb``       peak resident memory of the program's processes
``p50_ms``/``tail_ms`` the workload's user-visible operation latency
``throughput_per_s``  the operation rate the program sustains
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import common
from .common import (
    NPROC,
    BenchError,
    Gate,
    canonical,
    child_env,
    fresh_dir,
    mask_warm_body,
    median,
    percentile,
    python_child,
    repro_cli,
    report_identity,
    run_child,
)

SETUP_REPEATS = 3

#: Tail percentile of each workload's ``tail_ms`` (it leaves >= 10 launches
#: beyond it at the default run length; cold-reproduce has too few samples
#: for any percentile, so its tail is the slowest reproduction).
TAIL_Q = {"cold-reproduce": 100.0, "warm-cli": 60.0}


@dataclass
class Result:
    """What one workload run measured and whether its outputs were right."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate: Gate = field(default_factory=Gate)
    details: dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _fidelity_rows(reports: dict[str, dict[str, object]]) -> dict[str, list]:
    return {name: reports[name]["rows"] for name in common.PAPER_PAIRS}


# -- cold-reproduce -----------------------------------------------------------------


def cold_reproduction(work: Path, seed: int, jobs: int, *, trace: bool = False) -> tuple[common.ChildResult, dict]:
    """One cold ``run_many`` in a fresh process on an empty cache directory."""
    cache = fresh_dir(work / f"cold-jobs{jobs}")
    out = work / f"cold-jobs{jobs}.json"
    argv = python_child("cold", "--seed", str(seed), "--jobs", str(jobs), "--cache-dir", str(cache), "--out", str(out))
    if trace:
        argv.append("--trace")
    child = run_child(argv, env=child_env(work), work=work)
    document = json.loads(out.read_text()) if child.returncode == 0 else {"reports": []}
    return child, document


def gate_reports(result: Result, reports: list[dict[str, object]], label: str, expected: int) -> None:
    """Count one operation per expected report; identity-compare each."""
    for report in reports:
        result.count(result.gate.observe(f"{label}.{report['experiment']}", canonical(report_identity(report))))
    for _missing in range(expected - len(reports)):
        result.count(False)


def cold_reproduce(work: Path, seed: int, seconds: float) -> Result:
    result = Result()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup = fresh_dir(work / "setup")
        common.prepare_sources(setup)
        # Pull the import closure into the page cache, so no measured
        # reproduction pays for first-touch reads.
        run_child([sys.executable, "-c", "import repro.api"], env=child_env(setup), work=setup).check()
        setups.append(time.perf_counter() - start)
    walls: dict[int, list[float]] = {1: [], NPROC: []}
    peaks: list[float] = []
    reference: dict[str, dict[str, object]] = {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not walls[1]:
        iteration_peak = 0.0
        for jobs in (1, NPROC):
            child, document = cold_reproduction(work, seed, jobs)
            walls[jobs].append(child.wall_s)
            iteration_peak = max(iteration_peak, child.maxrss_mb)
            gate_reports(result, document["reports"], "cold", 8)
            reference = reference or {report["experiment"]: report for report in document["reports"]}
        peaks.append(iteration_peak)
    if not reference:
        raise BenchError("no cold reproduction completed")
    fidelity = common.paper_fidelity(_fidelity_rows(reference))
    result.add("setup_s", median(setups), "s")
    result.add("paper_rel_dev", fidelity["paper_rel_dev"], "ratio")
    result.add("peak_rss_mb", median(peaks), "MB")
    result.add("p50_ms", median(walls[1]) * 1e3, "ms")
    result.add("tail_ms", percentile(walls[1], TAIL_Q["cold-reproduce"]) * 1e3, "ms")
    result.add("throughput_per_s", 1.0 / median(walls[NPROC]), "1/s")
    result.details.update(
        {"jobs1_s": walls[1], f"jobs{NPROC}_s": walls[NPROC], "peak_rss_mb": peaks, **fidelity}
    )
    return result


# -- warm-cli -----------------------------------------------------------------------


def warm_cli(work: Path, seed: int, seconds: float) -> Result:
    result = Result()
    setups = []
    reference: dict[str, dict[str, object]] = {}
    cache = work / "cache"
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh_dir(cache)
        child = run_child(
            repro_cli("run", "all", "--jobs", str(NPROC), "--json", "--cache-dir", str(cache)),
            env=child_env(work),
            work=work,
        ).check()
        setups.append(time.perf_counter() - start)
        documents = json.loads(child.stdout)
        gate_reports(result, list(documents.values()), "cold", len(documents))
        reference = reference or documents
    walls, peaks = [], []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        child = run_child(repro_cli("run", "all", "--json", "--cache-dir", str(cache)), env=child_env(work), work=work)
        walls.append(child.wall_s)
        peaks.append(child.maxrss_mb)
        ok = child.returncode == 0 and result.gate.observe("warm-cli.stdout", mask_warm_body(child.stdout))
        if ok:
            documents = json.loads(child.stdout)
            ok = documents.keys() == reference.keys() and all(
                [result.gate.observe(f"cold.{name}", canonical(report_identity(doc))) for name, doc in documents.items()]
            )
        result.count(ok)
    elapsed = time.perf_counter() - started
    fidelity = common.paper_fidelity(_fidelity_rows(reference))
    result.add("setup_s", median(setups), "s")
    result.add("paper_rel_dev", fidelity["paper_rel_dev"], "ratio")
    result.add("peak_rss_mb", median(peaks), "MB")
    result.add("p50_ms", median(walls) * 1e3, "ms")
    result.add("tail_ms", percentile(walls, TAIL_Q["warm-cli"]) * 1e3, "ms")
    result.add("throughput_per_s", len(walls) / elapsed, "1/s")
    result.details.update({"launch_s": walls, "setup_s": setups, **fidelity})
    return result


WORKLOADS = {"cold-reproduce": cold_reproduce, "warm-cli": warm_cli}
