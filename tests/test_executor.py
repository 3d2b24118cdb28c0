"""BLAS thread budget of the executor's pool workers.

A forked worker inherits numpy's OpenBLAS with one thread per core, so the
pool initializer caps each worker at ``max(1, cpus // workers)`` threads.
These tests read the count back from inside real workers, check that the
parent and the in-process paths keep theirs, and force the two fallbacks:
no thread control found (counted and logged, rows unchanged) and a worker
killed mid-batch (the respawned pool is budgeted too).
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.faults import injected
from repro.runner import executor
from repro.runner.cache import ResultCache
from repro.runner.executor import (
    ExecutionOutcome,
    ExecutionPolicy,
    blas_threads,
    parallel_sweep,
)
from repro.runner.service import ExperimentRunner

GRID = {"x": [1, 2, 3, 4]}

#: Real worker processes even on a 1-core box, where the CPU clamp would
#: route everything through the serial in-process path.
POOLED = ExecutionPolicy(oversubscribe=True, retries=3)


def _report_threads(x: int) -> dict[str, object]:
    return {"square": x * x, "threads": blas_threads(), "pid": os.getpid()}


def _square(x: int) -> dict[str, object]:
    return {"square": x * x}


def _expected_budget(workers: int, parent: int) -> int:
    return max(1, min(len(os.sched_getaffinity(0)) // workers, parent))


@pytest.fixture
def parent_threads() -> int:
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against an OpenBLAS with a thread control")
    return threads


@pytest.fixture
def forced_miss(monkeypatch):
    """No BLAS thread control anywhere: forked workers inherit the patch."""
    monkeypatch.setattr(executor, "_blas_thread_control", lambda: None)
    monkeypatch.setattr(executor, "_blas_miss_logged", False)


class TestWorkerBudget:
    def test_pooled_workers_get_cpus_over_workers(self, parent_threads):
        outcome = ExecutionOutcome()
        records = parallel_sweep(GRID, _report_threads, jobs=2, policy=POOLED, outcome=outcome).records
        assert os.getpid() not in {record["pid"] for record in records}
        assert {record["threads"] for record in records} == {_expected_budget(2, parent_threads)}
        assert outcome.blas_unbudgeted == 0
        # The parent keeps its own count.
        assert blas_threads() == parent_threads

    def test_inline_path_keeps_the_parent_count(self, parent_threads):
        records = parallel_sweep(GRID, _report_threads, jobs=1).records
        assert {record["threads"] for record in records} == {parent_threads}

    def test_killed_worker_recovers_byte_identical_on_a_budgeted_pool(
        self, tmp_path, parent_threads
    ):
        clean = parallel_sweep(GRID, _square, jobs=1).records
        outcome = ExecutionOutcome()
        with injected("executor.sweep:kill:match=x=3", state_dir=tmp_path / "state"):
            records = parallel_sweep(
                GRID, _report_threads, jobs=2, policy=POOLED, outcome=outcome
            ).records
        assert outcome.crashes >= 1 and outcome.respawns >= 1
        assert outcome.degraded is False
        squares = [{"x": record["x"], "square": record["square"]} for record in records]
        assert json.dumps(squares) == json.dumps(clean)
        assert {record["threads"] for record in records} == {_expected_budget(2, parent_threads)}
        assert blas_threads() == parent_threads

    def test_initializer_never_raises(self, monkeypatch):
        def broken():
            raise OSError("no maps")

        monkeypatch.setattr(executor, "_blas_thread_control", broken)
        assert executor._budget_worker_blas(1) is None


class TestMissingControl:
    def test_pooled_runs_complete_with_identical_records(self, forced_miss, caplog):
        clean = parallel_sweep(GRID, _square, jobs=1).records
        outcome = ExecutionOutcome()
        with caplog.at_level(logging.WARNING, logger=executor.__name__):
            first = parallel_sweep(GRID, _square, jobs=2, policy=POOLED, outcome=outcome)
            second = parallel_sweep(GRID, _square, jobs=2, policy=POOLED, outcome=outcome)
        assert json.dumps(first.records) == json.dumps(clean)
        assert json.dumps(second.records) == json.dumps(clean)
        # Counted for every pooled batch, logged once per process.
        assert outcome.blas_unbudgeted == 2
        misses = [record for record in caplog.records if "BLAS thread control" in record.message]
        assert len(misses) == 1

    def test_inline_path_counts_no_miss(self, forced_miss):
        outcome = ExecutionOutcome()
        parallel_sweep(GRID, _square, jobs=1, outcome=outcome)
        assert outcome.blas_unbudgeted == 0

    def test_miss_reaches_the_executed_event(self, forced_miss, tmp_path):
        small = {"input_length": 24, "taps": 5, "simd_widths": (8,)}
        events: list[dict[str, object]] = []
        runner = ExperimentRunner(cache=ResultCache(tmp_path / "cache"))
        runner.run_many(
            [("fig4", dict(small)), ("table2", dict(small))],
            jobs=2,
            policy=POOLED,
            observer=events.append,
        )
        (executed,) = [event for event in events if event["event"] == "executed"]
        assert executed["blas_unbudgeted"] >= 1
        assert executed["crashes"] == 0
