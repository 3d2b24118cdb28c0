"""Process-parallel execution: sweep grids, artifact waves and experiment fan-out.

Three fan-out shapes live here:

* :func:`parallel_sweep` -- the engine behind
  ``repro.analysis.parameter_sweep(jobs=N)``: the Cartesian grid is mapped
  over a worker pool and the records are assembled **in grid order**, so
  the output is byte-identical to a serial sweep regardless of worker
  completion order.  Determinism inside each evaluation is the caller's
  contract (seeds travel in the parameters).

* :func:`produce_artifacts` -- computes missing sub-experiment artifacts
  (one worker per unit) and persists them into the content-addressed
  :class:`~repro.runner.artifacts.ArtifactStore`; the service calls it once
  per topological wave of the producer/consumer DAG.

* :func:`execute_requests` -- runs ``(experiment, canonical config)``
  requests, one worker process each, used by the runner service and the CLI
  for ``--jobs N``.

All three run through one fault-tolerant engine governed by an
:class:`ExecutionPolicy`:

* **timeouts** -- each unit gets a wall-clock budget; a hung worker is
  killed with its pool and the unit is retried on a fresh pool;
* **bounded retries** -- *retryable* failures (worker crash /
  ``BrokenProcessPool`` / unit timeout) are retried with exponential
  backoff plus deterministic jitter; driver exceptions are not retryable
  and propagate immediately;
* **pool respawn** -- a broken pool is torn down and respawned (bounded
  by ``pool_respawns``); completed units are never recomputed, so a
  recovered batch stays bit-identical to a clean one;
* **graceful degradation** -- when the pool is irrecoverable (respawn
  budget spent, or the pool cannot even be created) the remaining units
  run serially in-process rather than abandoning the batch.

Every pool worker also gets a BLAS thread budget: a forked worker inherits
numpy's OpenBLAS already initialised with one thread per core, so ``N``
workers would otherwise run ``N x cores`` BLAS threads on ``cores`` cores.
The pool initializer caps each worker at ``max(1, cpus // workers)``
threads (never above the parent's own count) through the OpenBLAS symbols
the process has mapped; the parent and every in-process path keep theirs.
A warm launch never imports numpy or a driver, so before a pool is created
the parent imports the modules of the units it hands out (producers,
drivers): workers fork with them -- and the BLAS the budget caps -- already
loaded, instead of each importing them unbudgeted.

Exhausted budgets surface as :class:`~repro.runner.errors.WorkerCrashError`
(code ``worker_crashed``) or :class:`~repro.runner.errors.UnitTimeoutError`
(code ``unit_timeout``) -- never as a raw ``BrokenProcessPool``.

Callables shipped to workers must be picklable, i.e. module-level.
"""

from __future__ import annotations

import ctypes
import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..analysis.sweep import SweepResult, sweep_grid
from ..faults import fault_point
from .backends import backoff_delay
from .errors import UnitTimeoutError, WorkerCrashError

if TYPE_CHECKING:
    from .store import StoreStats

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs of the execution engine.

    ``timeout`` is per-unit wall-clock seconds (``None`` = unbounded);
    ``retries`` bounds how often one unit may be re-attempted after a
    *retryable* failure (crash/timeout); ``pool_respawns`` bounds how many
    broken/hung pools are replaced before the engine degrades to serial
    in-process execution.  ``oversubscribe`` skips the CPU-count clamp on
    worker fan-out -- chaos tests need real worker processes even on a
    1-core box, where the clamp would silently fall back to the serial
    path (which cannot crash or hang a worker).
    """

    timeout: float | None = None
    retries: int = 2
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    pool_respawns: int = 3
    oversubscribe: bool = False

    def with_overrides(
        self, *, timeout: float | None = None, retries: int | None = None
    ) -> "ExecutionPolicy":
        """This policy with CLI/API-level overrides applied (None = keep)."""
        updated = self
        if timeout is not None:
            updated = replace(updated, timeout=timeout)
        if retries is not None:
            updated = replace(updated, retries=retries)
        return updated


#: The policy every entry point uses unless the caller overrides it.
DEFAULT_POLICY = ExecutionPolicy()


@dataclass
class ExecutionOutcome:
    """Recovery telemetry of one engine invocation (accumulates across calls).

    ``retries`` counts re-attempted units, ``crashes``/``timeouts`` the
    triggering failures, ``respawns`` replaced pools, and ``degraded`` is
    set when the engine fell back to serial in-process execution.
    ``blas_unbudgeted`` counts pooled batches whose workers kept their
    inherited BLAS thread count because no OpenBLAS thread control was
    found (another BLAS, or a platform without ``/proc/self/maps``).
    """

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    respawns: int = 0
    degraded: bool = False
    blas_unbudgeted: int = 0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _worker_count(jobs: int, tasks: int, *, oversubscribe: bool = False) -> int:
    """Workers actually spawned: never more than tasks or available CPUs.

    Oversubscribing a small machine makes things *slower* -- concurrent
    producers thrash the caches (the precision-search workloads stream
    hundred-megabyte weight matrices) -- so ``--jobs 4`` on a 1-core box
    degrades to the serial in-process path while multi-core machines get
    the full fan-out.  ``oversubscribe`` (or ``$REPRO_EXECUTOR_OVERSUBSCRIBE``)
    lifts the CPU clamp for fault-injection runs that need real workers.
    """
    if oversubscribe or os.environ.get("REPRO_EXECUTOR_OVERSUBSCRIBE"):
        return min(jobs, tasks)
    return min(jobs, tasks, _available_cpus())


#: OpenBLAS thread-count (setter, getter) symbols, tried in this order: the
#: suffixed build numpy/scipy wheels bundle, a 64-bit-integer build, a
#: classic build.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _blas_thread_control() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """``(set, get)`` of the mapped OpenBLAS's thread count, or ``None``.

    Only a library the process has already mapped is considered (found in
    ``/proc/self/maps``): loading one here would not be the BLAS numpy
    uses.  ``OPENBLAS_NUM_THREADS`` is no alternative for forked workers --
    the library read it when the parent initialised it.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    # Each mapped segment is one line ending in the library's path.
    paths = dict.fromkeys(
        entry[5].strip() for entry in fields if len(entry) == 6 and "openblas" in entry[5].lower()
    )
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter_name, getter_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(library, setter_name) and hasattr(library, getter_name):
                setter, getter = getattr(library, setter_name), getattr(library, getter_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def blas_threads() -> int | None:
    """This process's OpenBLAS thread count (``None`` = no control found)."""
    control = _blas_thread_control()
    return None if control is None else control[1]()


def _budget_worker_blas(threads: int) -> None:
    """Pool-worker initializer: cap this worker's BLAS threads.

    Never raises -- an initializer exception would break the pool and
    surface as ``worker_crashed``; a worker without the budget is only
    slower.
    """
    try:
        control = _blas_thread_control()
        if control is not None:
            control[0](threads)
    except Exception:
        logger.warning("could not set this worker's BLAS thread count", exc_info=True)


#: Whether this process has already logged a missing BLAS thread control.
_blas_miss_logged = False


def _worker_blas_budget(workers: int, outcome: ExecutionOutcome) -> int | None:
    """Threads each of ``workers`` pool workers may use (``None`` = no control).

    A miss is counted in ``outcome`` for every pooled batch and logged once
    per process.
    """
    global _blas_miss_logged
    control = _blas_thread_control()
    if control is None:
        outcome.blas_unbudgeted += 1
        if not _blas_miss_logged:
            _blas_miss_logged = True
            logger.warning(
                "no OpenBLAS thread control found; %d pool workers keep the "
                "inherited BLAS thread count and may oversubscribe the cores",
                workers,
            )
        return None
    return max(1, min(_available_cpus() // workers, control[1]()))


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are hung or already dead.

    ``shutdown`` alone would block forever behind a hung worker, so the
    worker processes are terminated explicitly (the private ``_processes``
    map is stable across CPython 3.8-3.13 and guarded here regardless).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already reaped
            pass


class _ResilientRun:
    """State machine for one fault-tolerant batch over a worker pool."""

    def __init__(
        self,
        tasks: list,
        worker: Callable,
        *,
        workers: int,
        policy: ExecutionPolicy,
        outcome: ExecutionOutcome,
        label: str,
        serial_worker: Callable | None = None,
    ):
        self.tasks = tasks
        self.worker = worker
        self.serial_worker = serial_worker if serial_worker is not None else worker
        self.workers = workers
        self.policy = policy
        self.outcome = outcome
        self.label = label
        self.results: list = [None] * len(tasks)
        self.done = [False] * len(tasks)
        self.attempts = [0] * len(tasks)
        self.queue: deque[int] = deque(range(len(tasks)))
        self.in_flight: dict[Future, tuple[int, float]] = {}
        self.pool: ProcessPoolExecutor | None = None
        self.respawns_left = policy.pool_respawns

    # -- failure handling ---------------------------------------------------------

    def _requeue(self, index: int, *, reason: str, penalize: bool) -> None:
        """Put a unit back on the queue; raise the typed error when exhausted."""
        if penalize:
            self.attempts[index] += 1
            if self.attempts[index] > self.policy.retries:
                detail = f"{self.label}[{index}] failed {self.attempts[index]} attempt(s)"
                if reason == "unit_timeout":
                    raise UnitTimeoutError(
                        f"{detail}: exceeded the {self.policy.timeout:g}s unit timeout each time"
                    )
                raise WorkerCrashError(
                    f"{detail}: the worker process died each time (retries exhausted)"
                )
            self.outcome.retries += 1
        self.queue.append(index)

    def _replace_pool(self, *, seed: str, attempt: int) -> bool:
        """Tear down + account for a dead pool; ``False`` = budget spent."""
        if self.pool is not None:
            _teardown_pool(self.pool)
            self.pool = None
        self.respawns_left -= 1
        if self.respawns_left < 0:
            return False
        self.outcome.respawns += 1
        time.sleep(
            backoff_delay(seed, attempt, self.policy.backoff_seconds, self.policy.backoff_cap_seconds)
        )
        return True

    def _on_crash(self, victims: list[int]) -> None:
        """A worker died: the whole pool is broken, every in-flight unit with it."""
        self.outcome.crashes += 1
        for index in victims:
            self._requeue(index, reason="worker_crashed", penalize=True)
        for _future, (index, _start) in list(self.in_flight.items()):
            # Innocent bystanders of the broken pool: retried without
            # spending their own retry budget.
            self.queue.appendleft(index)
        self.in_flight.clear()
        if not self._replace_pool(seed=f"{self.label}:crash", attempt=max(self.attempts) or 1):
            self._degrade()

    def _on_timeouts(self, expired: list[int]) -> None:
        """Units blew their wall-clock budget: kill the pool, retry them."""
        self.outcome.timeouts += len(expired)
        for index in expired:
            self._requeue(index, reason="unit_timeout", penalize=True)
        for _future, (index, _start) in list(self.in_flight.items()):
            self.queue.appendleft(index)
        self.in_flight.clear()
        if not self._replace_pool(seed=f"{self.label}:timeout", attempt=max(self.attempts) or 1):
            self._degrade()

    def _degrade(self) -> None:
        """The pool is irrecoverable: finish the batch serially in-process."""
        self.outcome.degraded = True
        self.queue.clear()
        for index in range(len(self.tasks)):
            if not self.done[index]:
                self.results[index] = self.serial_worker(self.tasks[index])
                self.done[index] = True

    # -- main loop ----------------------------------------------------------------

    def _submit_window(self) -> bool:
        """Keep at most ``workers`` units in flight; ``False`` on a broken pool.

        Bounding in-flight work to the worker count means a submitted
        future starts (almost) immediately, so its submit stamp is an
        honest start-of-execution stamp for the timeout check.
        """
        while self.queue and len(self.in_flight) < self.workers:
            index = self.queue.popleft()
            try:
                future = self.pool.submit(self.worker, self.tasks[index])
            except (BrokenProcessPool, RuntimeError):
                self.queue.appendleft(index)
                return False
            self.in_flight[future] = (index, time.monotonic())
        return True

    def _wait_timeout(self) -> float | None:
        if self.policy.timeout is None or not self.in_flight:
            return None
        now = time.monotonic()
        deadlines = [start + self.policy.timeout for _index, start in self.in_flight.values()]
        return max(0.0, min(deadlines) - now)

    def run(self) -> list:
        worker_threads = _worker_blas_budget(self.workers, self.outcome)
        try:
            while self.queue or self.in_flight:
                if self.pool is None:
                    try:
                        fault_point("executor.pool", key=self.label)
                        self.pool = ProcessPoolExecutor(
                            max_workers=self.workers,
                            initializer=None if worker_threads is None else _budget_worker_blas,
                            initargs=(worker_threads,),
                        )
                    except Exception:
                        # The environment cannot even spawn workers (fd/PID
                        # exhaustion, injected spawn fault): degrade rather
                        # than abandon the batch.
                        self._degrade()
                        break
                if not self._submit_window():
                    self._on_crash(victims=[])
                    continue
                finished, _pending = wait(
                    set(self.in_flight), timeout=self._wait_timeout(), return_when=FIRST_COMPLETED
                )
                crash_victims: list[int] = []
                for future in finished:
                    index, _start = self.in_flight.pop(future)
                    try:
                        self.results[index] = future.result()
                        self.done[index] = True
                    except BrokenProcessPool:
                        crash_victims.append(index)
                if crash_victims:
                    self._on_crash(crash_victims)
                    continue
                if self.policy.timeout is not None and self.in_flight:
                    now = time.monotonic()
                    expired = []
                    for future, (index, start) in list(self.in_flight.items()):
                        if now - start >= self.policy.timeout:
                            del self.in_flight[future]
                            expired.append(index)
                    if expired:
                        self._on_timeouts(expired)
            return self.results
        finally:
            if self.pool is not None:
                _teardown_pool(self.pool)


def _run_resilient(
    tasks: list,
    worker: Callable,
    *,
    jobs: int | None,
    policy: ExecutionPolicy | None,
    outcome: ExecutionOutcome | None,
    label: str,
    serial_worker: Callable | None = None,
    preload: Callable[[], object] | None = None,
) -> list:
    """Run ``worker`` over ``tasks`` under the fault-tolerance policy.

    Results come back in task order.  ``serial_worker`` (when given) is
    used on the in-process paths -- the ``jobs<=1`` fast path and the
    degraded tail -- and may close over unpicklable state (the injected
    registry); the pooled path always ships the module-level ``worker``.
    ``preload`` (when given) imports what the units need; it runs in the
    parent before the pool forks, so every worker inherits it.
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    outcome = outcome if outcome is not None else ExecutionOutcome()
    inline = serial_worker if serial_worker is not None else worker
    workers = _worker_count(jobs or 1, len(tasks), oversubscribe=policy.oversubscribe)
    if workers <= 1:
        # Serial in-process execution: no worker to crash and no safe way
        # to preempt ourselves, so timeouts/retries do not apply here.
        return [inline(task) for task in tasks]
    if preload is not None:
        preload()
    run = _ResilientRun(
        tasks,
        worker,
        workers=workers,
        policy=policy,
        outcome=outcome,
        label=label,
        serial_worker=serial_worker,
    )
    return run.run()


def _evaluate_combination(
    task: tuple[Callable[..., Mapping[str, object]], dict[str, object]],
) -> dict[str, object]:
    evaluate, assignment = task
    fault_point(
        "executor.sweep", key=",".join(f"{key}={value}" for key, value in assignment.items())
    )
    return dict(evaluate(**assignment))


def parallel_sweep(
    parameters: Mapping[str, Iterable[object]],
    evaluate: Callable[..., Mapping[str, object]],
    *,
    jobs: int | None = None,
    policy: ExecutionPolicy | None = None,
    outcome: ExecutionOutcome | None = None,
) -> SweepResult:
    """Cartesian sweep with the grid fanned out over worker processes.

    ``jobs`` of ``None``/``0``/``1`` runs serially in-process (identical to
    the classic ``parameter_sweep`` loop); records always come back in
    deterministic grid order.
    """
    assignments = sweep_grid(parameters)
    tasks = [(evaluate, assignment) for assignment in assignments]
    outcomes = _run_resilient(
        tasks, _evaluate_combination, jobs=jobs, policy=policy, outcome=outcome, label="sweep"
    )
    records = [
        {**assignment, **outcome} for assignment, outcome in zip(assignments, outcomes)
    ]
    return SweepResult(records=records)


def _build_artifact_store(store_root: str, store_url: str | None):
    """Rebuild a worker's artifact store: tiered onto ``store_url`` when set.

    The netstore import stays inside this function (and this module) so
    the networked backend never enters the drivers' static import closure
    -- driver fingerprints are identical with and without a shared store.
    """
    from .artifacts import ArtifactStore

    if store_url is None:
        return ArtifactStore(store_root)
    from .netstore import ARTIFACT_SUBROOT, make_store_backend

    return ArtifactStore(
        backend=make_store_backend(store_root, store_url, subroot=ARTIFACT_SUBROOT)
    )


def _produce_artifact(
    task: tuple[str, str, dict[str, object], str, str, str, str | None],
) -> tuple[str, float, StoreStats]:
    """Worker body: compute one artifact unit and persist it into the store.

    The store is activated around the producer call so producers that
    themselves resolve earlier-wave artifacts (``after`` dependencies) hit
    the entries those waves already wrote.  The worker store's drained
    counters (claims, claim waits, corruption, evictions, remote traffic)
    travel back with the result so the parent can fold them into the
    persisted stats.
    """
    from .artifacts import load_producer, produce_into

    artifact, producer_path, params, key, fingerprint, store_root, store_url = task
    fault_point("executor.artifact", key=artifact)
    store = _build_artifact_store(store_root, store_url)
    entry = produce_into(
        store,
        artifact,
        params,
        load_producer(producer_path),
        key=key,
        fingerprint=fingerprint,
    )
    return key, entry.elapsed_seconds, store.drain_stats()


def produce_artifacts(
    tasks: list[tuple[str, str, dict[str, object], str, str, str, str | None]],
    *,
    jobs: int | None = None,
    policy: ExecutionPolicy | None = None,
    outcome: ExecutionOutcome | None = None,
) -> list[tuple[str, float, StoreStats]]:
    """Produce artifact units (optionally in parallel); results in input order.

    Each task is ``(artifact, producer path, params, key, fingerprint,
    store root, store url)``.  Units inside one call must be independent --
    the service slices the DAG into topological waves and makes one call
    per wave.  Units that already persisted their entry before a crash are
    naturally skipped on retry (the store is content-addressed), so a
    recovered wave never recomputes finished work.
    """
    from .artifacts import load_producer

    return _run_resilient(
        tasks,
        _produce_artifact,
        jobs=jobs,
        policy=policy,
        outcome=outcome,
        label="artifact",
        preload=lambda: [load_producer(task[1]) for task in tasks],
    )


def _execute_request(
    task: tuple[str, dict[str, object], str | None, str | None],
    registry: Mapping[str, object] | None = None,
) -> tuple[list[dict[str, object]], float]:
    """Worker body: run one experiment with a canonical config.

    Imports happen here (inside the worker) so spawned processes build their
    own module state; rows are sanitised before crossing the process
    boundary so the parent sees exactly what the cache would store.  The
    artifact store root (``None`` = reuse disabled) is activated around the
    run so driver resolvers load the pre-produced intermediates; with a
    store URL the store tiers onto the shared networked one.
    """
    from .artifacts import activated
    from .registry import build_registry

    name, config, artifacts_root, store_url = task
    fault_point("executor.unit", key=name)
    spec = (registry if registry is not None else build_registry())[name]
    store = (
        _build_artifact_store(artifacts_root, store_url) if artifacts_root is not None else None
    )
    with activated(store):
        start = time.perf_counter()
        rows = spec.execute(config)
        elapsed = time.perf_counter() - start
    return SweepResult(records=rows).to_jsonable(), elapsed


def execute_requests(
    requests: list[tuple[str, dict[str, object]]],
    *,
    jobs: int | None = None,
    artifacts_root: str | None = None,
    registry: Mapping[str, object] | None = None,
    policy: ExecutionPolicy | None = None,
    outcome: ExecutionOutcome | None = None,
    store_url: str | None = None,
) -> list[tuple[list[dict[str, object]], float]]:
    """Run experiment requests, optionally in parallel; results in input order.

    ``registry`` (when given) resolves specs on the inline path, so runners
    with injected registries (tests, embedders) can execute experiments that
    ``build_registry`` does not know about.  Worker processes always rebuild
    the canonical registry -- custom specs are not shipped across the
    process boundary.
    """
    from .registry import build_registry

    def import_drivers() -> None:
        specs = registry if registry is not None else build_registry()
        for name, _config in requests:
            specs[name].module  # imports (and checks) the driver

    tasks = [(name, config, artifacts_root, store_url) for name, config in requests]
    return _run_resilient(
        tasks,
        _execute_request,
        jobs=jobs,
        policy=policy,
        outcome=outcome,
        label="experiment",
        serial_worker=lambda task: _execute_request(task, registry),
        preload=import_drivers,
    )
