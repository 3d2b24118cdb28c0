"""Shared plumbing of the benchmark: paths, child processes, statistics,
the output-correctness gate, paper fidelity and the environment stamp.

Nothing here imports :mod:`repro`; the program under test always runs in
child interpreters (or, for traced passes, in a child that wraps its
methods), so the benchmark process stays a light client.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Checkout root (the directory holding ``BENCHMARK.json``) and the sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch and output directories inside the checkout (both git-ignored).
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

NPROC = len(os.sched_getaffinity(0))

#: Experiments cheap enough to serve cold over HTTP (no ``nn`` work).
CHEAP_EXPERIMENTS = ("table1", "fig2", "fig3", "fig4", "table2", "table3", "fig8")
#: A child process still running after this is killed (a whole run must end within 180 s).
CHILD_TIMEOUT_S = 170.0
#: How long a stopped server may drain before it is killed.
STOP_GRACE_S = 15.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child crashed)."""


# -- child processes ------------------------------------------------------------


def child_env(work: Path) -> dict[str, str]:
    """Environment of every program process: the caller's, minus ``REPRO_*``.

    ``REPRO_*`` knobs (fault plans, store URLs, cache budgets) would change
    what is measured, so they are dropped; ``TMPDIR`` points inside the
    checkout so nothing is written outside it.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    return env


@dataclass
class ChildResult:
    """Exit status plus the resources a finished child process tree used."""

    argv: list[str]
    returncode: int
    started: float  # time.monotonic() at spawn
    wall_s: float
    cpu_s: float  # user + sys of the child and every descendant it waited for
    maxrss_mb: float  # peak RSS of the largest single process in the tree
    stdout: bytes
    stderr: bytes

    def check(self) -> "ChildResult":
        if self.returncode != 0:
            tail = self.stderr.decode(errors="replace")[-2000:]
            raise BenchError(f"{' '.join(self.argv[:4])} exited {self.returncode}: {tail}")
        return self


def run_child(argv: list[str], *, env: dict[str, str], work: Path) -> ChildResult:
    """Run ``argv`` to completion, timing it from spawn to reap.

    ``os.wait4`` reports the CPU time and peak RSS of the child's whole
    process tree (Linux folds waited-for descendants in), which is how the
    executor's worker processes are accounted.  Output goes to files so a
    chatty child can never block on a full pipe.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=argv,
        returncode=proc.returncode,
        started=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def python_child(*args: str) -> list[str]:
    """``argv`` running ``perfbench/child.py`` with this interpreter."""
    return [sys.executable, str(ROOT / "perfbench" / "child.py"), *args]


def repro_cli(*args: str) -> list[str]:
    """``argv`` of the public command line: ``python -m repro ...``."""
    return [sys.executable, "-m", "repro", *args]


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM, wait for the drain, SIGKILL on overrun; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def raise_priority() -> None:
    """Nice the load generator up (when permitted) so its own scheduling
    delays stay small next to the server it measures."""
    try:
        os.nice(-5)
    except OSError:
        pass


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare_sources(work: Path) -> None:
    """Fail fast outside a checkout; byte-compile so no launch pays for it."""
    if not (SRC / "repro" / "api.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from the root of a checkout")
    run_child(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env=child_env(work),
        work=work,
    ).check()


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


# -- output-correctness gate ----------------------------------------------------


def canonical(document: object) -> bytes:
    """The byte form outputs are compared in (sorted keys, exact floats)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


#: Report fields that legitimately differ between two correct answers: how
#: long *this* answer took, whether it came from the cache, which request.
VOLATILE_REPORT_FIELDS = ("elapsed_seconds", "compute_seconds", "cached", "request_id")


def report_identity(report: dict[str, object]) -> dict[str, object]:
    """A report document minus its volatile fields (rows, config, key, ...)."""
    return {key: value for key, value in report.items() if key not in VOLATILE_REPORT_FIELDS}


class Gate:
    """Byte-identity gate: every output of one name must equal the first.

    ``expect`` pins a reference; ``observe`` compares and counts.  Any
    mismatch fails the run (``ok`` turns false) and is counted as a failed
    operation by the workload that observed it.
    """

    def __init__(self) -> None:
        self.reference: dict[str, bytes] = {}
        self.mismatches: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def expect(self, name: str, payload: bytes) -> None:
        self.reference[name] = payload

    def observe(self, name: str, payload: bytes) -> bool:
        reference = self.reference.setdefault(name, payload)
        if payload == reference:
            return True
        self.mismatches.append(name)
        return False


_MASK_ELAPSED = re.compile(rb'"elapsed_seconds": ?[-0-9.eE+]+')
_MASK_REQUEST_ID = re.compile(rb'"request_id": ?"[^"]*"')


def mask_warm_body(body: bytes) -> bytes:
    """A warm HTTP body with its per-request fields blanked, as raw bytes."""
    return _MASK_REQUEST_ID.sub(b'"request_id":""', _MASK_ELAPSED.sub(b'"elapsed_seconds":0', body))


# -- paper fidelity -------------------------------------------------------------

#: ``(reproduced column, paper column)`` pairs the experiments already emit.
PAPER_PAIRS: dict[str, tuple[tuple[str, str], ...]] = {
    "table1": tuple((name, f"{name} (paper)") for name in ("k0", "k2", "k3", "k4", "N")),
    "table2": (("P [mW]", "P paper [mW]"),),
    "table3": (("P [mW]", "P paper"), ("Eff [TOPS/W]", "Eff paper")),
}


def relative_deviations(experiment: str, rows: list[dict[str, object]]) -> list[float]:
    """|ours - paper| / |paper| per paired cell; ``"-"`` placeholders skipped."""
    deviations = []
    for row in rows:
        for ours_key, paper_key in PAPER_PAIRS[experiment]:
            ours, paper = row.get(ours_key), row.get(paper_key)
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (ours, paper))
            if numeric and paper != 0:
                deviations.append(abs(ours - paper) / abs(paper))
    return deviations


def paper_fidelity(rows_by_experiment: dict[str, list[dict[str, object]]]) -> dict[str, float]:
    """``paper_rel_dev`` (mean over every paired cell) plus per-table means."""
    parts: dict[str, list[float]] = {}
    for experiment in PAPER_PAIRS:
        if experiment not in rows_by_experiment:
            raise BenchError(f"paper fidelity needs {experiment} rows")
        parts[experiment] = relative_deviations(experiment, rows_by_experiment[experiment])
        if not parts[experiment]:
            raise BenchError(f"{experiment} rows carry no paired paper columns")
    pooled = [value for values in parts.values() for value in values]
    result = {"paper_rel_dev": statistics.fmean(pooled)}
    result.update({f"fidelity.{name}": statistics.fmean(values) for name, values in parts.items()})
    return result


# -- environment stamp ----------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment_stamp(work: Path, seed: int) -> dict[str, object]:
    """Where and under what settings a result was measured."""
    loadavg = _read("/proc/loadavg")
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    numpy_probe = run_child(
        [
            sys.executable,
            "-c",
            "import json, numpy; d = numpy.show_config(mode='dicts'); "
            "blas = d.get('Build Dependencies', {}).get('blas', {}); "
            "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'), "
            "'blas_version': blas.get('version')}))",
        ],
        env=child_env(work),
        work=work,
    )
    numpy_info = json.loads(numpy_probe.stdout) if numpy_probe.returncode == 0 else {}
    return {
        "seed": seed,
        "nproc": NPROC,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc_size": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        **numpy_info,
        "thread_env": {key: value for key, value in os.environ.items() if key.endswith("_NUM_THREADS")},
        "loadavg_at_start": loadavg,
    }
