"""The traced pass: per-layer metrics and a Chrome trace, on any workload.

Per-layer numbers come from outside the program: spans the benchmark's
child wraps around public methods, observer events, stored entries'
``elapsed_seconds``, ``/v1/metrics`` and ``/proc``.  One traced pass
measures every layer (it is the same on every workload), so each traced
run emits every per-layer metric; end-to-end metrics never come from here.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

from . import common, serving, workloads
from .common import NPROC, child_env, median, percentile, run_child
from .loadgen import Client
from .trace import Span, Tracer, union_length
from .serving import HTTP_REFERENCE_RPS, Traffic
from .workloads import Result

#: Layers whose self time is reported (``selftime.<layer>_s``).
LAYERS = ("cli", "runner", "artifacts", "nn", "cache", "fingerprint", "service", "gen")
#: Spans that must cover the traced cold run (interpreter, import, runner phases).
COVERING = ("cli.interpreter", "cli.import", "runner.plan", "runner.wave0", "runner.wave1", "runner.execute")
ARTIFACTS = ("fig6_alexnet_profile", "lenet_state", "fig6_lenet_profile", "multiplier_characterization")
LAUNCH_SAMPLES = 5
#: Alternating traced/untraced cold jobs=1 pairs behind ``trace.overhead_s``.
OVERHEAD_PAIRS = 3
#: Shortest traced serving session: long enough to carry a dozen cold jobs.
SERVE_TRACE_MIN_SECONDS = 5.0


def _subtree(tracer: Tracer, root: int) -> dict[int, Span]:
    """Every span below ``root``, by index."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        children.setdefault(span.parent, []).append(index)
    found: dict[int, Span] = {}
    pending = list(children.get(root, []))
    while pending:
        index = pending.pop()
        found[index] = tracer.spans[index]
        pending.extend(children.get(index, []))
    return found


def _sum(spans: dict[int, Span], name: str) -> tuple[float, int]:
    chosen = [span for span in spans.values() if span.name == name]
    return sum(span.duration for span in chosen), len(chosen)


def _counts(spans: dict[int, Span], name: str, key: str) -> float:
    return sum(span.counts.get(key, 0) for span in spans.values() if span.name == name)


def _adopt_child(tracer: Tracer, name: str, child: common.ChildResult, document: dict) -> int:
    """Root span for a child process: interpreter start, its spans, its exit."""
    root = tracer.add(name, child.started, child.started + child.wall_s)
    tracer.add("cli.interpreter", child.started, document["t_first"], parent=root)
    first = len(tracer.spans)
    tracer.extend(document["spans"], parent=root)
    last_end = max(span.end for span in tracer.spans[first:] if span.parent == root)
    tracer.add("cli.exit", last_end, child.started + child.wall_s, parent=root)
    return root


def _cold_wall(result: Result, work: Path, seed: int, *, trace: bool) -> float:
    """Wall time of one checked cold jobs=1 reproduction."""
    child, document = workloads.cold_reproduction(work, seed, 1, trace=trace)
    child.check()
    workloads.gate_reports(result, document["reports"], "cold", 8)
    return child.wall_s


def trace_cold(result: Result, tracer: Tracer, work: Path, seed: int) -> None:
    """jobs=1 traced (nn + runner + cache), traced/untraced jobs=1 pairs for
    the overhead, jobs=N traced."""
    child, document = workloads.cold_reproduction(work, seed, 1, trace=True)
    child.check()
    workloads.gate_reports(result, document["reports"], "cold", 8)
    root = _adopt_child(tracer, "cold.jobs1", child, document)
    spans = _subtree(tracer, root)
    covered = union_length([(s.start, s.end) for s in spans.values() if s.name in COVERING])
    result.add("trace.cold_coverage", covered / child.wall_s, "ratio")
    result.add("runner.plan_ms", _sum(spans, "runner.plan")[0] * 1e3, "ms")
    for name in ("wave0", "wave1", "execute"):
        result.add(f"runner.{name}_s", _sum(spans, f"runner.{name}")[0], "s")
    produced = {entry["artifact"]: entry["elapsed_seconds"] for entry in document["artifacts"]}
    for artifact in ARTIFACTS:
        result.add(f"artifacts.{artifact}.produce_s", produced[artifact], "s")
    for metric, span_name in (
        ("nn.precision_search.profile", "nn.precision_search.profile"),
        ("nn.conv.forward_batch", "nn.conv.forward_batch"),
        ("nn.fc.forward_batch", "nn.fc.forward_batch"),
    ):
        seconds, calls = _sum(spans, span_name)
        result.add(f"{metric}_s", seconds, "s")
        result.add(f"{metric}_calls", calls, "count")
    result.add("nn.training.fit_s", _sum(spans, "nn.training.fit")[0], "s")
    result.add(
        "nn.macs", _counts(spans, "nn.conv.forward_batch", "macs") + _counts(spans, "nn.fc.forward_batch", "macs"), "count"
    )
    result.add("nn.fc_weight_bytes_read", _counts(spans, "nn.fc.forward_batch", "weight_bytes"), "bytes")
    result.add("cache.put_ms", _sum(spans, "cache.put")[0] * 1e3, "ms")
    result.add("cache.put_bytes", _counts(spans, "cache.put", "bytes"), "bytes")

    # One pair's difference is mostly noise (two untraced jobs=1 runs differ
    # by up to ~1 s here), so the overhead is the median over several pairs.
    overheads = [child.wall_s - _cold_wall(result, work, seed, trace=False)]
    for _pair in range(OVERHEAD_PAIRS - 1):
        overheads.append(_cold_wall(result, work, seed, trace=True) - _cold_wall(result, work, seed, trace=False))
    result.add("trace.overhead_s", median(overheads), "s")
    result.details["trace_overhead_pairs_s"] = overheads

    child, document = workloads.cold_reproduction(work, seed, NPROC, trace=True)
    child.check()
    workloads.gate_reports(result, document["reports"], "cold", 8)
    root = _adopt_child(tracer, f"cold.jobs{NPROC}", child, document)
    spans = _subtree(tracer, root)
    wave0 = next(index for index, span in spans.items() if span.name == "runner.wave0")
    units = [span.duration for span in spans.values() if span.parent == wave0 and span.layer == "artifacts"]
    result.add("executor.critical_path_ratio", tracer.spans[wave0].duration / max(units), "ratio")
    result.add("executor.cpu_util", child.cpu_s / (child.wall_s * NPROC), "ratio")
    for counter in ("retries", "crashes", "timeouts", "degraded"):
        result.add(f"executor.{counter}", float(document["executed"][counter]), "count")


def _launch_median(argv: list[str], work: Path) -> float:
    return median([run_child(argv, env=child_env(work), work=work).check().wall_s for _ in range(LAUNCH_SAMPLES)])


def trace_warm(result: Result, tracer: Tracer, work: Path) -> None:
    """Interpreter and import launches, then a traced in-process ``run all``."""
    interpreter = _launch_median([sys.executable, "-c", "pass"], work)
    result.add("cli.interpreter_ms", interpreter * 1e3, "ms")
    result.add("cli.import_ms", (_launch_median([sys.executable, "-c", "import repro.api"], work) - interpreter) * 1e3, "ms")
    cache = common.fresh_dir(work / "warm-cache")
    prefill = run_child(
        common.repro_cli("run", "all", "--jobs", str(NPROC), "--json", "--cache-dir", str(cache)),
        env=child_env(work),
        work=work,
    ).check()
    workloads.gate_reports(result, list(json.loads(prefill.stdout).values()), "default", 8)
    out = work / "replay.json"
    child = run_child(
        common.python_child("replay", "--cache-dir", str(cache), "--out", str(out)), env=child_env(work), work=work
    ).check()
    document = json.loads(out.read_text())
    workloads.gate_reports(result, list(json.loads(document["stdout"]).values()), "default", 8)
    root = _adopt_child(tracer, "warm.replay", child, document)
    spans = _subtree(tracer, root)
    seconds, calls = _sum(spans, "fingerprint.code_fingerprint")
    result.add("fingerprint.ms", seconds * 1e3, "ms")
    result.add("fingerprint.calls", calls, "count")
    seconds, calls = _sum(spans, "cache.get")
    result.add("cache.get_ms", seconds * 1e3, "ms")
    result.add("cache.get_calls", calls, "count")
    result.add("cache.get_bytes", _counts(spans, "cache.get", "bytes"), "bytes")
    result.add("cli.render_ms", _sum(spans, "cli.render")[0] * 1e3, "ms")


def _histogram_p50(before: dict, after: dict) -> float:
    """Median of the requests between two ``/v1/metrics`` latency snapshots,
    interpolated linearly inside the fixed histogram bucket it falls in."""
    bounds = [0.0]
    counts = []
    for label, count in after["buckets"].items():
        if label == "overflow":
            continue
        bounds.append(float(label[3:-2]))
        counts.append(count - before["buckets"].get(label, 0))
    rank, seen = sum(counts) / 2.0, 0
    for low, high, count in zip(bounds, bounds[1:], counts):
        if count and seen + count >= rank:
            return low + (high - low) * (rank - seen) / count
        seen += count
    return after["max_ms"]


async def _serve_session(server: serving.Server, traffic: Traffic, seconds: float):
    client = Client("127.0.0.1", server.port, NPROC)
    try:
        before = await client.get_json("/v1/metrics")
        cpu_before = server.cpu_seconds()
        samples = await client.run_phase(traffic.schedule(seconds))
        cpu_after = server.cpu_seconds()
        after = await client.get_json("/v1/metrics")
        jobs = await serving.collect_jobs(client, samples)
    finally:
        await client.close()
    return samples, jobs, before, after, cpu_after - cpu_before


def trace_serve(result: Result, tracer: Tracer, work: Path, seed: int, seconds: float) -> None:
    traffic = Traffic.from_seed(seed)
    server, references = serving.serve_setup(work, traffic)
    try:
        for index, body in references.items():
            result.gate.expect(f"http.{index}", body)
        common.raise_priority()
        samples, jobs, before, after, cpu = asyncio.run(_serve_session(server, traffic, seconds))
    finally:
        server.stop()
    serving.check_serve_outputs(result, work, samples, jobs)
    configs = work / "configs.json"  # written by serve_setup: the working set
    out = work / "address.json"
    run_child(
        common.python_child("address", "--configs", str(configs), "--cache-dir", str(work / "cache"), "--out", str(out)),
        env=child_env(work),
        work=work,
    ).check()
    timings = json.loads(out.read_text())

    route = "POST /v1/experiments/{name}/run"
    server_p50 = _histogram_p50(before["latency"][route], after["latency"][route])
    warm = [s.latency * 1e3 for s in samples if s.request.tag[0] == "warm" and s.status == 200]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    requests = after["requests"]["total"] - before["requests"]["total"]
    result.add("service.server_p50_ms", server_p50, "ms")
    result.add("service.transport_ms", median(warm) - server_p50, "ms")
    result.add("service.cpu_ms_per_req", cpu * 1e3 / requests, "ms")
    result.add("service.hit_ratio", hits / (hits + misses), "ratio")
    result.add("service.l1_hit_ratio", (after["cache"]["warm_hits"] - before["cache"]["warm_hits"]) / hits, "ratio")
    for counter in ("shed", "rate_limited"):
        result.add(f"service.{counter}", after["requests"][counter] - before["requests"][counter], "count")
    result.add("runner.address_ms", timings["address"] * 1e3, "ms")
    result.add("runner.lookup_ms", timings["lookup"] * 1e3, "ms")
    offset = time.time() - time.monotonic()  # monotonic due times -> wall clock
    finished = [job for job in jobs if job["record"].get("finished_unix")]
    records = [job["record"] for job in finished]
    cold = [(job["record"]["finished_unix"] - job["sample"].request.due - offset) * 1e3 for job in finished]
    result.add("jobs.queue_wait_ms", median([(r["started_unix"] - r["created_unix"]) * 1e3 for r in records]), "ms")
    result.add("jobs.run_ms", median([(r["finished_unix"] - r["started_unix"]) * 1e3 for r in records]), "ms")
    result.add("jobs.cold_p50_ms", median(cold), "ms")
    result.add("jobs.cold_tail_ms", percentile(cold, 80), "ms")
    result.add("gen.lag_p99_ms", percentile([s.lag * 1e3 for s in samples], 99), "ms")
    result.details["serving"] = {
        "rate": HTTP_REFERENCE_RPS,
        "requests": len(samples),
        "cold_jobs": len(jobs),
        "warm_p50_ms": median(warm),
        "warm_p99_ms": percentile(warm, 99),
        "warm_p99_within_20ms": percentile(warm, 99) <= 20.0,
    }

    start = min(s.request.due for s in samples)
    root = tracer.add("gen.phase", start, max(s.done for s in samples), rate=HTTP_REFERENCE_RPS)
    for sample in samples:
        index = tracer.add("service.request", sample.sent, sample.done, parent=root, status=sample.status)
        tracer.spans[index].track = 1 + sample.slot


def traced_pass(work: Path, workload: str, seed: int, seconds: float, trace_path: Path) -> Result:
    result = Result()
    tracer = Tracer(workload)
    trace_cold(result, tracer, work, seed)
    trace_warm(result, tracer, work)
    trace_serve(result, tracer, work, seed, max(seconds / 2, SERVE_TRACE_MIN_SECONDS))
    fidelity = common.paper_fidelity(
        {name: json.loads(result.gate.reference[f"cold.{name}"])["rows"] for name in common.PAPER_PAIRS}
    )
    for name in common.PAPER_PAIRS:
        result.add(f"fidelity.{name}", fidelity[f"fidelity.{name}"], "ratio")
    self_times = tracer.self_times()
    for layer in LAYERS:
        result.add(f"selftime.{layer}_s", self_times.get(layer, 0.0), "s")
    tracer.write_chrome(trace_path)
    result.details["trace"] = str(trace_path.relative_to(common.ROOT))
    result.details["spans"] = len(tracer.spans)
    result.details["span_seconds_by_layer"] = {k: round(v, 6) for k, v in sorted(self_times.items())}
    return result

