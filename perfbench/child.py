"""Program-side half of the benchmark, run in fresh interpreters.

Each subcommand drives one public entry point of the reproduction and
writes what it saw as JSON to ``--out``:

``cold``     ``repro.api.make_runner`` + ``ExperimentRunner.run_many`` over
             the seeded cold requests; ``--trace`` adds observer spans and,
             at ``jobs=1``, wraps the ``nn``/``cache``/``fingerprint`` layers
``prefill``  ``run_many`` over an explicit config list (fills a cache; with
             ``--no-cache`` it recomputes them as independent references)
``replay``   ``repro.runner.cli.main(["run", "all", "--json", ...])`` in-process,
             traced: fingerprint, cache reads and rendering
``address``  ``runner.address`` / ``runner.lookup`` timed over configs

The wrappers live here, in the benchmark's own files; nothing under
``src/`` knows it is being measured.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

T_FIRST = time.monotonic()  # interpreter is up; nothing of the program imported yet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.trace import Tracer  # noqa: E402

#: fig6's precision search does seed-dependent amounts of work (its AlexNet
#: profile takes 1.8-3.5 s across seeds), so it stays at the paper's own
#: seed; every other experiment with a ``seed`` parameter gets the workload's.
PINNED_SEED = {"fig6": 2017}
#: Passes of ``address`` over the working set; the median is reported.
ADDRESS_ROUNDS = 3


def cold_requests(runner, seed: int) -> list[tuple[str, dict[str, object]]]:
    requests = []
    for name, spec in runner.registry.items():
        params = {"seed": PINNED_SEED.get(name, seed)} if "seed" in spec.params else {}
        requests.append((name, params))
    return requests


def _wrap(owner, attribute: str, tracer: Tracer, span_name: str, counter=None) -> None:
    """Replace ``owner.attribute`` by a version that records a span per call."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(span_name) as span:
            if counter is not None:
                span.counts.update(counter(*args, **kwargs))
            return original(*args, **kwargs)

    setattr(owner, attribute, traced)


def _macs(layer, inputs, config=None) -> dict[str, float]:
    return {"macs": layer.macs(inputs.shape[1:]) * inputs.shape[0]}


def _fc_counts(layer, inputs, config=None) -> dict[str, float]:
    return {**_macs(layer, inputs), "weight_bytes": layer.weights.nbytes}


def install_wrappers(tracer: Tracer, *, nn: bool) -> None:
    """Span every call into the traced layers (and count backend bytes)."""
    from repro.runner import backends, cache, service

    _wrap(cache.ResultCache, "get", tracer, "cache.get")
    _wrap(cache.ResultCache, "put", tracer, "cache.put")
    _wrap(service, "code_fingerprint", tracer, "fingerprint.code_fingerprint")
    for method in ("get", "put"):
        original = getattr(backends.DiskBackend, method)

        def counted(self, namespace, filename, *args, _original=original, _method=method, **kwargs):
            result = _original(self, namespace, filename, *args, **kwargs)
            blob = args[0] if _method == "put" else result
            current = tracer.current
            if blob is not None and current is not None and current.name == f"cache.{_method}":
                current.counts["bytes"] = current.counts.get("bytes", 0) + len(blob)
            return result

        setattr(backends.DiskBackend, method, counted)
    if nn:
        from repro.nn import layers, precision_search, training

        _wrap(precision_search.PrecisionSearch, "profile", tracer, "nn.precision_search.profile")
        _wrap(layers.Conv2D, "forward_batch", tracer, "nn.conv.forward_batch", _macs)
        _wrap(layers.FullyConnected, "forward_batch", tracer, "nn.fc.forward_batch", _fc_counts)
        _wrap(training.Trainer, "fit", tracer, "nn.training.fit")


class RunnerObserver:
    """Turns ``run_many`` lifecycle events into nested runner spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.waves: dict[str, int] = {}  # artifact name -> its wave's span index
        self.executed: dict[str, object] = {}
        self.started = time.monotonic()

    def __call__(self, event: dict[str, object]) -> None:
        kind = event["event"]
        if kind == "planned":
            parent = self.tracer.current_index
            self.tracer.add(
                "runner.plan", self.started, time.monotonic(), parent=parent,
                cold=event["cold"], cached=event["cached"],
            )
        elif kind == "artifact_wave":
            index = self.tracer.open(f"runner.wave{event['level']}", units=event["units"], missing=event["missing"])
            self.waves.update({name: index for name in event["artifacts"]})
        elif kind == "executing":
            self.tracer.open("runner.execute", experiments=event["experiments"])
        elif kind in ("artifact_wave_done", "executed"):
            self.tracer.close()
            if kind == "executed":
                self.executed = dict(event)


def add_artifact_spans(tracer: Tracer, observer: RunnerObserver, store, clock_offset: float) -> list[dict]:
    """One span per stored artifact from its recorded ``elapsed_seconds``.

    Entries carry their creation wall-clock time and production time, so
    this works whether the unit ran in-process or in a worker.  At
    ``jobs=1`` the ``nn`` spans recorded inside a unit are re-parented
    under it so self times do not count them twice.
    """
    entries = []
    for track, listed in enumerate(sorted(store.ls(), key=lambda item: item["created_unix"] or 0), start=1):
        end = listed["created_unix"] - clock_offset
        start = end - listed["elapsed_seconds"]
        parent = observer.waves.get(listed["artifact"])
        index = tracer.add(f"artifacts.{listed['artifact']}.produce", start, end, parent=parent)
        tracer.spans[index].track = track
        entries.append({"artifact": listed["artifact"], "elapsed_seconds": listed["elapsed_seconds"]})
        for span in tracer.spans:
            middle = (span.start + span.end) / 2
            if span.parent == parent and span.layer == "nn" and start <= middle <= end:
                span.parent = index
    return entries


def command_cold(args: argparse.Namespace) -> dict[str, object]:
    tracer = Tracer()
    with tracer.span("cli.import"):
        from repro import api
        from repro.runner.artifacts import ArtifactStore
    runner = api.make_runner(cache_dir=args.cache_dir)
    requests = cold_requests(runner, args.seed)
    observer = RunnerObserver(tracer) if args.trace else None
    if args.trace:
        install_wrappers(tracer, nn=args.jobs == 1)
    with tracer.span("runner.run_many"):
        if observer is not None:
            observer.started = time.monotonic()
        reports = runner.run_many(requests, jobs=args.jobs, observer=observer)
    result: dict[str, object] = {
        "t_first": T_FIRST,
        "reports": [report.to_jsonable() for report in reports],
    }
    if args.trace:
        clock_offset = time.time() - time.monotonic()
        store = ArtifactStore(Path(args.cache_dir) / "artifacts")
        result["artifacts"] = add_artifact_spans(tracer, observer, store, clock_offset)
        result["executed"] = observer.executed
        result["spans"] = tracer.to_records()
    return result


def _configs(path: str) -> list[tuple[str, dict[str, object]]]:
    return [(name, dict(params)) for name, params in json.loads(Path(path).read_text())]


def command_prefill(args: argparse.Namespace) -> dict[str, object]:
    from repro import api

    runner = api.make_runner(cache_dir=args.cache_dir, use_cache=not args.no_cache)
    reports = runner.run_many(_configs(args.configs), jobs=args.jobs)
    return {"reports": [report.to_jsonable() for report in reports]}


def command_replay(args: argparse.Namespace) -> dict[str, object]:
    """``run all --json`` in-process, with the layers under it spanned."""
    tracer = Tracer()
    with tracer.span("cli.import"):
        from repro import api
        from repro.runner import cli
    install_wrappers(tracer, nn=False)
    original_run_all = api.run_all
    marks: dict[str, float] = {}

    def run_all(*a, **kw):
        with tracer.span("runner.run_all"):
            reports = original_run_all(*a, **kw)
        marks["rendered_from"] = time.monotonic()
        return reports

    api.run_all = run_all
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        main_span = tracer.open("cli.main")
        cli.main(["run", "all", "--json", "--cache-dir", args.cache_dir])
        tracer.close()
    tracer.add("cli.render", marks["rendered_from"], tracer.spans[main_span].end, parent=main_span)
    return {"t_first": T_FIRST, "spans": tracer.to_records(), "stdout": sink.getvalue()}


def command_address(args: argparse.Namespace) -> dict[str, object]:
    """Median in-process ``address`` and ``lookup`` times over the configs."""
    from repro import api

    runner = api.make_runner(cache_dir=args.cache_dir)
    configs = _configs(args.configs)
    timings: dict[str, list[float]] = {"address": [], "lookup": []}
    for _round in range(ADDRESS_ROUNDS):
        for name, params in configs:
            for label, call in (("address", runner.address), ("lookup", runner.lookup)):
                start = time.perf_counter()
                result = call(name, params)
                timings[label].append(time.perf_counter() - start)
                if result is None:
                    raise SystemExit(f"{name} {params} is not in the cache")
    return {label: sorted(values)[len(values) // 2] for label, values in timings.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cold = sub.add_parser("cold")
    cold.add_argument("--seed", type=int, required=True)
    cold.add_argument("--jobs", type=int, required=True)
    cold.add_argument("--trace", action="store_true")
    prefill = sub.add_parser("prefill")
    prefill.add_argument("--configs", required=True)
    prefill.add_argument("--jobs", type=int, default=1)
    prefill.add_argument("--no-cache", action="store_true")
    sub.add_parser("replay")
    address = sub.add_parser("address")
    address.add_argument("--configs", required=True)
    for subparser in sub.choices.values():
        subparser.add_argument("--cache-dir", required=True)
        subparser.add_argument("--out", required=True)
    args = parser.parse_args()
    command = {
        "cold": command_cold,
        "prefill": command_prefill,
        "replay": command_replay,
        "address": command_address,
    }[args.command]
    Path(args.out).write_text(json.dumps(command(args)))


if __name__ == "__main__":
    main()
