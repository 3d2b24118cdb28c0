"""The warm hit path imports no science.

A warm ``python -m repro run all --json`` does no DVAFS work, so it must not
pay for importing numpy or any model.  This suite pins what that rests on:

* the registry reads every driver's ``PARAMS`` / ``OBJECT_PARAMS`` /
  ``ARTIFACTS`` from its source, and they equal the imported module's
  attributes;
* a driver is imported -- and its declarations checked against it -- only
  when it first runs or renders, and a bad declaration still fails there;
* a missing or garbage ``_imports.json`` changes no registry, key or row;
* a warm ``run all --json``, a ``list`` and the service's cold start in one
  interpreter leave numpy and every ``repro.experiments.*`` /
  ``repro.nn.*`` module unimported;
* a cold ``run all --jobs 2`` forks BLAS-budgeted workers (the parent imports
  the producers and drivers first) and matches ``--jobs 1`` byte for byte.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
import uuid
from pathlib import Path

import pytest

import repro
from repro.runner import fingerprint as fp
from repro.runner.cache import ResultCache
from repro.runner.executor import blas_threads
from repro.runner.registry import DRIVERS, ExperimentSpec, build_registry
from repro.runner.service import ExperimentRunner

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules a warm hit must never import.
SCIENCE = ("numpy", "repro.experiments.", "repro.nn.")


def _env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _driver_package(tmp_path: Path, monkeypatch, source: str) -> str:
    """A one-driver package on ``sys.path``; returns the driver's module name."""
    package = f"warmdrv_{uuid.uuid4().hex[:8]}"
    (tmp_path / package).mkdir()
    (tmp_path / package / "__init__.py").write_text("")
    (tmp_path / package / "driver.py").write_text(textwrap.dedent(source))
    monkeypatch.syspath_prepend(str(tmp_path))
    return f"{package}.driver"


#: Report fields that differ between a cold and a warm (or serial) run.
VOLATILE = ("elapsed_seconds", "compute_seconds", "cached")


def _masked(documents: dict[str, dict]) -> dict[str, dict]:
    return {
        name: {key: value for key, value in document.items() if key not in VOLATILE}
        for name, document in documents.items()
    }


class TestLazyPackages:
    @pytest.mark.parametrize("package", ["repro", "repro.analysis", "repro.experiments"])
    def test_every_public_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"
        with pytest.raises(AttributeError):
            module.no_such_name  # an unknown name is still an AttributeError

    def test_public_names_are_the_defining_objects(self):
        from repro.analysis import metrics
        from repro.experiments import EXPERIMENTS, table1
        from repro.nn import models

        assert repro.alexnet is models.alexnet
        assert repro.analysis.rmse is metrics.rmse
        assert EXPERIMENTS["table1"] is table1 and callable(EXPERIMENTS["table1"].run)
        assert list(EXPERIMENTS) == list(DRIVERS)


class TestStaticDeclarations:
    @pytest.mark.parametrize("name", list(DRIVERS))
    def test_static_equals_imported(self, name):
        module = importlib.import_module(DRIVERS[name])
        imported = {
            attribute: getattr(module, attribute)
            for attribute in fp.DECLARED_NAMES
            if hasattr(module, attribute)
        }
        static = fp.static_declarations(DRIVERS[name])
        # repr too: == holds between 1, 1.0 and True; repr pins each type.
        assert static == imported and repr(static) == repr(imported)
        spec, bound = build_registry()[name], ExperimentSpec.from_module(name, module)
        assert (spec.params, spec.object_params, spec.artifacts) == (
            bound.params,
            bound.object_params,
            bound.artifacts,
        )
        assert spec.schema() == bound.schema()

    def test_building_the_registry_imports_no_driver(self):
        script = textwrap.dedent(
            """
            import sys
            from repro.runner.registry import build_registry
            registry = build_registry()
            assert len(registry) == 8
            print([name for name in sys.modules if name.startswith(("numpy", "repro.experiments"))])
            """
        )
        done = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_default_disagreeing_with_run_raises_on_first_import(self, tmp_path, monkeypatch):
        module_name = _driver_package(
            tmp_path,
            monkeypatch,
            """
            PARAMS = {"samples": 10}

            def run(*, samples=20):
                return [{"samples": samples}]

            def render(rows):
                return ""
            """,
        )
        spec = ExperimentSpec.from_source("bad", module_name)  # the source alone is fine
        assert module_name not in sys.modules
        with pytest.raises(TypeError, match="disagrees with run"):
            spec.execute(spec.canonical_config())
        with pytest.raises(TypeError, match="disagrees with run"):
            spec.module  # a failed check is never cached: the next access raises again

    def test_unimportable_producer_raises_on_first_import(self, tmp_path, monkeypatch):
        module_name = _driver_package(
            tmp_path,
            monkeypatch,
            """
            PARAMS = {"samples": 10}
            ARTIFACTS = {"made": ("warm_nowhere.module:make", ("samples",))}

            def run(*, samples=10):
                return []

            def render(rows):
                return ""
            """,
        )
        spec = ExperimentSpec.from_source("bad", module_name)
        assert [binding.producer for binding in spec.artifacts.values()] == ["warm_nowhere.module:make"]
        with pytest.raises(ModuleNotFoundError, match="warm_nowhere"):
            spec.render([])

    def test_non_literal_declaration_is_rejected(self, tmp_path, monkeypatch):
        module_name = _driver_package(
            tmp_path,
            monkeypatch,
            """
            PARAMS = dict(samples=10)

            def run(*, samples=10):
                return []
            """,
        )
        with pytest.raises(TypeError, match="plain literal"):
            ExperimentSpec.from_source("bad", module_name)


class TestBrokenMemo:
    @pytest.mark.parametrize(
        "sidecar",
        [
            None,
            b"\xff garbage {",
            b'{"version": 1, "entries": {"repro:repro.experiments.fig8": '
            b'{"key": "k", "imports": [], "declarations": {"PARAMS": 5}}}}',
        ],
        ids=["missing", "garbage", "bad-declarations"],
    )
    def test_missing_or_garbage_memo_keeps_registry_keys_and_rows(self, tmp_path, monkeypatch, sidecar):
        requests = [("fig8", {}), ("table1", {"samples": 40, "seed": 11})]
        cold = ExperimentRunner(cache=ResultCache(tmp_path)).run_many(requests)
        reference = {name: spec.schema() for name, spec in build_registry().items()}
        # The next process: nothing loaded or parsed yet.
        monkeypatch.setattr(fp, "_memo", {})
        monkeypatch.setattr(fp, "_added", {})
        monkeypatch.setattr(fp, "_loaded", set())
        memo = tmp_path / fp.IMPORTS_FILENAME
        if sidecar is None:
            memo.unlink()
        else:
            memo.write_bytes(sidecar)
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        assert {name: spec.schema() for name, spec in runner.registry.items()} == reference
        warm = runner.run_many(requests)
        assert all(report.cached for report in warm)
        assert [report.key for report in warm] == [report.key for report in cold]
        assert json.dumps([report.rows for report in warm]) == json.dumps([report.rows for report in cold])
        assert json.loads(memo.read_bytes())["entries"]  # rewritten valid


#: Cold ``run all --jobs 2`` through the CLI, recording what the pool did.
COLD_SCRIPT = """
import json, os, sys
from pathlib import Path
from repro.runner import executor
from repro.runner.cli import main

out, cache = Path(sys.argv[1]), sys.argv[2]
outcomes, budgets = {}, []
science_at_start = [name for name in sys.modules if name.startswith(("numpy", "repro.experiments"))]
original_budget, original_initializer = executor._worker_blas_budget, executor._budget_worker_blas

def budget(workers, outcome):
    outcomes[id(outcome)] = outcome
    threads = original_budget(workers, outcome)
    budgets.append([workers, threads])
    return threads

def initializer(threads):
    original_initializer(threads)
    (out / f"worker-{os.getpid()}.json").write_text(json.dumps(executor.blas_threads()))

executor._worker_blas_budget, executor._budget_worker_blas = budget, initializer
with open(out / "cold.json", "w") as stdout:
    sys.stdout = stdout
    status = main(["run", "all", "--jobs", "2", "--json", "--cache-dir", cache])
    sys.stdout = sys.__stdout__
(out / "pool.json").write_text(json.dumps({
    "status": status,
    "science_at_start": science_at_start,
    "blas_unbudgeted": sum(outcome.blas_unbudgeted for outcome in outcomes.values()),
    "budgets": budgets,
    "parent_threads": executor.blas_threads(),
    "cpus": len(os.sched_getaffinity(0)),
}))
"""

#: A warm ``run all --json`` and a ``list``, both through ``runpy``, then the
#: service's cold start, all in one interpreter.
WARM_SCRIPT = """
import contextlib, io, json, runpy, sys

def launch(*argv):
    sys.argv = ["repro", *argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            assert stop.code in (None, 0), stop.code
    return sink.getvalue()

documents = json.loads(launch("run", "all", "--json", "--cache-dir", sys.argv[1]))
listing = launch("list")

from repro import api
from repro.service import build_app

build_app(api.make_runner(cache_dir=sys.argv[1]))  # the service's cold start
print(json.dumps({
    "documents": documents,
    "listing": listing,
    "modules": sorted(sys.modules),
}))
"""


@pytest.fixture(scope="module")
def cold_jobs2(tmp_path_factory):
    """A cache filled by a cold ``run all --jobs 2`` in a fresh interpreter."""
    work = tmp_path_factory.mktemp("cold-jobs2")
    env = {**_env(), "REPRO_EXECUTOR_OVERSUBSCRIBE": "1"}  # real workers on any core count
    done = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT, str(work), str(work / "cache")],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return work


class TestLaunches:
    def test_cold_jobs2_forks_budgeted_workers(self, cold_jobs2):
        if blas_threads() is None:
            pytest.skip("numpy is not linked against an OpenBLAS with a thread control")
        pool = json.loads((cold_jobs2 / "pool.json").read_text())
        assert pool["status"] == 0
        assert pool["science_at_start"] == []  # a cold parent starts bare
        assert pool["blas_unbudgeted"] == 0
        assert pool["budgets"] and all(threads is not None for _workers, threads in pool["budgets"])
        workers = [json.loads(path.read_text()) for path in cold_jobs2.glob("worker-*.json")]
        expected = max(1, min(pool["cpus"] // 2, pool["parent_threads"]))
        assert workers and set(workers) == {expected}

    def test_cold_jobs2_rows_equal_jobs1(self, cold_jobs2, tmp_path):
        serial = subprocess.run(
            [sys.executable, "-m", "repro", "run", "all", "--jobs", "1", "--json", "--cache-dir", str(tmp_path)],
            env=_env(),
            capture_output=True,
            check=True,
            timeout=600,
        )
        parallel = json.loads((cold_jobs2 / "cold.json").read_text())
        assert list(parallel) == list(DRIVERS)
        assert json.dumps(_masked(parallel)) == json.dumps(_masked(json.loads(serial.stdout)))

    def test_warm_run_all_list_and_service_start_import_no_science(self, cold_jobs2):
        done = subprocess.run(
            [sys.executable, "-c", WARM_SCRIPT, str(cold_jobs2 / "cache")],
            env={**_env(), "REPRO_CACHE_DIR": str(cold_jobs2 / "cache")},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        warm = json.loads(done.stdout)
        assert not [name for name in warm["modules"] if name == "numpy" or name.startswith(SCIENCE)]
        assert all(document["cached"] for document in warm["documents"].values())
        cold = json.loads((cold_jobs2 / "cold.json").read_text())
        assert json.dumps(_masked(warm["documents"])) == json.dumps(_masked(cold))
        assert all(name in warm["listing"] for name in DRIVERS)
