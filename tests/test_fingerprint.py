"""The import-closure memo behind code fingerprints.

``code_fingerprint`` hashes every module of a driver's static import
closure.  Finding the closure means parsing each module, so every module's
raw import candidates are memoised on a content key and persisted in the
``_imports.json`` sidecar under a result-cache root.  This suite pins the
memo's contract:

* the statement-only walk finds exactly the imports a full ``ast.walk``
  finds (the oracle), over every module of the package and over generated
  sources that hide imports in every kind of statement block;
* an entry replays only for identical bytes under the same extractor: a
  same-size edit with a restored ``mtime_ns`` re-parses, and so does an
  entry written by another version of ``fingerprint.py``;
* a broken sidecar costs parses, never an exception or a changed row;
* a warm process parses nothing and leaves the sidecar untouched.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.runner import fingerprint as fp
from repro.runner.cache import ResultCache
from repro.runner.registry import build_registry
from repro.runner.service import ExperimentRunner

SRC = Path(repro.__file__).resolve().parent.parent
DRIVERS = [spec.module.__name__ for spec in build_registry().values()]


def _oracle_walk(tree: ast.AST):
    """The full ``ast.walk`` the statement-only walk replaced: every node."""
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        if fp._is_main_guard(node) or fp._is_type_checking_guard(node):
            pending.extend(node.orelse)
            continue
        pending.extend(ast.iter_child_nodes(node))


def _import_nodes(nodes) -> set[int]:
    return {id(node) for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))}


def _assert_walks_agree(module_name: str, source: str, root: str = "repro") -> None:
    tree = ast.parse(source)
    assert _import_nodes(fp._walk_importable(tree)) == _import_nodes(_oracle_walk(tree))
    assert fp._import_candidates(module_name, fp._walk_importable(tree), root) == fp._import_candidates(
        module_name, _oracle_walk(tree), root
    )


@pytest.fixture
def fresh_memo(monkeypatch):
    """The memo state of a freshly started process (nothing loaded or parsed)."""
    monkeypatch.setattr(fp, "_memo", {})
    monkeypatch.setattr(fp, "_added", {})
    monkeypatch.setattr(fp, "_loaded", set())
    fp._module_path.cache_clear()
    fp._is_package.cache_clear()
    importlib.invalidate_caches()


@pytest.fixture
def parses(monkeypatch):
    """Every source ``_parse_source`` is handed, in call order."""
    seen: list[bytes] = []
    original = fp._parse_source

    def counted(source):
        seen.append(source)
        return original(source)

    monkeypatch.setattr(fp, "_parse_source", counted)
    return seen


def _package(tmp_path: Path, monkeypatch, name: str, files: dict[str, str]) -> Path:
    package = tmp_path / name
    package.mkdir()
    (package / "__init__.py").write_text("")
    for filename, source in files.items():
        (package / filename).write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    return package


def _warm_memo(cache_root: Path) -> None:
    """Simulate the next process: forget everything, then load the sidecar."""
    fp._memo.clear()
    fp._added.clear()
    fp._loaded.clear()
    fp._module_path.cache_clear()
    fp._is_package.cache_clear()
    importlib.invalidate_caches()
    fp.load_import_memo(cache_root)


# -- the walk: statement lists only, same imports as the full walk ---------------------


class TestWalkEquivalence:
    def test_every_package_module(self):
        modules = sorted(SRC.joinpath("repro").rglob("*.py"))
        assert len(modules) > 50
        for path in modules:
            parts = path.relative_to(SRC).with_suffix("").parts
            module_name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            _assert_walks_agree(module_name, path.read_text())

    def test_guards_keep_their_else_branches(self):
        source = textwrap.dedent(
            """
            import typing
            if __name__ == "__main__":
                from repro.runner import cli
            else:
                from repro.core import scaling
            if typing.TYPE_CHECKING:
                from repro.nn import layers
            elif True:
                from repro.simd import engine
            """
        )
        tree = ast.parse(source)
        found = fp._import_candidates("repro.fake", fp._walk_importable(tree), "repro")
        assert {"repro.core.scaling", "repro.simd.engine"} <= found
        assert not {"repro.runner.cli", "repro.nn.layers"} & found
        _assert_walks_agree("repro.fake", source)


_LEAVES = st.sampled_from(
    [
        "import repro.core.scaling",
        "import os, repro.nn",
        "from repro.arithmetic import booth, wallace",
        "from . import sibling",
        "from .. import cousin",
        "from .models import Model",
        "x = [__import__('os') for _ in range(2)]",
        "f = lambda: [name for name in ()]",
        "pass",
    ]
)

#: ``(header, [(continuation, always present?), ...])`` of every compound statement.
_WRAPPERS = [
    ("if __name__ == '__main__':", [("else:", False)]),
    ("if __name__ != '__main__':", [("else:", False)]),
    ("if TYPE_CHECKING:", [("else:", False)]),
    ("if typing.TYPE_CHECKING:", [("elif x:", False), ("else:", False)]),
    (
        "try:",
        [
            ("except ValueError:", True),
            ("except (KeyError, OSError) as error:", False),
            ("else:", False),
            ("finally:", False),
        ],
    ),
    ("try:", [("finally:", True)]),
    ("with open('f') as handle, open('g'):", []),
    ("class Holder(Base, metaclass=Meta):", []),
    ("def function(argument=lambda: 0):", []),
    ("async def coroutine():", []),
    ("for item in range(3):", [("else:", False)]),
    ("while flag:", [("else:", False)]),
    ("if flag:", [("elif other:", False), ("else:", False)]),
]


def _indent(block: list[str]) -> list[str]:
    return ["    " + line for line in block]


@st.composite
def _compound(draw, children):
    head, continuations = draw(st.sampled_from(_WRAPPERS))
    lines = [head, *_indent(draw(children))]
    for continuation, required in continuations:
        if required or draw(st.booleans()):
            lines += [continuation, *_indent(draw(children))]
    return lines


@st.composite
def _match(draw, children):
    lines = ["match subject:"]
    for pattern in ("case 1 | 2:", "case {'key': value}:", "case _:")[: draw(st.integers(1, 3))]:
        lines += _indent([pattern, *_indent(draw(children))])
    return lines


def _blocks(children):
    return st.lists(st.one_of(_compound(children), _match(children)), min_size=1, max_size=3).map(
        lambda blocks: [line for block in blocks for line in block]
    )


_SOURCES = st.recursive(
    st.lists(_LEAVES, min_size=1, max_size=3),
    lambda children: st.tuples(_blocks(children), st.lists(_LEAVES, max_size=2)).map(
        lambda pair: pair[0] + pair[1]
    ),
    max_leaves=12,
).map(lambda lines: "\n".join(lines) + "\n")


class TestGeneratedSources:
    @settings(max_examples=150, deadline=None)
    @given(source=_SOURCES, package=st.sampled_from(["repro.runner.fake", "repro.runner"]))
    def test_statement_walk_matches_full_walk(self, source, package):
        _assert_walks_agree(package, source)


# -- the memo: content keys, the sidecar, warm processes -------------------------------


class TestMemo:
    def test_same_size_edit_with_restored_mtime_is_seen(self, tmp_path, monkeypatch, fresh_memo, parses):
        package = _package(
            tmp_path,
            monkeypatch,
            "memo_edit",
            {"dep1.py": "V = 1\n", "dep2.py": "V = 2\n", "entry.py": "from .dep1 import V\n"},
        )
        cache_root = tmp_path / "cache"
        before = fp.code_fingerprint("memo_edit.entry", root="memo_edit")
        fp.save_import_memo(cache_root)
        assert "memo_edit.dep1" in fp.module_closure("memo_edit.entry", root="memo_edit")

        entry = package / "entry.py"
        stamp = entry.stat()
        entry.write_text("from .dep2 import V\n")  # same size, different import
        os.utime(entry, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert entry.stat().st_size == stamp.st_size and entry.stat().st_mtime_ns == stamp.st_mtime_ns

        _warm_memo(cache_root)
        parses.clear()
        after = fp.code_fingerprint("memo_edit.entry", root="memo_edit")
        assert after != before
        assert fp.module_closure("memo_edit.entry", root="memo_edit") == ["memo_edit.dep2", "memo_edit.entry"]
        # The edited module re-parsed, and the module it newly imports.
        assert parses == [entry.read_bytes(), b"V = 2\n"]

    @pytest.mark.parametrize(
        "blob",
        [
            b'{"version": 1, "entries": {"repro:repro.experiments.fig8": {"key": "',  # truncated
            b"\xff\xfe\x00 not json at all",
            b"[1, 2, 3]",
            b'{"version": 1, "entries": []}',
            b'{"version": 2, "entries": {}}',
            b'{"version": 1, "entries": {"repro:repro.experiments.fig8": {"key": 5, "imports": "x"}}}',
            b'{"version": 1, "entries": {"repro:repro.experiments.fig8": {"key": "k", "imports": ["os"]}}}',
            b"[" * 100_000,
        ],
        ids=["truncated", "garbage", "list", "entries-list", "version", "types", "outside-root", "deep"],
    )
    def test_broken_sidecar_is_recomputed(self, tmp_path, fresh_memo, blob):
        reference = {name: fp.code_fingerprint(name) for name in DRIVERS}
        reference_rows = ExperimentRunner(cache=ResultCache(tmp_path / "reference")).run("fig8").rows

        cache_root = tmp_path / "cache"
        cache_root.mkdir()
        (cache_root / fp.IMPORTS_FILENAME).write_bytes(blob)
        _warm_memo(cache_root)  # never raises
        assert fp._memo == {}
        runner = ExperimentRunner(cache=ResultCache(cache_root))
        report = runner.run("fig8")
        assert json.dumps(report.rows) == json.dumps(reference_rows)
        assert {name: fp.code_fingerprint(name) for name in DRIVERS} == reference
        rewritten = json.loads((cache_root / fp.IMPORTS_FILENAME).read_bytes())
        assert "repro:repro.experiments.fig8" in rewritten["entries"]

    def test_new_submodule_named_by_from_import_joins_the_closure(
        self, tmp_path, monkeypatch, fresh_memo, parses
    ):
        package = _package(tmp_path, monkeypatch, "memo_new", {"entry.py": "from memo_new import later\n"})
        cache_root = tmp_path / "cache"
        assert fp.module_closure("memo_new.entry", root="memo_new") == ["memo_new", "memo_new.entry"]
        fp.save_import_memo(cache_root)

        (package / "later.py").write_text("V = 1\n")
        _warm_memo(cache_root)
        parses.clear()
        assert fp.module_closure("memo_new.entry", root="memo_new") == [
            "memo_new",
            "memo_new.entry",
            "memo_new.later",
        ]
        assert parses == [b"V = 1\n"]  # entry.py replayed from the memo

    def test_unwritable_cache_root_raises_nothing(self, tmp_path, monkeypatch, fresh_memo):
        fp.code_fingerprint("repro.experiments.fig8")
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        fp.save_import_memo(blocker / "cache")  # parent is a file: mkdir fails
        fp.load_import_memo(blocker / "cache")
        assert fp._added  # kept for a later save

        def refuse(*_args, **_kwargs):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(fp.os, "replace", refuse)
        fp.save_import_memo(tmp_path / "cache")
        assert not (tmp_path / "cache" / fp.IMPORTS_FILENAME).exists()
        assert list((tmp_path / "cache").iterdir()) == []  # no temp file left behind

    def test_entries_of_another_extractor_are_ignored(self, tmp_path, monkeypatch, fresh_memo, parses):
        cache_root = tmp_path / "cache"
        with monkeypatch.context() as patched:
            patched.setattr(fp, "_self_digest", lambda: "0" * 64)
            foreign = fp.code_fingerprint("repro.experiments.fig8")
            fp.save_import_memo(cache_root)
        assert json.loads((cache_root / fp.IMPORTS_FILENAME).read_bytes())["entries"]

        _warm_memo(cache_root)
        parses.clear()
        assert fp.code_fingerprint("repro.experiments.fig8") == foreign  # same sources, same digest
        assert len(parses) == len(fp.module_closure("repro.experiments.fig8"))

    def test_concurrent_fingerprints_share_one_memo(self, tmp_path, fresh_memo):
        reference = {name: fp.code_fingerprint(name) for name in DRIVERS}
        _warm_memo(tmp_path)  # empty: every thread races to parse
        results: list[dict[str, str]] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: results.append({name: fp.code_fingerprint(name) for name in DRIVERS})
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [reference] * 8
        fp.save_import_memo(tmp_path)
        saved = json.loads((tmp_path / fp.IMPORTS_FILENAME).read_bytes())["entries"]
        closure = set().union(*(fp.module_closure(name) for name in DRIVERS))
        assert set(saved) == {f"repro:{name}" for name in closure}

    def test_memo_is_never_part_of_a_key(self, tmp_path, fresh_memo):
        cold = {name: fp.code_fingerprint(name) for name in DRIVERS}
        fp.save_import_memo(tmp_path)
        _warm_memo(tmp_path)
        assert {name: fp.code_fingerprint(name) for name in DRIVERS} == cold

    def test_warm_process_parses_nothing_and_leaves_the_sidecar(self, tmp_path):
        cache_root = tmp_path / "cache"
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        argv = ["run", "fig8", "table2", "--json", "--cache-dir", str(cache_root)]
        cold = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=env, capture_output=True, check=True
        )
        sidecar = cache_root / fp.IMPORTS_FILENAME
        before = sidecar.read_bytes(), sidecar.stat().st_mtime_ns
        counts = tmp_path / "parses.txt"
        script = textwrap.dedent(
            f"""
            import sys
            from repro.runner import fingerprint
            calls = []
            original = fingerprint._parse_source
            fingerprint._parse_source = lambda source: calls.append(source) or original(source)
            from repro.runner.cli import main
            status = main({argv!r})
            open({str(counts)!r}, "w").write(str(len(calls)))
            sys.exit(status)
            """
        )
        warm = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
        assert counts.read_text() == "0"
        assert (sidecar.read_bytes(), sidecar.stat().st_mtime_ns) == before

        def masked(stdout):
            documents = json.loads(stdout)
            for document in documents.values():
                document.pop("elapsed_seconds")
                document.pop("cached")
            return documents

        assert all(document["cached"] for document in json.loads(warm.stdout).values())
        assert masked(warm.stdout) == masked(cold.stdout)
