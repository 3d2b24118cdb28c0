"""Concurrent multi-tenant store suite: backends, the store, fill claims, eviction.

Covers the :class:`~repro.runner.backends.StoreBackend` seam both stores
share -- the disk and in-memory backends must satisfy the same contract
-- then the one :class:`~repro.runner.store.ContentStore` under both of
its codecs (result JSON, artifact pickle) over every backend: round
trips, quarantine of any undecodable blob, read-only listings, fill
claims and budget counters.  On top of that, the concurrency machinery:
first-writer-wins fill claims (exactly-once compute under many concurrent
writers, stale-claim takeover when a winner dies), LRU eviction under a
byte budget (in-flight fills, quarantine sidecars and the freshest entry
are never evicted) and the append-only stats log that concurrent
recorders cannot clobber.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.sweep import SweepResult
from repro.runner.artifacts import ArtifactEntry, ArtifactStore, produce_into
from repro.runner.backends import (
    ClaimTicket,
    DiskBackend,
    MemoryBackend,
    backoff_delay,
    evict_lru,
    wait_for_fill,
)
from repro.runner.cache import CacheEntry, ResultCache, cache_key, run_provenance
from repro.runner.cli import main
from repro.runner.registry import ExperimentSpec
from repro.runner.service import ExperimentRunner
from repro.runner import store as store_module
from repro.runner.store import StoreStats, load_stats, numeric_stack, record_stats, reset_stats


def _backend(kind, tmp_path):
    return DiskBackend(tmp_path / "store") if kind == "disk" else MemoryBackend()


@pytest.fixture(params=["disk", "memory", "remote"])
def backends(request, tmp_path):
    """Opens handles onto one shared store: on-disk, in-memory or networked.

    Every call returns a fresh handle (a new connection for the networked
    backend) onto the same underlying entries.
    """
    if request.param != "remote":
        shared = _backend(request.param, tmp_path)
        yield lambda: shared
        return
    from repro.runner.netstore import RemoteBackend, StoreServer

    with StoreServer(tmp_path / "server") as server:
        opened = []

        def connect():
            opened.append(RemoteBackend(server.url))
            return opened[-1]

        try:
            yield connect
        finally:
            for remote in opened:
                remote.close()


@pytest.fixture
def backend(backends):
    """One StoreBackend implementation per param: on-disk, in-memory, networked."""
    return backends()


def _result_entry(experiment="toy", rows=None, pad=0):
    payload = rows if rows is not None else [{"a": 1}]
    provenance = {"pad": "x" * pad} if pad else {}
    return CacheEntry(
        experiment=experiment,
        params={},
        fingerprint="f" * 64,
        result=SweepResult(records=payload),
        elapsed_seconds=0.0,
        provenance=provenance,
    )


# -- the backend contract (every implementation, including over the wire) -----------


class TestBackendContract:
    def test_put_get_delete_round_trip(self, backend):
        assert backend.get("ns", "a.json") is None
        backend.put("ns", "a.json", b"payload")
        assert backend.get("ns", "a.json") == b"payload"
        stat = backend.stat("ns", "a.json")
        assert stat is not None and stat.size_bytes == len(b"payload")
        assert backend.delete("ns", "a.json") is True
        assert backend.get("ns", "a.json") is None
        assert backend.delete("ns", "a.json") is False  # already gone

    def test_iter_is_sorted_and_skips_reserved_namespaces(self, backend):
        backend.put("beta", "2.json", b"b")
        backend.put("alpha", "1.json", b"a")
        backend.put("corrupt", "poisoned.json", b"x")
        backend.put("artifacts", "nested.pkl", b"x")
        backend.put("jobs", "journal.json", b"x")
        assert list(backend.iter()) == [("alpha", "1.json"), ("beta", "2.json")]
        assert list(backend.iter("alpha")) == [("alpha", "1.json")]

    def test_access_stamps_order_entries_and_get_refreshes(self, backend):
        backend.put("ns", "old.json", b"1")
        time.sleep(0.01)
        backend.put("ns", "new.json", b"2")
        time.sleep(0.01)
        backend.get("ns", "old.json")  # refresh: now newer than "new"
        assert (
            backend.stat("ns", "old.json").accessed_unix
            > backend.stat("ns", "new.json").accessed_unix
        )
        # touch=False reads (listings) must not refresh the LRU stamp.
        before = backend.stat("ns", "new.json").accessed_unix
        backend.get("ns", "new.json", touch=False)
        assert backend.stat("ns", "new.json").accessed_unix == before

    def test_claim_is_first_writer_wins_and_put_releases(self, backend):
        assert backend.claim("ns", "k.json") is True
        assert backend.claim("ns", "k.json") is False  # second claimer loses
        ticket = backend.claim_info("ns", "k.json")
        assert ticket is not None and ticket.pid == os.getpid()
        assert not ticket.is_stale()  # we are demonstrably alive
        backend.put("ns", "k.json", b"filled")  # the fill clears the claim
        assert backend.claim_info("ns", "k.json") is None
        assert backend.claim("ns", "k.json") is True  # reclaimable afterwards
        assert backend.release("ns", "k.json") is True

    def test_release_with_owner_refuses_foreign_tickets(self, backend):
        assert backend.claim("ns", "k.json")
        stranger = ClaimTicket(pid=1, host="elsewhere", created_unix=123.0)
        assert backend.release("ns", "k.json", owner=stranger) is False
        assert backend.claim_info("ns", "k.json") is not None  # still held
        mine = backend.claim_info("ns", "k.json")
        assert backend.release("ns", "k.json", owner=mine) is True

    def test_quarantine_hides_the_entry(self, backend):
        backend.put("ns", "bad.json", b"garbage")
        assert backend.quarantine("ns", "bad.json") is True
        assert backend.get("ns", "bad.json") is None
        assert list(backend.iter()) == []


class TestDiskLayout:
    def test_sidecars_are_hidden_and_cleaned_up(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.claim("ns", "k.json")
        backend.put("ns", "k.json", b"blob")
        names = sorted(path.name for path in (tmp_path / "ns").iterdir())
        assert names == [".k.json.atime", "k.json"]  # claim cleared by the put
        assert list(backend.iter()) == [("ns", "k.json")]  # dotfiles never listed
        backend.delete("ns", "k.json")
        assert list((tmp_path / "ns").iterdir()) == []

    def test_disk_quarantine_moves_bytes_for_forensics(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("ns", "bad.json", b"garbage")
        backend.quarantine("ns", "bad.json")
        assert (tmp_path / "corrupt" / "ns" / "bad.json").read_bytes() == b"garbage"


# -- one store, two codecs (every backend) ------------------------------------------

STORES = {"result": ResultCache, "artifact": ArtifactStore}
KEY = "a" * 64


def _entry(kind, namespace="unit", pad=0):
    """A valid entry of ``kind`` (``pad`` grows it for budget tests)."""
    provenance = {"created_unix": 1_700_000_000.0, **({"pad": "x" * pad} if pad else {})}
    common = dict(params={"a": 1}, fingerprint="f" * 64, elapsed_seconds=0.25, provenance=provenance)
    if kind == "result":
        return CacheEntry(experiment=namespace, result=SweepResult(records=[{"a": 1}]), **common)
    payload = {"values": np.linspace(0.0, 1.0, 17), "count": 3}
    return ArtifactEntry(artifact=namespace, payload=payload, **common)


@pytest.fixture(params=sorted(STORES))
def kind(request):
    return request.param


@pytest.fixture
def open_store(kind, backends):
    """Opens a store of ``kind`` (a fresh handle each call) onto one backend."""
    return lambda **options: STORES[kind](backend=backends(), **options)


def _claim_or_wait(store, key, entry, calls):
    """The runner's fill protocol: compute under a won claim, else wait."""
    if store.claim("unit", key):
        calls.append(key)
        time.sleep(0.1)  # hold the claim long enough for losers to wait
        store.put(key, entry)
        return entry
    store.note_wait()
    return wait_for_fill(store, "unit", key)


class TestContentStore:
    def test_put_get_round_trip(self, kind, open_store):
        store = open_store()
        entry = _entry(kind)
        assert store.get("unit", KEY) is None  # a plain miss ...
        assert store.drain_stats()["corrupt"] == 0  # ... is not corruption
        store.put(KEY, entry)
        loaded = store.get("unit", KEY)
        assert loaded is not None and store.exists("unit", KEY)
        assert loaded.params == {"a": 1}
        assert loaded.elapsed_seconds == 0.25
        assert store.codec.encode(loaded) == store.codec.encode(entry)  # bit-identical
        if kind == "artifact":
            np.testing.assert_array_equal(loaded.payload["values"], entry.payload["values"])
            assert loaded.payload["values"].tobytes() == entry.payload["values"].tobytes()

    def test_undecodable_entries_are_quarantined(self, kind, open_store):
        store = open_store()
        codec = store.codec
        filename = KEY + codec.suffix
        wrong_schema = {**_entry(kind).to_document(), "schema": -1}
        corruptions = [
            b"not a pickle {not json",
            b"\xff\xfe\x00garbage",  # non-UTF-8 bytes
            codec.dumps(wrong_schema),
            codec.dumps({"schema": codec.schema, "result": "not-an-object"}),  # broken shape
        ]
        for blob in corruptions:
            store.backend.put("unit", filename, blob)
            assert store.get("unit", KEY) is None  # corrupt entry = miss
            assert not store.exists("unit", KEY)  # ... moved aside, not left in place
            if store.root is not None:
                assert (store.root / "corrupt" / "unit" / filename).read_bytes() == blob
        assert store.ls() == []  # quarantined entries are out of the listing
        drained = store.drain_stats()
        assert drained[f"{codec.kind}_corrupt"] == len(corruptions)
        assert drained["corrupt"] == drained["quarantined"] == len(corruptions)
        assert all(count == 0 for count in store.drain_stats().to_document().values())  # reset
        if store.root is not None:
            assert store.quarantine_summary()["entries"] == 1  # one address, overwritten

    def test_ls_is_read_only(self, kind, open_store):
        store = open_store()
        store.put(KEY, _entry(kind, "alpha"))
        store.backend.put("broken", KEY + store.codec.suffix, b"\x00undecodable")
        time.sleep(0.02)
        before = {ns: store.backend.stat(ns, KEY + store.codec.suffix) for ns in ("alpha", "broken")}
        listing = store.ls()
        assert [row[store.codec.label] for row in listing] == ["alpha", "broken"]
        assert listing[0]["created_unix"] == 1_700_000_000.0
        assert listing[1]["elapsed_seconds"] is None  # listed, with empty metadata
        for ns, stamp in before.items():
            assert store.backend.stat(ns, KEY + store.codec.suffix).accessed_unix == stamp.accessed_unix
        assert store.exists("broken", KEY)  # listing never quarantines
        assert store.drain_stats()["quarantined"] == 0

    def test_ls_and_clear(self, kind, open_store):
        store = open_store()
        store.put("1" * 64, _entry(kind, "alpha"))
        store.put("2" * 64, _entry(kind, "beta"))
        listing = store.ls()
        assert [row[store.codec.label] for row in listing] == ["alpha", "beta"]
        assert all(row["size_bytes"] > 0 for row in listing)
        assert [key for key, _path in store.entries("beta")] == ["2" * 64]
        assert store.clear("alpha") == 1
        assert [row[store.codec.label] for row in store.ls()] == ["beta"]
        assert store.clear() == 1
        assert store.ls() == []

    def test_invalid_names_rejected(self, kind, open_store):
        store = open_store()
        for bad in ("", ".", "..", "a/b", "../escape"):
            with pytest.raises(ValueError, match=f"invalid {store.codec.label} name"):
                store.get(bad, KEY)
            with pytest.raises(ValueError):
                store.clear(bad)

    def test_racing_claims_compute_once(self, kind, open_store):
        # Six contenders, each its own handle (its own connection when
        # networked) -- the claim ticket arbitrates exactly-once.
        stores = [open_store() for _ in range(6)]
        calls, results = [], [None] * len(stores)

        def producer(*, x):
            calls.append(x)
            time.sleep(0.1)  # hold the claim long enough for losers to wait
            return {"value": x * 2}

        def fill(slot):
            if kind == "artifact":
                results[slot] = produce_into(stores[slot], "unit", {"x": 21}, producer, key=KEY).payload
            else:
                results[slot] = _claim_or_wait(stores[slot], KEY, _entry(kind), calls).rows

        threads = [threading.Thread(target=fill, args=(slot,)) for slot in range(len(stores))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1  # exactly one compute
        assert all(result == results[0] for result in results)
        drained = [store.drain_stats() for store in stores]
        assert sum(d["claims"] for d in drained) == 1
        assert sum(d["claim_waits"] for d in drained) == len(stores) - 1
        assert stores[0].claim_info("unit", KEY) is None  # no claim left behind

    def test_budget_evicts_with_counters(self, kind, open_store):
        store = open_store(max_bytes=1_000)
        keys = [f"{index:064d}" for index in range(6)]
        for key in keys:
            store.put(key, _entry(kind, pad=400))
        listing = store.ls()
        assert 1 <= len(listing) <= 2  # bounded by the budget
        assert sum(row["size_bytes"] for row in listing) <= 1_000
        assert keys[-1] in {row["key"] for row in listing}  # newest always kept
        drained = store.drain_stats()
        assert drained[f"{store.codec.kind}_evictions"] == 6 - len(listing)
        assert drained["evicted_bytes"] > 0


class TestCounterContention:
    def test_concurrent_tallies_never_lose_increments(self, tmp_path):
        # More threads than cores, switching as often as the interpreter
        # allows: a lost read-modify-write would show as a short count.
        store = ArtifactStore(backend=MemoryBackend())
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: [store.note_wait() for _ in range(2_000)])
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert store.drain_stats().artifact_claim_waits == 16_000


class TestQuarantineProperty:
    @pytest.mark.parametrize("kind", sorted(STORES))
    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(position=st.integers(min_value=0, max_value=1 << 16), flip=st.integers(1, 255))
    @example(position=10, flip=0xD7)  # FRAME length's top byte: OverflowError on unpickle
    def test_mutated_entry_never_raises_and_undecodable_is_quarantined(
        self, kind, tmp_path_factory, position, flip
    ):
        store = STORES[kind](tmp_path_factory.mktemp("mutated"))
        store.put(KEY, _entry(kind))
        filename = KEY + store.codec.suffix
        blob = bytearray(store.backend.get("unit", filename))
        blob[position % len(blob)] ^= flip
        store.backend.put("unit", filename, bytes(blob))
        try:
            store.codec.decode(bytes(blob))
        except Exception:
            decodable = False
        else:
            decodable = True
        loaded = store.get("unit", KEY)  # never raises, whatever the bytes
        drained = store.drain_stats()
        if decodable:
            assert loaded is not None and drained["corrupt"] == 0
        else:
            assert loaded is None
            assert drained["corrupt"] == drained["quarantined"] == 1
            assert (store.root / "corrupt" / "unit" / filename).read_bytes() == bytes(blob)


# -- numeric stack: entries of another Python/numpy are misses -------------------------


def _run_under(monkeypatch, *, python=None, numpy_version=None):
    """Make this process report another Python and/or numpy version."""
    if python is not None:
        monkeypatch.setattr(platform, "python_version", lambda: python)
    if numpy_version is not None:
        # The store reads numpy's version from its installed version.py.
        monkeypatch.setattr(store_module, "numpy_version", lambda: numpy_version)


def _bumped_minor(version):
    major, minor = version.split(".")[:2]
    return f"{major}.{int(minor) + 1}.0"


class TestNumericStack:
    def test_entries_record_the_stack(self):
        assert numeric_stack() == {"python": platform.python_version(), "numpy": np.__version__}
        assert run_provenance().items() >= numeric_stack().items()

    def test_numpy_version_is_read_without_importing_numpy(self):
        script = (
            "import sys\n"
            "from repro.runner.store import numpy_version\n"
            "version = numpy_version()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "print(version)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(store_module.__file__).resolve().parents[2])}
        read = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert read.returncode == 0, read.stderr
        assert read.stdout.strip() == np.__version__

    @pytest.mark.parametrize("changed", ["python", "numpy"])
    def test_other_major_minor_is_a_miss_not_corruption(self, kind, open_store, monkeypatch, changed):
        store = open_store()
        entry = _entry(kind)
        entry.provenance.update(numeric_stack())
        store.put(KEY, entry)
        assert store.get("unit", KEY) is not None  # same stack: a hit
        with monkeypatch.context() as patched:
            # A patch release of the same major.minor still hits.
            _run_under(
                patched,
                python=entry.provenance["python"].rpartition(".")[0] + ".99",
                numpy_version=entry.provenance["numpy"].rpartition(".")[0] + ".99",
            )
            assert store.get("unit", KEY) is not None
        with monkeypatch.context() as patched:
            if changed == "python":
                _run_under(patched, python=_bumped_minor(platform.python_version()))
            else:
                _run_under(patched, numpy_version=_bumped_minor(np.__version__))
            assert store.get("unit", KEY) is None
            assert store.exists("unit", KEY)  # left in place for the recompute, not quarantined
        drained = store.drain_stats()
        assert drained[f"{store.codec.kind}_stale"] == 1
        assert drained["corrupt"] == drained["quarantined"] == 0
        assert store.get("unit", KEY) is not None  # the original stack hits again

    def test_unrecorded_versions_are_not_held_against_an_entry(self, kind, open_store, monkeypatch):
        store = open_store()
        store.put(KEY, _entry(kind))  # provenance records no versions
        _run_under(monkeypatch, python="2.7.18", numpy_version="1.0.0")
        assert store.get("unit", KEY) is not None

    def test_runner_recomputes_a_stale_entry_under_the_same_key(self, tmp_path, monkeypatch):
        runner = _toy_runner(tmp_path, monkeypatch)
        (cold,) = runner.run_many([("toy", {"x": 3})])
        _run_under(monkeypatch, numpy_version=_bumped_minor(np.__version__))
        (stale,) = runner.run_many([("toy", {"x": 3})])
        assert stale.cached is False and stale.key == cold.key  # no key changes
        assert json.dumps(stale.rows) == json.dumps(cold.rows)
        (warm,) = runner.run_many([("toy", {"x": 3})])  # the recompute overwrote it
        assert warm.cached is True and warm.key == cold.key
        assert load_stats(runner.cache.root).result_stale == 1


# -- retry backoff ------------------------------------------------------------------


class TestBackoff:
    @staticmethod
    def _executor_formula(base, cap, attempt, seed):
        """The executor's retry delay as it was written before the merge."""
        delay = min(cap, base * (2 ** max(0, attempt - 1)))
        jitter = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()[0] / 255.0
        return delay * (0.5 + 0.5 * jitter)

    @staticmethod
    def _netstore_formula(base, cap, attempt, seed):
        """The networked store's reconnect delay as it was written before the merge."""
        delay = min(cap, base * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
        return delay * (0.5 + 0.5 * digest[0] / 255.0)

    @pytest.mark.parametrize(
        "seed, attempt, base, cap",
        [
            ("table1", 1, 0.05, 2.0),
            ("fig6:artifact", 3, 0.05, 2.0),
            ("fig6:artifact", 12, 0.05, 2.0),  # capped
            ("tcp://127.0.0.1:8484:get", 1, 0.05, 0.5),
            ("tcp://127.0.0.1:8484:claim", 4, 0.05, 0.5),
            ("", 0, 1.0, 1.0),
        ],
    )
    def test_one_helper_keeps_both_delays(self, seed, attempt, base, cap):
        delay = backoff_delay(seed, attempt, base, cap)
        assert delay == self._executor_formula(base, cap, attempt, seed)
        assert delay == self._netstore_formula(base, cap, attempt, seed)
        assert 0.5 * min(cap, base * 2 ** max(0, attempt - 1)) <= delay <= cap


# -- stale-claim detection ----------------------------------------------------------


def _dead_pid():
    """A pid with no live process (freshly exited child)."""
    process = multiprocessing.Process(target=lambda: None)
    process.start()
    process.join()
    pid = process.pid
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} still probeable after exit")  # pragma: no cover


class TestStaleClaims:
    def test_dead_owner_on_this_host_is_stale(self):
        import repro.runner.backends as backends

        ticket = ClaimTicket(pid=_dead_pid(), host=backends._HOST, created_unix=time.time())
        assert ticket.is_stale()

    def test_live_owner_is_not_stale_until_ttl(self):
        import repro.runner.backends as backends

        ticket = ClaimTicket(pid=os.getpid(), host=backends._HOST, created_unix=time.time())
        assert not ticket.is_stale()
        wedged = ClaimTicket(
            pid=os.getpid(), host=backends._HOST, created_unix=time.time() - 10.0
        )
        assert wedged.is_stale(ttl_seconds=5.0)  # alive but wedged past the TTL

    def test_foreign_host_falls_back_to_ttl(self):
        fresh = ClaimTicket(pid=1, host="another-box", created_unix=time.time())
        assert not fresh.is_stale(ttl_seconds=60.0)
        old = ClaimTicket(pid=1, host="another-box", created_unix=time.time() - 120.0)
        assert old.is_stale(ttl_seconds=60.0)

    def test_torn_ticket_ages_by_file_mtime(self, tmp_path):
        # A ticket with unreadable bytes is either mid-write (fresh: must
        # NOT be stolen) or truly torn by a killed writer (expires by TTL).
        backend = DiskBackend(tmp_path)
        token = tmp_path / "ns" / ".k.json.claim"
        token.parent.mkdir(parents=True)
        token.write_text("{torn bytes")
        ticket = backend.claim_info("ns", "k.json")
        assert ticket is not None and not ticket.is_stale(ttl_seconds=60.0)
        old = time.time() - 120.0
        os.utime(token, (old, old))
        ticket = backend.claim_info("ns", "k.json")
        assert ticket is not None and ticket.is_stale(ttl_seconds=60.0)


# -- wait_for_fill ------------------------------------------------------------------


class TestWaitForFill:
    def test_waiter_reads_the_winners_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        assert cache.claim("toy", key)

        def fill():
            time.sleep(0.15)
            cache.put(key, _result_entry(rows=[{"winner": 1}]))

        filler = threading.Thread(target=fill)
        filler.start()
        try:
            entry = wait_for_fill(cache, "toy", key)
        finally:
            filler.join()
        assert entry is not None and entry.rows == [{"winner": 1}]

    def test_stale_claim_is_taken_over(self, tmp_path, monkeypatch):
        import repro.runner.backends as backends

        cache = ResultCache(tmp_path)
        key = "b" * 64
        # A dead process claimed the address and never filled it.
        token = tmp_path / "toy" / f".{key}.json.claim"
        token.parent.mkdir(parents=True)
        token.write_text(
            json.dumps(
                {"pid": _dead_pid(), "host": backends._HOST, "created_unix": time.time()}
            )
        )
        assert wait_for_fill(cache, "toy", key) is None  # we must compute ...
        ticket = cache.claim_info("toy", key)
        assert ticket is not None and ticket.pid == os.getpid()  # ... owning the claim

    def test_takeover_rechecks_for_a_finished_fill(self, tmp_path):
        # The filled-then-released window: the winner's entry landed but the
        # waiter read "no claim" first.  The re-check must find the entry
        # instead of recomputing it.
        cache = ResultCache(tmp_path)
        key = "c" * 64
        cache.put(key, _result_entry(rows=[{"done": 1}]))
        entry = wait_for_fill(cache, "toy", key)
        assert entry is not None and entry.rows == [{"done": 1}]
        assert cache.claim_info("toy", key) is None  # no claim left behind

    def test_blown_deadline_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_WAIT_SECONDS", "0.15")
        cache = ResultCache(tmp_path)
        key = "d" * 64
        assert cache.claim("toy", key)  # a live claim that never fills
        start = time.monotonic()
        assert wait_for_fill(cache, "toy", key, poll_seconds=0.01) is None
        assert time.monotonic() - start < 5.0


# -- exactly-once concurrent fill ---------------------------------------------------


class TestConcurrentFill:
    def test_threads_racing_one_address_compute_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def producer(*, x):
            calls.append(x)
            time.sleep(0.1)  # hold the claim long enough for losers to wait
            return {"value": x * 2}

        results = [None] * 6
        def fill(slot):
            results[slot] = produce_into(store, "demo", {"x": 21}, producer)

        threads = [threading.Thread(target=fill, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert calls == [21]  # exactly one compute
        assert all(entry.payload == {"value": 42} for entry in results)
        drained = store.drain_stats()
        assert drained["claims"] == 1
        assert drained["claim_waits"] == 5

    def test_processes_racing_one_address_compute_once(self, tmp_path):
        root = tmp_path / "store"
        side_effects = tmp_path / "computes.log"
        processes = [
            multiprocessing.Process(target=_process_fill, args=(root, side_effects))
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        # The producer ran in exactly one process ...
        assert len(side_effects.read_text().splitlines()) == 1
        # ... and every process left no claim behind.
        store = ArtifactStore(root)
        entry = store.get("shared", "e" * 64)
        assert entry is not None and entry.payload == {"value": 14}


class TestRemoteCoordination:
    """Fleet-level claim semantics through the networked backend."""

    def test_stale_claim_takeover_through_remote(self, tmp_path):
        import repro.runner.backends as backends
        from repro.runner.netstore import RemoteBackend, StoreServer

        with StoreServer(tmp_path / "server") as server:
            key = "b" * 64
            # A dead client claimed the address on the server and never filled.
            token = server.root / "toy" / f".{key}.json.claim"
            token.parent.mkdir(parents=True)
            token.write_text(
                json.dumps(
                    {"pid": _dead_pid(), "host": backends._HOST, "created_unix": time.time()}
                )
            )
            cache = ResultCache(backend=RemoteBackend(server.url))
            ticket = cache.claim_info("toy", key)
            assert ticket is not None and ticket.is_stale()  # visible over the wire
            assert wait_for_fill(cache, "toy", key) is None  # we must compute ...
            ticket = cache.claim_info("toy", key)
            assert ticket is not None and ticket.pid == os.getpid()  # ... owning the claim

    def test_threads_racing_one_address_through_remote_compute_once(self, tmp_path):
        from repro.runner.netstore import RemoteBackend, StoreServer

        with StoreServer(tmp_path / "server") as server:
            # Six contenders, each its own connection -- the claim ticket on
            # the server arbitrates exactly-once across all of them.
            stores = [
                ArtifactStore(backend=RemoteBackend(server.url)) for _ in range(6)
            ]
            calls = []

            def producer(*, x):
                calls.append(x)
                time.sleep(0.1)  # hold the claim long enough for losers to wait
                return {"value": x * 2}

            results = [None] * len(stores)

            def fill(slot):
                results[slot] = produce_into(stores[slot], "demo", {"x": 21}, producer)

            threads = [
                threading.Thread(target=fill, args=(slot,)) for slot in range(len(stores))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert calls == [21]  # exactly one compute, fleet-wide
            assert all(entry.payload == {"value": 42} for entry in results)
            drained = [store.drain_stats() for store in stores]
            assert sum(d["claims"] for d in drained) == 1
            assert sum(d["claim_waits"] for d in drained) == len(stores) - 1


def _process_fill(root, side_effects):
    """Module-level for pickling; one contender in the multi-process race."""
    store = ArtifactStore(root)

    def producer(*, x):
        with open(side_effects, "a") as handle:  # O_APPEND: one line per compute
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.2)
        return {"value": x * 2}

    entry = produce_into(store, "shared", {"x": 7}, producer, key="e" * 64)
    assert entry.payload == {"value": 14}


# -- bounded stores / LRU eviction --------------------------------------------------


class TestEviction:
    def _fill(self, backend, count, size=100):
        for index in range(count):
            backend.put("ns", f"{index}.json", b"x" * size)
            time.sleep(0.01)  # distinct mtimes on coarse filesystems

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_least_recently_used_goes_first(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        self._fill(backend, 4)
        backend.get("ns", "0.json")  # refresh the oldest entry
        evicted, freed = evict_lru(backend, 250)
        assert (evicted, freed) == (2, 200)
        survivors = [filename for _ns, filename in backend.iter()]
        assert survivors == ["0.json", "3.json"]  # refreshed + newest survive

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_under_budget_is_a_no_op(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        self._fill(backend, 3)
        assert evict_lru(backend, 10_000) == (0, 0)

    def test_oversized_protected_entry_survives(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("ns", "huge.json", b"x" * 1000)
        # Protected (just written): the store is bounded by
        # max(budget, largest entry), never emptied below one entry.
        assert evict_lru(backend, 100, keep={("ns", "huge.json")}) == (0, 0)
        assert backend.stat("ns", "huge.json") is not None
        # Unprotected on a later write, it is fair game.
        assert evict_lru(backend, 100) == (1, 1000)

    def test_claimed_entries_are_never_evicted(self, tmp_path):
        backend = DiskBackend(tmp_path)
        self._fill(backend, 2)
        backend.put("ns", "filling.json", b"y" * 100)
        backend.claim("ns", "filling.json")  # an in-flight refill owns it
        evicted, _freed = evict_lru(backend, 100)
        assert evicted == 2
        assert [filename for _ns, filename in backend.iter()] == ["filling.json"]

    def test_quarantine_is_exempt_from_the_budget(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("ns", "bad.json", b"x" * 10_000)
        backend.quarantine("ns", "bad.json")
        backend.put("ns", "good.json", b"x" * 50)
        # The quarantined 10k does not count toward (or get freed for) the cap.
        assert evict_lru(backend, 100, keep={("ns", "good.json")}) == (0, 0)
        assert (tmp_path / "corrupt" / "ns" / "bad.json").exists()

    def test_eviction_races_concurrent_reads_safely(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=2_000)
        keys = [cache_key("toy", json.dumps({"i": i}), "f" * 64) for i in range(12)]
        failures = []

        def reader():
            for _ in range(200):
                for key in keys:
                    entry = cache.get("toy", key)  # entry or miss, never an error
                    if entry is not None and entry.experiment != "toy":
                        failures.append(key)

        thread = threading.Thread(target=reader)
        thread.start()
        for key in keys:  # writes drive eviction under the reader's feet
            cache.put(key, _result_entry(pad=400))
        thread.join()
        assert failures == []
        drained = cache.drain_stats()
        assert drained["evictions"] > 0
        assert drained["corrupt"] == 0  # a raced read is a miss, never corruption

    def test_env_budget_is_wired(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert ResultCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv("REPRO_ARTIFACTS_MAX_BYTES", "999")
        assert ArtifactStore(tmp_path).max_bytes == 999
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")  # 0/invalid = unbounded
        assert ResultCache(tmp_path).max_bytes is None


# -- warm replay under eviction pressure --------------------------------------------


TOY_SOURCE = '''\
"""Toy experiment driver for store tests (milliseconds per run)."""

PARAMS = {"x": 2}


def run(*, x=2):
    return [{"x": x, "y": x * x}]


def render(rows):
    return "\\n".join(f"{row['x']} -> {row['y']}" for row in rows)
'''


def _toy_runner(tmp_path, monkeypatch, *, cache=None):
    import importlib

    module_dir = tmp_path / "modules"
    module_dir.mkdir(exist_ok=True)
    module_name = f"storetoy_{uuid.uuid4().hex[:8]}"
    (module_dir / f"{module_name}.py").write_text(TOY_SOURCE)
    monkeypatch.syspath_prepend(str(module_dir))
    module = importlib.import_module(module_name)
    spec = ExperimentSpec.from_module("toy", module)
    return ExperimentRunner(
        cache=cache if cache is not None else ResultCache(tmp_path / "cache"),
        registry={"toy": spec},
    )


class TestRunnerUnderPressure:
    def test_warm_replay_is_bit_identical_under_eviction(self, tmp_path, monkeypatch):
        # A cap small enough to evict most entries: warm reruns recompute
        # the evicted ones and must reproduce the cold rows byte-for-byte.
        runner = _toy_runner(
            tmp_path, monkeypatch, cache=ResultCache(tmp_path / "cache", max_bytes=2_000)
        )
        requests = [("toy", {"x": x}) for x in range(8)]
        cold = runner.run_many(list(requests))
        warm = runner.run_many(list(requests))
        assert json.dumps([r.rows for r in warm]) == json.dumps([r.rows for r in cold])
        counters = load_stats(runner.cache.root)
        assert counters.result_evictions > 0

    def test_memory_backed_runner_needs_no_disk(self, tmp_path, monkeypatch):
        runner = _toy_runner(
            tmp_path, monkeypatch, cache=ResultCache(backend=MemoryBackend())
        )
        assert runner.cache.root is None
        (cold,) = runner.run_many([("toy", {"x": 6})])
        (warm,) = runner.run_many([("toy", {"x": 6})])
        assert cold.cached is False and warm.cached is True
        assert warm.rows == cold.rows == [{"x": 6, "y": 36}]
        assert list(tmp_path.glob("cache*")) == []  # nothing persisted anywhere

    def test_claims_and_misses_balance_in_counters(self, tmp_path, monkeypatch):
        runner = _toy_runner(tmp_path, monkeypatch)
        runner.run_many([("toy", {"x": 1}), ("toy", {"x": 2}), ("toy", {"x": 1})])
        counters = load_stats(runner.cache.root)
        # Two unique cold fills, each computed under a won claim; the
        # duplicate request neither claims nor waits.
        assert counters.result_misses == 3
        assert counters.result_claims == 2
        assert counters.result_claim_waits == 0


# -- stats: append-only log ---------------------------------------------------------


class TestStatsLog:
    def test_concurrent_recorders_never_lose_increments(self, tmp_path):
        # Regression: the old read-modify-write snapshot dropped concurrent
        # deltas; the O_APPEND log must keep every one of them.
        threads = [
            threading.Thread(
                target=lambda: record_stats(tmp_path, StoreStats(result_hits=1))
            )
            for _ in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert load_stats(tmp_path).result_hits == 32

    def test_legacy_snapshot_still_counts(self, tmp_path):
        (tmp_path / "_stats.json").write_text(json.dumps({"result_hits": 5}))
        total = record_stats(tmp_path, StoreStats(result_hits=2, result_claims=1))
        assert total.result_hits == 7
        assert total.result_claims == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        record_stats(tmp_path, StoreStats(artifact_hits=3))
        with open(tmp_path / "_stats.jsonl", "a") as handle:
            handle.write('{"artifact_hits": 99')  # killed mid-append
        assert load_stats(tmp_path).artifact_hits == 3

    def test_reset_clears_log_and_snapshot(self, tmp_path):
        (tmp_path / "_stats.json").write_text(json.dumps({"result_hits": 5}))
        record_stats(tmp_path, StoreStats(result_hits=2))
        reset_stats(tmp_path)
        assert load_stats(tmp_path).result_hits == 0


# -- CLI surface --------------------------------------------------------------------


class TestCliBudget:
    def test_cache_max_bytes_flag_bounds_the_store(self, tmp_path, capsys):
        # Big enough for one table1 entry (~1.3k) but never two.
        common = ["--cache-dir", str(tmp_path), "--cache-max-bytes", "2000"]
        assert main(["run", "table1", "--param", "samples=40", "--param", "seed=3", *common]) == 0
        assert main(["run", "table1", "--param", "samples=40", "--param", "seed=9", *common]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        # The second run evicted the first entry past the cap.
        assert summary["results"]["entries"] == 1
        assert summary["results"]["bytes"] <= 2000
        assert summary["results"]["evictions"] >= 1
        assert summary["results"]["evicted_bytes"] > 0
        assert summary["results"]["claims"] == 2
