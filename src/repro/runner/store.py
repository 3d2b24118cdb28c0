"""One content-addressed store, bound to a codec per kind of entry.

The reproduction content-addresses two kinds of entry, each a
:class:`ContentStore` bound to one :class:`Codec`:

* :class:`~repro.runner.cache.ResultCache` -- whole experiment runs, JSON
  blobs at ``<root>/<experiment>/<key>.json``;
* :class:`~repro.runner.artifacts.ArtifactStore` -- shared sub-experiment
  intermediates, pickles at ``<root>/artifacts/<artifact>/<key>.pkl``.

Entries are opaque blobs addressed by ``(namespace, <key> + suffix)`` on a
:class:`~repro.runner.backends.StoreBackend` (disk by default, in-memory or
networked on request).  The store owns every semantic above the bytes:

* **names** -- a namespace (experiment/artifact name) is a single path
  component, never a traversal;
* **reads** -- any blob the codec cannot decode (bad bytes, a wrong schema,
  a broken document shape: whatever the decoder raises) is corrupt.  It is
  quarantined into the ``corrupt/`` sidecar for forensics and the read is a
  miss, so the entry is recomputed.  A blob that simply vanished (raced
  ``unlink``) is a plain miss, and so is an entry whose provenance records
  another Python or numpy major.minor (*stale*: computed by another numeric
  stack, so it is recomputed and overwritten under the same key);
* **writes** -- atomic (temp file + ``os.replace`` on disk), with the
  ``<site>.write`` / ``<site>.written`` fault sites around them;
* **fill claims** -- first-writer-wins (``<site>.claim``): of N processes
  cold-filling one address exactly one computes, the rest wait on
  :func:`~repro.runner.backends.wait_for_fill`;
* **a byte budget** -- LRU eviction past ``max_bytes`` after every write
  (``<site>.evict``); in-flight fills, the entry just written and the
  quarantine sidecar are never evicted;
* **listings** -- ``ls`` is read-only: it never refreshes LRU stamps and
  never quarantines;
* **counters** -- tallied per store and drained as a :class:`StoreStats`
  delta under the codec's ``result_`` / ``artifact_`` prefix; the runner
  appends the deltas to the ``_stats.jsonl`` log under the cache root.

This module imports only the standard library, :mod:`repro.faults` and
the stdlib-only :mod:`~repro.runner.backends` (numpy's version is read from
its installed ``version.py``, without importing numpy): it sits in the
drivers' fingerprint closure (through the artifact store) without dragging
the runner package in, and a warm store read loads no numpy.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import logging
import os
import platform
import re
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterator, Mapping

from ..faults import fault_point
from .backends import ClaimTicket, DiskBackend, StoreBackend, env_max_bytes, evict_lru

logger = logging.getLogger(__name__)

#: Sidecar directory (under a store root) corrupt entries are moved into.
QUARANTINE_DIRNAME = "corrupt"

#: Legacy snapshot file (under the shared cache root) of the counters.
#: Still read for totals; new deltas land in :data:`STATS_LOG_FILENAME`.
STATS_FILENAME = "_stats.json"

#: Append-only counter log: one JSON delta per line, written with
#: ``O_APPEND`` so concurrent recorders never lose increments (the old
#: read-modify-write snapshot dropped updates under contention).
STATS_LOG_FILENAME = "_stats.jsonl"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/dvafs-repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dvafs-repro"


# -- counters -------------------------------------------------------------------------


@dataclass
class StoreStats:
    """Counters of the result cache and the artifact store.

    Persisted under the shared cache root and reset by ``python -m repro
    cache clear``.  Deltas are *appended* to ``_stats.jsonl`` (one JSON
    line per drain, ``O_APPEND``), so concurrent recorders -- several
    runners sharing one store -- never lose increments; totals are the sum
    of the legacy ``_stats.json`` snapshot and every logged delta.
    """

    #: Counters each store keeps under its own ``result_``/``artifact_`` prefix.
    PER_STORE: ClassVar[tuple[str, ...]] = (
        "hits", "misses", "corrupt", "stale", "claims", "claim_waits", "evictions",
        "evicted_bytes",
    )
    #: Every counter, in declaration order (set below the class).
    FIELDS: ClassVar[tuple[str, ...]]

    result_hits: int = 0
    result_misses: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    #: Corrupt entries detected (and treated as misses) per store.
    result_corrupt: int = 0
    artifact_corrupt: int = 0
    #: Entries recorded by another Python/numpy major.minor (read as misses).
    result_stale: int = 0
    artifact_stale: int = 0
    #: Corrupt entries successfully moved into a ``corrupt/`` sidecar dir.
    quarantined: int = 0
    #: Execution units re-attempted after a crash or timeout.
    retried: int = 0
    #: Fill claims won (exactly-once computes under concurrent writers).
    result_claims: int = 0
    artifact_claims: int = 0
    #: Fills lost to a concurrent winner (waited instead of recomputing).
    result_claim_waits: int = 0
    artifact_claim_waits: int = 0
    #: Entries evicted past the store byte budgets, and the bytes freed.
    result_evictions: int = 0
    artifact_evictions: int = 0
    result_evicted_bytes: int = 0
    artifact_evicted_bytes: int = 0
    #: Fill waits that exhausted the hard deadline and computed uncached
    #: (both stores combined).
    claim_wait_timeouts: int = 0
    #: Networked-store traffic (both stores combined): entries served by
    #: the remote tier, operations that exhausted their retries, and times
    #: the circuit breaker opened (degradation to local-only).
    remote_hits: int = 0
    remote_errors: int = 0
    breaker_opens: int = 0

    def __getitem__(self, name: str) -> int:
        """A counter by field name; a bare per-store name sums both stores.

        A store's drained delta only sets its own prefix, so
        ``store.drain_stats()["claims"]`` is that store's claim count.
        """
        if name in self.FIELDS:
            return getattr(self, name)
        if name in self.PER_STORE:
            return getattr(self, f"result_{name}") + getattr(self, f"artifact_{name}")
        raise KeyError(name)

    def to_document(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def add(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            **{name: getattr(self, name) + getattr(other, name) for name in self.FIELDS}
        )

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "StoreStats":
        return cls(
            **{
                name: int(document.get(name, 0))
                for name in cls.FIELDS
                if isinstance(document.get(name, 0), int)
            }
        )


StoreStats.FIELDS = tuple(field.name for field in fields(StoreStats))


def load_stats(root: Path | str) -> StoreStats:
    """The persisted counters at ``root`` (zeros when absent/corrupt).

    Totals = the legacy ``_stats.json`` snapshot (pre-append-log caches)
    plus every delta line in ``_stats.jsonl``; torn/invalid lines are
    skipped rather than poisoning the total.
    """
    root = Path(root)
    total = StoreStats()
    try:
        document = json.loads((root / STATS_FILENAME).read_text())
    except (OSError, ValueError):
        document = None
    if isinstance(document, dict):
        total = StoreStats.from_document(document)
    try:
        log_text = (root / STATS_LOG_FILENAME).read_text()
    except OSError:
        return total
    for line in log_text.splitlines():
        try:
            delta = json.loads(line)
        except ValueError:  # torn final line from a killed writer
            continue
        if isinstance(delta, dict):
            total = total.add(StoreStats.from_document(delta))
    return total


def record_stats(root: Path | str, delta: StoreStats) -> StoreStats:
    """Append ``delta`` to the persisted counters; returns the new total.

    One compact JSON line per call, written with ``O_APPEND`` (well under
    ``PIPE_BUF``, so concurrent appends never interleave): recorders from
    many processes sharing one store root all land, where the previous
    read-modify-write snapshot silently dropped concurrent increments.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    line = json.dumps(delta.to_document(), sort_keys=True, separators=(",", ":")) + "\n"
    descriptor = os.open(
        str(root / STATS_LOG_FILENAME), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
    )
    try:
        os.write(descriptor, line.encode())
    finally:
        os.close(descriptor)
    return load_stats(root)


def reset_stats(root: Path | str) -> None:
    """Delete the persisted counters (the next run starts from zero)."""
    for filename in (STATS_FILENAME, STATS_LOG_FILENAME):
        try:
            (Path(root) / filename).unlink()
        except OSError:
            pass


# -- numeric stack --------------------------------------------------------------------


#: The ``version = "..."`` line of numpy's generated ``numpy/version.py``.
_NUMPY_VERSION_LINE = re.compile(rb"""^version\s*=\s*['"]([^'"]+)['"]""", re.MULTILINE)


@functools.lru_cache(maxsize=None)
def numpy_version() -> str:
    """The installed numpy's version, read without importing numpy.

    Locating the package (``find_spec`` of a top-level name imports
    nothing) and reading the literal in its ``version.py`` takes ~0.3 ms;
    ``importlib.metadata`` takes 15-30 ms and ``import numpy`` ~200 ms.  A
    numpy without that file is imported after all.
    """
    spec = importlib.util.find_spec("numpy")
    for directory in getattr(spec, "submodule_search_locations", None) or ():
        try:
            match = _NUMPY_VERSION_LINE.search(Path(directory, "version.py").read_bytes())
        except OSError:
            continue
        if match is not None:
            return match.group(1).decode()
    import numpy

    return numpy.__version__


def numeric_stack() -> dict[str, str]:
    """The Python and numpy versions this process computes with.

    Every entry records them in its provenance; :func:`_same_numeric_stack`
    checks them on read.
    """
    return {"python": platform.python_version(), "numpy": numpy_version()}


def _major_minor(version: str) -> list[str]:
    return version.split(".")[:2]


def _same_numeric_stack(provenance: Mapping[str, object]) -> bool:
    """``False`` when ``provenance`` records another Python or numpy major.minor.

    Versions an entry does not record are not held against it.  Keys stay
    as they are, so a stale entry is simply recomputed and overwritten.
    """
    for name, running in numeric_stack().items():
        recorded = provenance.get(name)
        if isinstance(recorded, str) and _major_minor(recorded) != _major_minor(running):
            return False
    return True


# -- the store ------------------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """Everything that tells one kind of store from another.

    ``entry_type`` round-trips through ``to_document()`` /
    ``from_document()``; documents carry ``schema`` and are (de)serialised
    by ``dumps`` / ``loads``.  ``label`` names both the entry attribute
    holding its namespace and that column of :meth:`ContentStore.ls`;
    ``columns`` adds codec-specific listing columns (given ``None`` for an
    undecodable entry).
    """

    kind: str  # counter prefix: "result" -> result_corrupt, ...
    site: str  # fault-site prefix: "cache" -> cache.write, ...
    label: str
    suffix: str
    schema: int
    entry_type: Any
    dumps: Callable[[dict[str, object]], bytes]
    loads: Callable[[bytes], object]
    env_max_bytes: str
    default_root: Callable[[], Path]
    columns: Callable[[Any], dict[str, object]] = lambda entry: {}

    def encode(self, entry: Any) -> bytes:
        return self.dumps(entry.to_document())

    def decode(self, blob: bytes) -> Any:
        """The entry in ``blob``; raises on anything that is not a current one."""
        document = self.loads(blob)
        if not isinstance(document, dict) or document.get("schema") != self.schema:
            raise ValueError(f"not a schema-{self.schema} {self.kind} document")
        return self.entry_type.from_document(document)


class ContentStore:
    """Content-addressed entries of one :class:`Codec` over a pluggable backend.

    ``backend`` defaults to a :class:`~repro.runner.backends.DiskBackend`
    at ``root`` (or the codec's default root); pass a
    :class:`~repro.runner.backends.MemoryBackend` for an ephemeral store
    (tests, the service's warm-path L1).  ``max_bytes`` (default: the
    codec's budget environment variable) bounds the store via LRU eviction
    after every write; ``None``/``0`` leaves it unbounded.
    """

    codec: ClassVar[Codec]

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: StoreBackend | None = None,
        max_bytes: int | None = None,
    ):
        if backend is None:
            backend = DiskBackend(Path(root) if root is not None else self.codec.default_root())
        self.backend = backend
        self.root = backend.root
        self.max_bytes = max_bytes if max_bytes is not None else env_max_bytes(self.codec.env_max_bytes)
        #: Tallies since the last :meth:`drain_stats`; the runner drains
        #: them into the persisted store counters.  Threads share stores
        #: (the HTTP service, in-process fill races), hence the lock.
        self._recent = StoreStats()
        self._lock = threading.Lock()

    def _address(self, namespace: str, key: str) -> tuple[str, str]:
        """``(namespace, filename)`` of one entry; namespaces never traverse."""
        if Path(namespace).name != namespace or namespace in ("", ".", ".."):
            raise ValueError(f"invalid {self.codec.label} name {namespace!r}")
        return namespace, key + self.codec.suffix

    def _count(self, counter: str, amount: int = 1) -> None:
        """Tally ``amount`` on ``counter``, under this store's prefix if it is per-store."""
        name = f"{self.codec.kind}_{counter}" if counter in StoreStats.PER_STORE else counter
        with self._lock:
            setattr(self._recent, name, getattr(self._recent, name) + amount)

    def drain_stats(self) -> StoreStats:
        """Counters tallied since the last drain, as a delta; resets them.

        Per-store counters (``corrupt``, ``claims``, ``claim_waits``,
        ``evictions``, ``evicted_bytes``) land under the codec's prefix;
        ``quarantined``, ``claim_wait_timeouts`` and, when the backend is
        networked, its drained remote counters are shared fields.
        """
        with self._lock:
            drained, self._recent = self._recent, StoreStats()
        drain_remote = getattr(self.backend, "drain_remote_counters", None)
        if drain_remote is not None:
            drained = drained.add(StoreStats.from_document(drain_remote()))
        return drained

    # -- entries ----------------------------------------------------------------------

    def get(self, namespace: str, key: str) -> Any | None:
        """The stored entry, or ``None`` on a miss.

        Whatever the codec raises on a readable blob counts as corruption:
        the entry is quarantined, so it stops being re-read on every probe
        and stays inspectable, and the caller sees a miss and recomputes.
        An entry computed by another numeric stack is a miss too, but it is
        left in place for the recompute to overwrite.  Reads refresh the
        entry's LRU stamp.
        """
        namespace, filename = self._address(namespace, key)
        blob = self.backend.get(namespace, filename)
        if blob is None:  # missing or unreadable: a plain miss, not corruption
            return None
        try:
            entry = self.codec.decode(blob)
        except Exception:
            logger.debug("quarantining undecodable %s/%s", namespace, filename, exc_info=True)
            self._count("corrupt")
            if self.backend.quarantine(namespace, filename):
                self._count("quarantined")
            return None
        if not _same_numeric_stack(entry.provenance):
            logger.debug("%s/%s was computed by another numeric stack", namespace, filename)
            self._count("stale")
            return None
        return entry

    def exists(self, namespace: str, key: str) -> bool:
        """Cheap presence probe (no decoding, no LRU touch)."""
        return self.backend.stat(*self._address(namespace, key)) is not None

    def put(self, key: str, entry: Any) -> Path | None:
        """Atomically persist one entry; returns its path (``None`` off-disk).

        The write clears any fill claim on the address (entry first, claim
        second -- waiters observing "no claim" are guaranteed the entry)
        and then enforces the store's byte budget.
        """
        namespace, filename = self._address(getattr(entry, self.codec.label), key)
        fault_point(f"{self.codec.site}.write", key=namespace)
        self.backend.put(namespace, filename, self.codec.encode(entry))
        path = self.backend.path(namespace, filename)
        fault_point(f"{self.codec.site}.written", key=namespace, path=path)
        self._enforce_budget(namespace, filename)
        return path

    # -- concurrent-fill claims -------------------------------------------------------

    def claim(self, namespace: str, key: str) -> bool:
        """Try to win the fill claim for one content address.

        ``True`` means this process computes the entry (and its ``put``
        clears the claim); ``False`` means a concurrent filler owns it and
        the caller should wait via
        :func:`repro.runner.backends.wait_for_fill`.
        """
        address = self._address(namespace, key)
        if not self.backend.claim(*address):
            return False
        try:
            fault_point(f"{self.codec.site}.claim", key=namespace)
        except BaseException:
            # Never leak a claim: a fault/crash between winning and filling
            # would otherwise wedge every waiter until the stale-claim TTL.
            self.backend.release(*address)
            raise
        self._count("claims")
        return True

    def claim_info(self, namespace: str, key: str) -> ClaimTicket | None:
        """The in-flight fill ticket for an address, if any."""
        return self.backend.claim_info(*self._address(namespace, key))

    def release_claim(self, namespace: str, key: str) -> bool:
        """Drop the claim on an address (no-op if none is held)."""
        return self.backend.release(*self._address(namespace, key))

    def break_claim(self, namespace: str, key: str, ticket: ClaimTicket) -> bool:
        """Remove exactly ``ticket`` (a stale claim); fails if re-claimed."""
        return self.backend.release(*self._address(namespace, key), owner=ticket)

    def note_wait(self) -> None:
        """Tally one fill lost to a concurrent winner."""
        self._count("claim_waits")

    def note_wait_timeout(self) -> None:
        """Tally one wait that exhausted its deadline and computed locally."""
        self._count("claim_wait_timeouts")

    # -- bounded store ----------------------------------------------------------------

    def _enforce_budget(self, namespace: str, filename: str) -> None:
        """LRU-evict past ``max_bytes``, protecting the entry just written."""
        if not self.max_bytes:
            return

        def on_evict(evicted_namespace: str, name: str) -> None:
            fault_point(f"{self.codec.site}.evict", key=f"{evicted_namespace}/{name}")

        evicted, freed = evict_lru(
            self.backend, self.max_bytes, keep={(namespace, filename)}, on_evict=on_evict
        )
        if evicted:
            logger.debug(
                "evicted %d entr%s (%d bytes) past the %d-byte budget",
                evicted, "y" if evicted == 1 else "ies", freed, self.max_bytes,
            )
        self._count("evictions", evicted)
        self._count("evicted_bytes", freed)

    # -- listings ---------------------------------------------------------------------

    def _stored(self, namespace: str | None) -> Iterator[tuple[str, str, str]]:
        """``(namespace, filename, key)`` of stored entries, sorted."""
        if namespace is not None:
            self._address(namespace, "")  # rejects traversal before any listing
        suffix = self.codec.suffix
        for stored_namespace, filename in self.backend.iter(namespace):
            if filename.endswith(suffix):
                yield stored_namespace, filename, filename[: -len(suffix)]

    def entries(self, namespace: str | None = None) -> Iterator[tuple[str, Path | None]]:
        """(key, path) pairs of stored entries, sorted for stable listings."""
        for stored_namespace, filename, key in self._stored(namespace):
            yield key, self.backend.path(stored_namespace, filename)

    def ls(self, namespace: str | None = None) -> list[dict[str, object]]:
        """Metadata summary of stored entries (no payloads).

        Read-only: listing never refreshes an LRU stamp and never
        quarantines.  An undecodable entry is listed under its namespace
        with empty metadata.
        """
        listing = []
        for stored_namespace, filename, key in self._stored(namespace):
            blob = self.backend.get(stored_namespace, filename, touch=False)
            try:
                entry = self.codec.decode(blob) if blob is not None else None
            except Exception:
                entry = None
            stamp = self.backend.stat(stored_namespace, filename)
            listing.append(
                {
                    self.codec.label: stored_namespace if entry is None else getattr(entry, self.codec.label),
                    "key": key,
                    **self.codec.columns(entry),
                    "elapsed_seconds": None if entry is None else entry.elapsed_seconds,
                    "created_unix": None if entry is None else entry.provenance.get("created_unix"),
                    "size_bytes": stamp.size_bytes if stamp else 0,
                }
            )
        return listing

    def clear(self, namespace: str | None = None) -> int:
        """Delete stored entries (optionally of one namespace); returns count."""
        stored = list(self._stored(namespace))
        return sum(1 for name, filename, _key in stored if self.backend.delete(name, filename))

    def quarantine_summary(self) -> dict[str, int]:
        """Entry count and byte total of the ``corrupt/`` sidecar (zeros off-disk)."""
        sizes = []
        if self.root is not None:
            for path in (Path(self.root) / QUARANTINE_DIRNAME).rglob("*"):
                try:
                    if path.is_file():
                        sizes.append(path.stat().st_size)
                except OSError:  # pragma: no cover - raced deletion
                    continue
        return {"entries": len(sizes), "bytes": sum(sizes)}
