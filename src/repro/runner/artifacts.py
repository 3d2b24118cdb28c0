"""Content-addressed store for cross-experiment *sub-experiment* artifacts.

The result cache (PR 3) deduplicates whole experiment runs, but a cold
``run all`` still recomputes shared intermediates: table1, fig2 and fig3
each need the same multiplier characterisation, and fig6's AlexNet
precision search re-derives one layer profile after another on a single
core.  This module stores those intermediates -- multiplier
characterisations, trained networks, per-layer precision profiles,
sparsity workloads -- under content addresses mirroring the result-cache
keying::

    sha256(schema version + artifact name + canonical params + producer fingerprint)

The *producer fingerprint* is the static import-closure digest
(:func:`repro.runner.fingerprint.code_fingerprint`) of the producer's
module, so an edit to ``core/scaling.py`` invalidates exactly the
characterisation artifact and its consumers' result entries -- never
fig6's trained weights.

Two layers use the store:

* the scheduler (:mod:`repro.runner.service`) resolves each driver's
  declared ``ARTIFACTS`` into a producer/consumer DAG and fills the store
  in topological waves over worker processes before cold experiments run;
* producer modules expose *resolvers* built on :func:`resolve_artifact`:
  with a store active they load-or-compute (and therefore hit after the
  scheduler's wave); without one they compute inline, so direct driver
  calls behave exactly as before the store existed.

Concurrent fillers (workers in one run, or whole fleets sharing a store)
coordinate through the store's first-writer-wins claims:
:func:`produce_into` computes only after winning the fill claim, and
losers wait for the winner's entry instead of duplicating the work.  The
byte budget (``$REPRO_ARTIFACTS_MAX_BYTES``) is deliberately separate from
the result cache's cap, so a tight result budget cannot thrash multi-MB
trained networks.

:class:`ArtifactStore` only binds the pickle codec to
:class:`~repro.runner.store.ContentStore`, which owns the storage
semantics.  Pickles are safe here for the same reason the result cache's
JSON is trusted: the store root is a local directory owned by the user
running the experiments.  This module deliberately imports nothing from
the runner package except :mod:`~repro.runner.fingerprint`,
:mod:`~repro.runner.store` and the stdlib-only
:mod:`~repro.runner.backends`, so a driver's lazy
``from ..runner.artifacts import ...`` keeps the result cache and CLI out
of its fingerprint closure.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import logging
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .backends import claim_is_owned, wait_for_fill
from .fingerprint import code_fingerprint
from .store import Codec, ContentStore, default_cache_root, numeric_stack
from .store import StoreStats, load_stats, record_stats, reset_stats  # noqa: F401 - re-exported

logger = logging.getLogger(__name__)

#: Bumped when the on-disk artifact layout changes; part of every key.
ARTIFACT_SCHEMA_VERSION = 1


def default_artifact_root() -> Path:
    """``<result-cache root>/artifacts`` (honours ``$REPRO_CACHE_DIR``)."""
    return default_cache_root() / "artifacts"


def canonical_params_json(params: Mapping[str, object]) -> str:
    """Deterministic JSON form of artifact parameters (tuples as arrays)."""
    return json.dumps(
        {key: list(value) if isinstance(value, tuple) else value for key, value in params.items()},
        sort_keys=True,
        separators=(",", ":"),
    )


def artifact_key(artifact: str, params: Mapping[str, object], fingerprint: str) -> str:
    """Content address of one artifact: name + canonical params + producer code."""
    blob = json.dumps(
        {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "artifact": artifact,
            "params": canonical_params_json(params),
            "fingerprint": fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load_producer(producer: str) -> Callable[..., object]:
    """Resolve a ``"package.module:function"`` producer path to its callable."""
    module_name, separator, function_name = producer.partition(":")
    if not separator or not module_name or not function_name:
        raise ValueError(f"producer {producer!r} is not of the form 'module:function'")
    module = importlib.import_module(module_name)
    function = getattr(module, function_name, None)
    if not callable(function):
        raise TypeError(f"producer {producer!r} does not name a callable")
    return function


@dataclass
class ArtifactEntry:
    """One stored artifact: payload plus the provenance to trust it."""

    artifact: str
    params: dict[str, object]
    fingerprint: str
    payload: object
    elapsed_seconds: float
    provenance: dict[str, object] = field(default_factory=dict)

    def to_document(self) -> dict[str, object]:
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "artifact": self.artifact,
            "params": self.params,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "provenance": self.provenance,
            "payload": self.payload,
        }

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "ArtifactEntry":
        return cls(
            artifact=str(document["artifact"]),
            params=dict(document["params"]),
            fingerprint=str(document["fingerprint"]),
            payload=document["payload"],
            elapsed_seconds=float(document["elapsed_seconds"]),
            provenance=dict(document.get("provenance", {})),
        )


class ArtifactStore(ContentStore):
    """Content-addressed store of sub-experiment intermediates: the pickle codec.

    Root defaults to :func:`default_artifact_root`; the byte budget to
    ``$REPRO_ARTIFACTS_MAX_BYTES``.
    """

    codec = Codec(
        kind="artifact",
        site="artifact",
        label="artifact",
        suffix=".pkl",
        schema=ARTIFACT_SCHEMA_VERSION,
        entry_type=ArtifactEntry,
        dumps=pickle.dumps,
        loads=pickle.loads,
        env_max_bytes="REPRO_ARTIFACTS_MAX_BYTES",
        default_root=default_artifact_root,
    )


# -- active store -------------------------------------------------------------------
#
# Producer-module resolvers find the store through this process-wide slot:
# the scheduler activates it around in-process executions, and workers
# activate it from the store root shipped with their task.  When nothing is
# active (direct driver calls, tests), resolvers compute inline.

#: Sentinel for "nothing activated": fall through to ``$REPRO_ARTIFACTS_DIR``.
#: Distinct from ``None``, which means *explicitly disabled* -- the no-reuse
#: paths (``use_artifacts=False``, workers handed ``artifacts_root=None``)
#: must stay reuse-free even when the environment variable is set.
_INHERIT: object = object()

_ACTIVE_STORE: ArtifactStore | None | object = _INHERIT


def active_store() -> ArtifactStore | None:
    """The store resolvers should use, or ``None`` to compute inline.

    Priority: whatever ``activated`` installed (a store, or ``None`` for an
    explicit no-reuse scope), else a store at ``$REPRO_ARTIFACTS_DIR`` when
    that variable is set, else none.
    """
    if _ACTIVE_STORE is not _INHERIT:
        return _ACTIVE_STORE
    env = os.environ.get("REPRO_ARTIFACTS_DIR")
    if env:
        return ArtifactStore(env)
    return None


@contextlib.contextmanager
def activated(store: ArtifactStore | None):
    """Temporarily make ``store`` the active one (``None`` disables reuse).

    Passing ``None`` is an explicit *no-store* scope: resolvers compute
    inline even if ``$REPRO_ARTIFACTS_DIR`` is set, so no-reuse runs stay
    genuinely reuse-free.
    """
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = store
    try:
        yield store
    finally:
        _ACTIVE_STORE = previous


def _artifact_provenance() -> dict[str, object]:
    return {"created_unix": round(time.time(), 3), **numeric_stack()}


def produce_into(
    store: ArtifactStore,
    artifact: str,
    params: Mapping[str, object],
    producer: Callable[..., object],
    *,
    key: str | None = None,
    fingerprint: str | None = None,
) -> ArtifactEntry:
    """Compute one artifact (store active for nested resolvers) and persist it.

    First-writer-wins: losing the fill claim means a concurrent producer is
    already computing this address, so wait for its entry instead of
    duplicating the work.  A stale claim (dead producer) is taken over; a
    blown wait deadline falls back to computing *uncached* -- wasteful but
    deterministic, never corrupting, and never touching the claim some
    live producer still owns.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint(producer.__module__)
    if key is None:
        key = artifact_key(artifact, params, fingerprint)
    owns_claim = store.claim(artifact, key)
    if not owns_claim:
        store.note_wait()
        entry = wait_for_fill(store, artifact, key)
        if entry is not None:
            return entry
        # Either we took the claim over (dead producer) or the wait deadline
        # expired and someone else still owns it; only an owned claim may be
        # released or cleared by our put.
        owns_claim = claim_is_owned(store, artifact, key)
    try:
        with activated(store):
            start = time.perf_counter()
            payload = producer(**dict(params))
            elapsed = time.perf_counter() - start
    except BaseException:
        if owns_claim:
            store.release_claim(artifact, key)
        raise
    entry = ArtifactEntry(
        artifact=artifact,
        params=dict(params),
        fingerprint=fingerprint,
        payload=payload,
        elapsed_seconds=elapsed,
        provenance=_artifact_provenance(),
    )
    if owns_claim:
        try:
            store.put(key, entry)
        except OSError as error:  # full/read-only disk: degrade to uncached
            store.release_claim(artifact, key)
            logger.warning("artifact store write failed for %s (%s); continuing uncached",
                           artifact, error)
    return entry


def resolve_artifact(
    artifact: str,
    params: Mapping[str, object],
    *,
    producer: Callable[..., object],
) -> object:
    """Load-or-compute one artifact through the active store.

    With no active store the producer runs inline and nothing is persisted
    -- results are bit-identical either way, because producers are
    deterministic functions of their parameters.
    """
    store = active_store()
    if store is None:
        return producer(**dict(params))
    fingerprint = code_fingerprint(producer.__module__)
    key = artifact_key(artifact, params, fingerprint)
    entry = store.get(artifact, key)
    if entry is not None:
        return entry.payload
    return produce_into(
        store, artifact, params, producer, key=key, fingerprint=fingerprint
    ).payload
