"""Experiment results: the JSON codec of the content-addressed store.

Every entry is one JSON blob under the ``(experiment, <key>.json)``
address -- by default ``<root>/<experiment>/<key>.json`` -- where the key
is ``sha256(experiment name + canonical params + code fingerprint)``.  The
payload carries the rows (serialised through
:meth:`repro.analysis.sweep.SweepResult.to_jsonable`, so replay is
bit-identical to a sanitised live run) plus provenance metadata: the exact
config, the fingerprint, interpreter/numpy/package versions and a creation
timestamp.  An entry recorded under another Python or numpy major.minor
reads as a miss (see :class:`~repro.runner.store.ContentStore`).

Storage semantics -- atomic writes, fill claims, the byte budget
(``--cache-max-bytes`` / ``$REPRO_CACHE_MAX_BYTES``), quarantine of any
undecodable entry, read-only listings and drained counters -- live in
:class:`~repro.runner.store.ContentStore`; :class:`ResultCache` only binds
the codec.  This module is the only store module that imports
:mod:`repro.analysis.sweep`, so artifact consumers' fingerprints never
include it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Mapping

from ..analysis.sweep import SweepResult
from .store import Codec, ContentStore, default_cache_root, numeric_stack

#: Bumped when the on-disk entry layout changes; part of every cache key.
SCHEMA_VERSION = 1


def cache_key(experiment: str, canonical_params_json: str, fingerprint: str) -> str:
    """Content address of one run: experiment + canonical params + code."""
    blob = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "experiment": experiment,
            "params": canonical_params_json,
            "fingerprint": fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheEntry:
    """One cached run: rows plus the provenance needed to trust/replay them."""

    experiment: str
    params: dict[str, object]
    fingerprint: str
    result: SweepResult
    elapsed_seconds: float
    provenance: dict[str, object] = field(default_factory=dict)

    @property
    def rows(self) -> list[dict[str, object]]:
        return self.result.records

    def to_document(self) -> dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "params": self.params,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "provenance": self.provenance,
            "result": {"records": self.result.to_jsonable()},
        }

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "CacheEntry":
        return cls(
            experiment=str(document["experiment"]),
            params=dict(document["params"]),
            fingerprint=str(document["fingerprint"]),
            result=SweepResult.from_jsonable(document["result"]["records"]),
            elapsed_seconds=float(document["elapsed_seconds"]),
            provenance=dict(document.get("provenance", {})),
        )


def run_provenance() -> dict[str, object]:
    """Environment metadata recorded next to every cached result."""
    from .. import __version__

    return {"created_unix": round(time.time(), 3), **numeric_stack(), "repro": __version__}


def _row_count(entry: CacheEntry | None) -> dict[str, object]:
    return {"rows": 0 if entry is None else len(entry.rows)}


class ResultCache(ContentStore):
    """Content-addressed store of experiment results: the JSON codec.

    Root defaults to :func:`~repro.runner.store.default_cache_root`; the
    byte budget to ``$REPRO_CACHE_MAX_BYTES``.
    """

    codec = Codec(
        kind="result",
        site="cache",
        label="experiment",
        suffix=".json",
        schema=SCHEMA_VERSION,
        entry_type=CacheEntry,
        dumps=lambda document: json.dumps(document, indent=1).encode(),
        loads=json.loads,
        env_max_bytes="REPRO_CACHE_MAX_BYTES",
        default_root=default_cache_root,
        columns=_row_count,
    )
