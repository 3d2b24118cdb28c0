"""Static code fingerprints for cache invalidation.

The result cache keys every entry on a *code fingerprint*: a digest over the
source of the experiment driver plus every in-package module it (transitively)
imports.  Editing any model an experiment depends on therefore invalidates
exactly the experiments that import it, while leaving unrelated cache entries
valid.

The import closure is resolved statically (``ast`` walk over ``import`` /
``from ... import`` statements) so computing a fingerprint never executes
experiment code; only modules inside the root package (``repro`` by default)
participate.

Parsing is the expensive part, and a module's imports are a pure function of
its bytes, so each module's raw import candidates are memoised on a content
key -- ``sha256(this file's digest, root, package flag, sha256(source))`` --
and persisted in the ``_imports.json`` sidecar under a result-cache root
(:func:`load_import_memo` / :func:`save_import_memo`).  A fresh process with
a warm sidecar still reads and hashes every module of the closure, but
parses none.  The sidecar is never part of a cache key: fingerprints hash
module sources only, whichever way the closure was found.

The same parse also records the module-level literals the registry reads
instead of importing a driver (:data:`DECLARED_NAMES`, served by
:func:`static_declarations`), so a warm launch lists every experiment's
parameters without importing any of them.

Nothing here imports the modules it fingerprints, nor their parent
packages: a dotted name is resolved against the top-level package's
``__path__`` (or, for a package not imported yet, the path finder's spec,
which imports nothing) as ``a/b.py`` or ``a/b/__init__.py``.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import importlib.machinery
import json
import logging
import os
import sys
import threading
from pathlib import Path

logger = logging.getLogger(__name__)

#: Import-candidate memo file under a result-cache root.
IMPORTS_FILENAME = "_imports.json"
_MEMO_VERSION = 1

#: Module-level names whose values :func:`static_declarations` reads from
#: source: an experiment driver's parameter, object-parameter and artifact
#: declarations (see :mod:`repro.runner.registry`).
DECLARED_NAMES = ("PARAMS", "OBJECT_PARAMS", "ARTIFACTS")

# CPython's ``ast.parse`` keeps its AST-to-object recursion depth in shared
# interpreter state on some versions (3.11 raises ``SystemError: AST
# constructor recursion depth mismatch`` under concurrent parses), so parsing
# is serialised, and so is ``ast.literal_eval``, which parses too.  Cheap:
# parses happen only on a memo miss -- a module seen for the first time, or
# edited since its candidates were recorded.
_PARSE_LOCK = threading.Lock()

#: One memo entry: ``(content key, raw import candidates, declarations)``;
#: declarations map each of :data:`DECLARED_NAMES` the module assigns at top
#: level to the source text of the assigned expression.
_Entry = tuple[str, tuple[str, ...], dict[str, str]]

#: ``"<root>:<module>"`` -> its entry, shared by every fingerprint in the
#: process and seeded from loaded sidecars.
_memo: dict[str, _Entry] = {}
#: Entries parsed by this process and not yet saved.
_added: dict[str, _Entry] = {}
#: Sidecars already loaded by this process.
_loaded: set[Path] = set()
_MEMO_LOCK = threading.Lock()


def _parse_source(source: bytes) -> ast.AST:
    with _PARSE_LOCK:
        return ast.parse(source)


@functools.lru_cache(maxsize=None)
def _self_digest() -> str:
    """Digest of this file: entries of another version of the extractor never match."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def _locate(module_name: str) -> tuple[Path | None, bool]:
    """``(source file or None, is a package)`` of ``module_name``; imports nothing.

    ``importlib.util.find_spec`` would import every parent package of a
    dotted name, and with it whatever that package's ``__init__`` imports.
    Instead the top-level package is taken from ``sys.modules`` (the root
    package is imported before anything is fingerprinted) or, if it is not
    imported, from the path finder's spec, and each further part is
    ``<part>/__init__.py`` (a package) or ``<part>.py`` in the parent's
    ``__path__`` -- the order the path finder tries source files in.
    Anything else (namespace packages, extension or frozen modules) has no
    source to hash.
    """
    head, *rest = module_name.split(".")
    top = sys.modules.get(head)
    if top is not None:
        spec = getattr(top, "__spec__", None)
        if spec is None:  # ``__main__`` run as a script, a hand-made module
            return None, False
        locations, origin = getattr(top, "__path__", None), spec.origin
    else:
        try:
            spec = importlib.machinery.PathFinder.find_spec(head)
        except (ImportError, ValueError):
            spec = None
        if spec is None:
            return None, False
        locations, origin = spec.submodule_search_locations, spec.origin
    for part in rest:
        if locations is None:  # the parent is a plain module
            return None, False
        for directory in locations:
            # String paths: a few hundred lookups per launch, where pathlib
            # objects cost more than the stat calls.
            package = os.path.join(directory, part)
            if os.path.isfile(init := os.path.join(package, "__init__.py")):
                locations, origin = [package], init
                break
            if os.path.isfile(module := f"{package}.py"):
                locations, origin = None, module
                break
        else:
            return None, False
    if origin is None or not origin.endswith(".py"):
        return None, locations is not None
    return Path(origin), locations is not None


@functools.lru_cache(maxsize=None)
def _module_path(module_name: str) -> Path | None:
    """Source file of ``module_name``, or ``None`` if it has no .py origin."""
    return _locate(module_name)[0]


@functools.lru_cache(maxsize=None)
def _is_package(module_name: str) -> bool:
    return _locate(module_name)[1]


def _in_root(candidate: str | None, root: str) -> bool:
    return bool(candidate) and (candidate == root or candidate.startswith(root + "."))


def _resolve_import_base(node: ast.ImportFrom, module_name: str) -> str | None:
    """Absolute module named by a ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    # Relative import: resolve against the importing module's package.
    package = module_name if _is_package(module_name) else module_name.rpartition(".")[0]
    parts = package.split(".")
    if node.level - 1 >= len(parts):
        return None
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    base = ".".join(parts)
    return f"{base}.{node.module}" if node.module else base


def _import_candidates(module_name: str, nodes, root: str) -> set[str]:
    """Root-package names the import statements among ``nodes`` may load.

    Raw candidates: ``from pkg import name`` contributes ``pkg.name`` whether
    or not that is a module, so a submodule file added later joins the
    closure once :func:`_module_path` can find it.
    """
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if _in_root(alias.name, root))
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import_base(node, module_name)
            if _in_root(base, root):
                found.add(base)
                # ``from pkg import name`` may name a submodule.
                found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _declarations(tree: ast.Module) -> dict[str, str]:
    """Source text of each top-level assignment to one of :data:`DECLARED_NAMES`.

    Only the module body's own statements count (the last assignment wins,
    as it would on import); the text is evaluated by
    :func:`static_declarations`, which is what rejects a non-literal.
    """
    found: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id in DECLARED_NAMES:
                found[target.id] = ast.unparse(node.value)
    return found


def _entry(module_name: str, source: bytes, source_hash: str, root: str) -> _Entry:
    """The memo entry of ``source``, parsed only when no entry matches its content key."""
    name = f"{root}:{module_name}"
    # The package flag is keyed too: it decides how relative imports resolve.
    key = hashlib.sha256(
        f"{_self_digest()}\0{root}\0{_is_package(module_name)}\0{source_hash}".encode()
    ).hexdigest()
    entry = _memo.get(name)
    if entry is None or entry[0] != key:
        tree = _parse_source(source)
        candidates = _import_candidates(module_name, _walk_importable(tree), root)
        entry = (key, tuple(sorted(candidates)), _declarations(tree))
        with _MEMO_LOCK:
            _memo[name] = _added[name] = entry
    return entry


def _imported_modules(module_name: str, source: bytes, source_hash: str, root: str) -> list[str]:
    """Root-package modules imported directly by ``source``.

    The candidates come from the memo when its entry's content key matches
    (no parse); the existence filter is applied on every read, so a module
    file that appears or vanishes is seen without invalidating the entry.
    Module locations are memoised per process -- module files are assumed
    not to *move* while a process runs.
    """
    _key, candidates, _declared = _entry(module_name, source, source_hash, root)
    return [candidate for candidate in candidates if _module_path(candidate) is not None]


def static_declarations(module_name: str, *, root: str = "repro") -> dict[str, object]:
    """The values ``module_name`` assigns to :data:`DECLARED_NAMES`, without importing it.

    Read from the source the fingerprint hashes and memoised with its import
    candidates, so a warm process evaluates a few literals and parses no
    module.  Names the module does not assign are absent; a value that is
    not a plain literal raises :class:`TypeError`.
    """
    path = _module_path(module_name)
    if path is None:
        raise ModuleNotFoundError(f"no source file for module {module_name!r}", name=module_name)
    source = path.read_bytes()
    _key, _candidates, declared = _entry(module_name, source, hashlib.sha256(source).hexdigest(), root)
    values: dict[str, object] = {}
    for name, text in declared.items():
        try:
            with _PARSE_LOCK:
                values[name] = ast.literal_eval(text)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as error:
            raise TypeError(f"{module_name}: {name} must be a plain literal, not {text!r}") from error
    return values


def _is_main_guard(node: ast.AST) -> bool:
    """Exactly ``if __name__ == "__main__":`` -- dead code for an imported module.

    The operator and comparator are both checked: ``if __name__ != ...`` or a
    comparison against anything but ``"__main__"`` *does* run on import and
    must keep contributing to the fingerprint.
    """
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and len(node.test.ops) == 1
        and isinstance(node.test.ops[0], ast.Eq)
        and len(node.test.comparators) == 1
        and isinstance(node.test.comparators[0], ast.Constant)
        and node.test.comparators[0].value == "__main__"
    )


def _is_type_checking_guard(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` -- never runs.

    ``typing.TYPE_CHECKING`` is ``False`` at runtime, so imports under the
    guard exist only for annotations and cannot influence computed results;
    counting them would couple consumers of a *type* to the implementation
    module's whole closure.
    """
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


#: The fields that hold statement lists (``handlers`` holds except clauses,
#: ``cases`` match arms, both of which hold statement lists in turn).
#: Imports are statements, so expression subtrees never need a visit.
_STATEMENT_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _walk_importable(tree: ast.AST):
    """Every statement of ``tree`` except ``__main__``-guard and ``TYPE_CHECKING`` bodies.

    Imports under those guards (the drivers' CLI shims, annotation-only type
    imports) never execute when the module is imported by the runner, so they
    must not contribute to the fingerprint -- otherwise editing the CLI would
    invalidate every cached experiment result.
    """
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        if _is_main_guard(node) or _is_type_checking_guard(node):
            pending.extend(node.orelse)  # the else branch *does* run on import
            continue
        for field in _STATEMENT_FIELDS:
            pending.extend(getattr(node, field, ()))


def _closure_digests(module_name: str, root: str) -> dict[str, str]:
    """``{module: sha256(source)}`` over ``module_name``'s import closure.

    Each module is read and hashed once; the hash keys its memo entry too.
    """
    digests: dict[str, str] = {}
    pending = [module_name]
    while pending:
        current = pending.pop()
        if current in digests:
            continue
        path = _module_path(current)
        if path is None:
            continue
        source = path.read_bytes()
        digests[current] = source_hash = hashlib.sha256(source).hexdigest()
        for imported in _imported_modules(current, source, source_hash, root):
            if imported not in digests:
                pending.append(imported)
    return digests


def module_closure(module_name: str, *, root: str = "repro") -> list[str]:
    """Transitive in-package import closure of ``module_name``, sorted.

    Includes ``module_name`` itself.  Resolution is purely static; modules
    whose source cannot be located are skipped.
    """
    return sorted(_closure_digests(module_name, root))


def code_fingerprint(module_name: str, *, root: str = "repro") -> str:
    """Hex digest over the sources of ``module_name``'s import closure.

    Deterministic across processes and machines for identical sources: the
    closure is sorted and each module contributes ``name:sha256(source)``.
    """
    digest = hashlib.sha256()
    for name, source_hash in sorted(_closure_digests(module_name, root).items()):
        digest.update(f"{name}:{source_hash}\n".encode())
    return digest.hexdigest()


# -- the persisted memo ---------------------------------------------------------------


def _read_memo(path: Path) -> dict[str, _Entry]:
    """The well-formed entries of the sidecar at ``path`` (none if unreadable).

    Whatever is wrong with the file -- missing, truncated, garbage, another
    shape -- costs only the parses it would have saved.
    """
    try:
        document = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return {}
    if not isinstance(document, dict) or document.get("version") != _MEMO_VERSION:
        return {}
    raw = document.get("entries")
    if not isinstance(raw, dict):
        return {}
    entries = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict):
            continue
        key, imports = entry.get("key"), entry.get("imports")
        declared = entry.get("declarations", {})
        root = name.partition(":")[0]
        if (
            isinstance(key, str)
            and isinstance(imports, list)
            and all(isinstance(candidate, str) and _in_root(candidate, root) for candidate in imports)
            and isinstance(declared, dict)
            and all(
                declaration in DECLARED_NAMES and isinstance(text, str)
                for declaration, text in declared.items()
            )
        ):
            entries[name] = (key, tuple(imports), declared)
    return entries


def load_import_memo(cache_root: Path | str) -> None:
    """Seed the process memo from ``<cache_root>/_imports.json`` (once per process)."""
    path = Path(cache_root) / IMPORTS_FILENAME
    with _MEMO_LOCK:
        if path in _loaded:
            return
        _loaded.add(path)
        for name, entry in _read_memo(path).items():
            _memo.setdefault(name, entry)


def save_import_memo(cache_root: Path | str) -> None:
    """Merge the entries this process parsed into ``<cache_root>/_imports.json``.

    A no-op unless something was parsed since the last save.  The write is
    a read-merge plus an atomic ``os.replace``, so concurrent savers never
    leave a torn file (the last one wins, and both wrote valid entries);
    an unwritable root is logged and skipped.
    """
    path = Path(cache_root) / IMPORTS_FILENAME
    with _MEMO_LOCK:
        if not _added:
            return
        entries = _read_memo(path)
        entries.update(_added)
        document = {
            "version": _MEMO_VERSION,
            "entries": {
                name: {"key": key, "imports": list(imports)}
                | ({"declarations": declared} if declared else {})
                for name, (key, imports, declared) in sorted(entries.items())
            },
        }
        temporary = path.with_name(f".{IMPORTS_FILENAME}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary.write_text(json.dumps(document, separators=(",", ":")))
            os.replace(temporary, path)
        except OSError as error:
            logger.debug("could not save the import memo at %s (%s)", path, error)
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
            return
        _added.clear()
