"""Content-addressed on-disk store for experiment results.

A cache entry is keyed by a digest of *what would run*: the experiment
callable's identity, its full keyword arguments (including ``scale``
and ``seed``), and a fingerprint of the ``repro`` source tree.  Any
edit to the package (outside ``repro.runner`` itself, which cannot
change experiment outcomes) produces a new fingerprint, so stale
results are unreachable rather than invalidated — re-runs after
unrelated edits (docs, tests, examples) are near-instant cache hits.
The unit of that promise is a run: each run's :class:`ResultCache`
fingerprints the tree once, so an edit is picked up by the next run,
never halfway through one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from ..experiments.common import ExperimentResult, canonical_json

#: bump when the cache entry layout or key derivation changes
#: (v2: the experiment's declared parameter schema joined the key, so
#: a schema change invalidates stale cached results)
CACHE_SCHEMA = "pgmcc.result-cache/v2"

DEFAULT_CACHE_DIR = Path("results") / "cache"

#: subpackages that cannot affect experiment outcomes (the orchestrator
#: machinery itself) and are excluded from the source fingerprint
FINGERPRINT_EXCLUDE = ("runner",)

_FINGERPRINTS: dict[tuple, str] = {}


def _source_files(roots: Iterable[os.PathLike | str],
                  exclude: tuple[str, ...]) -> list[tuple]:
    """``(relative parts, path, size, mtime_ns)`` of every ``*.py``
    under ``roots`` outside the top-level entries named in ``exclude``,
    ordered as ``sorted(root.rglob("*.py"))`` is: by parts, not by
    string (``a/b.py`` before ``a-b/c.py``)."""
    files = []
    for root in sorted(Path(r).resolve() for r in set(map(str, roots))):
        found, pending = [], [((), str(root))]
        while pending:
            parts, directory = pending.pop()
            with os.scandir(directory) as entries:
                for entry in entries:
                    if not parts and entry.name in exclude:
                        continue
                    here = (*parts, entry.name)
                    if entry.name.endswith(".py"):
                        st = entry.stat()
                        found.append(
                            (here, entry.path, st.st_size, st.st_mtime_ns))
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((here, entry.path))
        files += sorted(found)
    return files


def source_fingerprint(roots: Iterable[os.PathLike | str] | None = None,
                       exclude: tuple[str, ...] = FINGERPRINT_EXCLUDE) -> str:
    """Digest of every ``*.py`` under ``roots`` (default: the installed
    ``repro`` package).

    Each call walks and stats the tree, so it sees any edit made before
    it; content hashing is memoised behind that stat signature (path,
    size, mtime), so an unchanged tree is read once per process.
    """
    if roots is None:
        import repro

        roots = (Path(repro.__file__).parent,)
    files = tuple(_source_files(roots, exclude))
    cached = _FINGERPRINTS.get(files)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for parts, path, _, _ in files:
        h.update(os.sep.join(parts).encode())
        h.update(b"\0")
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
        h.update(b"\0")
    digest = h.hexdigest()
    _FINGERPRINTS[files] = digest
    return digest


#: sentinel: "resolve the parameter schema from the experiment registry"
_REGISTRY_SCHEMA = object()


def _schema_for(experiment: str) -> Any:
    """Declared parameter schema for a ``module:func`` target (None
    when unregistered/undeclared).  Kept here so every cache-key
    producer — the orchestrator, ``fetch_or_run``, the sweep DSL —
    derives the identical key for the identical target."""
    from ..experiments.registry import schema_for_target

    return schema_for_target(experiment)


def task_digest(experiment: str, kwargs: dict[str, Any], source: str,
                param_schema: Any = _REGISTRY_SCHEMA) -> str:
    """Cache key: experiment identity + full kwargs + declared
    parameter schema + source fingerprint.

    ``param_schema`` defaults to a registry lookup by the
    ``module:func`` target; pass an explicit schema doc (or None) to
    pin it.  A schema edit therefore changes the key and makes stale
    cached results unreachable even if the source fingerprint is
    excluded for that path.
    """
    if param_schema is _REGISTRY_SCHEMA:
        param_schema = _schema_for(experiment)
    payload = {
        "schema": CACHE_SCHEMA,
        "experiment": experiment,
        "kwargs": kwargs,
        "param_schema": param_schema,
        "source": source,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def callable_id(fn: Callable) -> str:
    """Stable identity of an experiment callable (``module:qualname``)."""
    return f"{fn.__module__}:{fn.__qualname__}"


#: the keys of a normal form; ``telemetry`` joins them when it is set
_NORMAL_KEYS = frozenset(("name", "params", "rows", "metrics", "expectation"))


def _normal_form(data: Any) -> dict[str, Any]:
    """A parsed entry's result as :meth:`ExperimentResult.to_dict`
    would give it.  JSON has already normalised every value, so an entry
    with exactly that shape is its own normal form; any other is
    normalised once (``from_dict`` raises for one that is no result)."""
    if (type(data) is dict
            and data.keys() - {"telemetry"} == _NORMAL_KEYS
            and data.get("telemetry", {}) is not None
            and type(data["params"]) is dict
            and type(data["rows"]) is list
            and type(data["metrics"]) is dict):
        return data
    return ExperimentResult.from_dict(data).to_dict()


class ResultCache:
    """Content-addressed store: ``<root>/<d[:2]>/<digest>.json``.

    One object serves one run.  The source tree is fingerprinted on
    first use and that one value keys every lookup and stamps the
    manifest, so keys and ``source_digest`` agree and the workers are
    forked from the fingerprinted tree; an edit is picked up by the
    next ``ResultCache``, i.e. the next run.
    """

    def __init__(self, root: os.PathLike | str = DEFAULT_CACHE_DIR, *,
                 source_roots: Iterable[os.PathLike | str] | None = None,
                 exclude: tuple[str, ...] = FINGERPRINT_EXCLUDE):
        self.root = Path(root)
        self._dir = os.fspath(self.root)
        self._roots = tuple(source_roots) if source_roots else None
        self._exclude = exclude
        self._source: str | None = None

    def source_digest(self) -> str:
        if self._source is None:
            self._source = source_fingerprint(self._roots, self._exclude)
        return self._source

    def digest_for(self, experiment: str, kwargs: dict[str, Any],
                   param_schema: Any = _REGISTRY_SCHEMA) -> str:
        return task_digest(experiment, kwargs, self.source_digest(),
                           param_schema)

    def _path(self, digest: str) -> str:
        """``root/<first two hex digits>/<digest>.json``, joined as a
        string: a cache hit makes no ``pathlib`` object."""
        return f"{self._dir}{os.sep}{digest[:2]}{os.sep}{digest}.json"

    def get(self, digest: str) -> dict[str, Any] | None:
        """The stored result's normal form; an entry that is missing,
        unreadable or not an :class:`ExperimentResult` is a miss (None),
        not an error: the cell is recomputed and ``put`` overwrites it."""
        try:
            with open(self._path(digest)) as entry:
                data = json.loads(entry.read())
            if data["schema"] == CACHE_SCHEMA:
                return _normal_form(data["result"])
        except (OSError, ValueError, LookupError, TypeError):
            pass
        return None

    def put(self, digest: str, result: dict[str, Any],
            meta: dict[str, Any] | None = None) -> Path:
        """Store ``result``, a normal form, under ``digest``."""
        path = Path(self._path(digest))
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "saved_at": time.time(),
            "meta": meta or {},
            "result": result,
        }
        # a temp name per writer: runs sharing the directory may store
        # the same cell at the same time
        tmp = path.with_suffix(f".{os.urandom(8).hex()}.tmp")
        try:
            tmp.write_text(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def fetch_or_run(self, fn: Callable[..., ExperimentResult],
                     kwargs: dict[str, Any]) -> tuple[ExperimentResult, bool]:
        """Return ``(result, cache_hit)`` for ``fn(**kwargs)``.

        The key is shared with the orchestrator's tasks: a sweep cell
        and a ``repro.runner`` run of the same experiment at the same
        parameters reuse each other's results.
        """
        digest = self.digest_for(callable_id(fn), kwargs)
        cached = self.get(digest)
        if cached is not None:
            return ExperimentResult.from_dict(cached), True
        result = fn(**kwargs)
        self.put(digest, result.to_dict(),
                 meta={"experiment": callable_id(fn)})
        return result, False
