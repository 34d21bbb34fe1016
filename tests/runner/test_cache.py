"""Content-addressed cache: key derivation, round trip, invalidation."""

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.experiments.common import (ExperimentResult, canonical_json,
                                     digest_of)
from repro.runner import ResultCache, source_fingerprint, task_digest
from repro.runner.cache import CACHE_SCHEMA, FINGERPRINT_EXCLUDE

from . import _toy
from .test_orchestrator import GRID, orchestrate


def make_cache(tmp_path: Path, src: Path | None = None) -> ResultCache:
    roots = [src] if src is not None else None
    return ResultCache(tmp_path / "cache", source_roots=roots)


def make_source(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("Y = 1\n")
    return src


def reference_fingerprint(roots, exclude=FINGERPRINT_EXCLUDE) -> str:
    """The pathlib walk ``source_fingerprint`` used before it was
    rewritten over ``os.scandir``: kept here, sharing no code with the
    package, as the oracle for which files are hashed, in what order,
    under what names."""
    files = []
    for root in sorted(Path(r).resolve() for r in set(map(str, roots))):
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts and rel.parts[0] in exclude:
                continue
            files.append((root, path))
    h = hashlib.sha256()
    for root, path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
        h.update(b"\0")
    return h.hexdigest()


class TestFingerprintWalk:
    def test_matches_the_pathlib_reference_on_a_hostile_tree(self, tmp_path):
        first, second = tmp_path / "z_root", tmp_path / "a_root"
        for name in (
                "a/b.py", "a-b/c.py", "a.py",  # parts order != string order
                "one/two/three/deep.py",
                "notes.txt", "pkg/data.json", "__pycache__/x.pyc",
                "runner/excluded.py",  # only this top-level name is skipped
                "runner.py", "pkg/runner/z.py"):
            path = first / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"# {name}\n")
        (first / "empty").mkdir()
        second.mkdir()
        (second / "m.py").write_text("M = 1\n")

        roots = [first, second, str(first)]  # unsorted, one root twice
        assert source_fingerprint(roots) == reference_fingerprint(roots)
        assert (source_fingerprint(roots, exclude=())
                == reference_fingerprint(roots, exclude=()))
        assert (source_fingerprint(roots, exclude=("a", "runner.py"))
                == reference_fingerprint(roots, exclude=("a", "runner.py")))
        # and the tree exercises what it claims to
        with_runner = source_fingerprint([first], exclude=())
        assert with_runner != source_fingerprint([first])
        (first / "pkg/runner/z.py").write_text("Z = 2\n")
        (first / "runner.py").write_text("R = 2\n")
        assert source_fingerprint(roots) == reference_fingerprint(roots)

    def test_matches_the_pathlib_reference_on_the_package(self):
        package = Path(repro.__file__).parent
        assert source_fingerprint() == reference_fingerprint([package])


class TestDigests:
    def test_digest_stable(self, tmp_path):
        cache = make_cache(tmp_path)
        a = cache.digest_for("mod:run", {"scale": 0.5, "seed": 1})
        b = cache.digest_for("mod:run", {"seed": 1, "scale": 0.5})
        assert a == b  # kwarg order is canonicalised away

    def test_digest_changes_with_params(self, tmp_path):
        cache = make_cache(tmp_path)
        base = cache.digest_for("mod:run", {"scale": 0.5})
        assert cache.digest_for("mod:run", {"scale": 0.25}) != base
        assert cache.digest_for("mod:other", {"scale": 0.5}) != base

    def test_digest_changes_with_source(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "engine.py").write_text("X = 1\n")
        before = source_fingerprint([src])
        (src / "engine.py").write_text("X = 2\n")
        after = source_fingerprint([src])
        assert before != after
        kwargs = {"scale": 1.0}
        assert (task_digest("mod:run", kwargs, before)
                != task_digest("mod:run", kwargs, after))

    def test_fingerprint_ignores_runner_subpackage(self, tmp_path):
        src = tmp_path / "src"
        (src / "runner").mkdir(parents=True)
        (src / "core.py").write_text("A = 1\n")
        before = source_fingerprint([src])
        (src / "runner" / "pool.py").write_text("B = 2\n")
        assert source_fingerprint([src]) == before

    def test_tuple_and_list_kwargs_equivalent(self, tmp_path):
        """JSON canonicalisation: a tuple-valued param hits the same
        entry whether it arrives as tuple or list (cache round trip)."""
        cache = make_cache(tmp_path)
        assert (cache.digest_for("m:f", {"sizes": (1, 10)})
                == cache.digest_for("m:f", {"sizes": [1, 10]}))


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = make_cache(tmp_path)
        result = _toy.run_ok(scale=0.5, seed=3)
        digest = cache.digest_for("toy:run_ok", {"scale": 0.5, "seed": 3})
        cache.put(digest, result.to_dict())
        loaded = cache.get(digest)
        assert loaded is not None
        assert loaded == result.to_dict()
        assert digest_of(loaded) == result.digest()

    def test_get_miss_returns_none(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get("0" * 64) is None

    @pytest.mark.parametrize("content", [
        pytest.param(b"{not json", id="not-json"),
        pytest.param(json.dumps({"schema": CACHE_SCHEMA, "result": {
            "name": "toy"}}).encode()[:-9], id="truncated"),
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[]", id="list"),
        pytest.param(b"null", id="null"),
        pytest.param(json.dumps({"schema": CACHE_SCHEMA}).encode(),
                     id="no-result"),
        pytest.param(json.dumps({"schema": CACHE_SCHEMA,
                                 "result": "x"}).encode(), id="result-str"),
        pytest.param(json.dumps({"schema": CACHE_SCHEMA,
                                 "result": {}}).encode(), id="result-empty"),
    ])
    def test_corrupt_entry_is_a_miss(self, tmp_path, content):
        """Whatever does not yield an ExperimentResult is a miss, and
        the recomputed result overwrites it."""
        cache = make_cache(tmp_path)
        kwargs = {"scale": 0.5, "seed": 7}
        cache.fetch_or_run(_toy.run_ok, kwargs)
        (path,) = cache.root.rglob("*.json")
        path.write_bytes(content)
        assert cache.get(path.stem) is None
        _, hit = cache.fetch_or_run(_toy.run_ok, kwargs)
        assert not hit
        assert cache.get(path.stem) is not None

    def test_interleaved_puts_of_one_digest(self, tmp_path, monkeypatch):
        """Two runs sharing a cache directory finish the same cell: the
        second writer's whole put lands between the first's write and
        its rename."""
        cache = make_cache(tmp_path)
        digest = cache.digest_for("toy:run_ok", {})
        result = _toy.run_ok().to_dict()
        replace = os.replace

        def second_writer_first(src, dst):
            monkeypatch.setattr(os, "replace", replace)
            cache.put(digest, result)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_writer_first)
        cache.put(digest, result)
        assert cache.get(digest) == result
        assert list(cache.root.rglob("*.tmp*")) == []

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = make_cache(tmp_path)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.put("0" * 64, _toy.run_ok().to_dict())
        assert [p for p in cache.root.rglob("*") if p.is_file()] == []

    def test_fetch_or_run_miss_then_hit(self, tmp_path):
        src = make_source(tmp_path)
        cache = make_cache(tmp_path, src)
        result, hit = cache.fetch_or_run(_toy.run_ok, {"scale": 0.5, "seed": 7})
        assert not hit and result.metrics["value"] == 700.5
        again, hit = cache.fetch_or_run(_toy.run_ok, {"scale": 0.5, "seed": 7})
        assert hit and again.to_dict() == result.to_dict()
        # after a source edit the object of the run in progress keeps
        # its keys ...
        (src / "mod.py").write_text("Y = 2\n")
        _, hit = cache.fetch_or_run(_toy.run_ok, {"scale": 0.5, "seed": 7})
        assert hit
        # ... and the next run's ResultCache picks the edit up: the old
        # entry is unreachable for it
        _, hit = make_cache(tmp_path, src).fetch_or_run(
            _toy.run_ok, {"scale": 0.5, "seed": 7})
        assert not hit


class TestOneFingerprintPerRun:
    """A ResultCache fingerprints the source tree once, on first use."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """os.scandir calls, by directory (pathlib globs through it too)."""
        scans: Counter = Counter()
        scandir = os.scandir

        def counting_scandir(path="."):
            scans[os.fspath(path)] += 1
            return scandir(path)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        return scans

    def test_one_walk_however_many_lookups(self, tmp_path, scans):
        src = make_source(tmp_path)
        cache = make_cache(tmp_path, src)
        for seed in range(10):
            cache.digest_for("mod:run", {"seed": seed})
        assert scans[str(src)] == 1

    def test_one_walk_for_a_cold_and_a_warm_run(self, tmp_path, scans):
        src = make_source(tmp_path)
        cache = make_cache(tmp_path, src)
        cold = orchestrate(GRID, jobs=1, cache=cache).run()
        warm = orchestrate(GRID, jobs=1, cache=cache).run()
        hits = [run["totals"]["cache_hits"] for run in (cold, warm)]
        assert hits == [0, 4]
        assert scans[str(src)] == 1

    def test_edit_mid_run_keeps_keys_and_manifest_in_agreement(self, tmp_path):
        src = make_source(tmp_path)
        cache = make_cache(tmp_path, src)

        def edit_at_first_done(event):
            if event.kind == "done" and event.task_id == GRID[0].id:
                (src / "mod.py").write_text("Y = 2  # edited mid-run\n")

        manifest = orchestrate(GRID, jobs=1, cache=cache,
                               on_event=edit_at_first_done).run()
        assert manifest["totals"]["ok"] == 4
        stored = {path.stem for path in cache.root.rglob("*.json")}
        assert stored == {
            task_digest(f"{spec.module}:{spec.func}", spec.call_kwargs(1.0),
                        manifest["source_digest"], param_schema=None)
            for spec in GRID}


class TestReplayedDigestDescribesTheManifest:
    """A hit's ``result_digest`` hashes the result the manifest embeds,
    however the entry on disk was shaped, and that is the digest the
    entry's result has as an ExperimentResult."""

    @pytest.mark.parametrize("reshape", [
        pytest.param(lambda result: result, id="as-stored"),
        pytest.param(lambda result: {**result, "note": "x"}, id="extra-key"),
        pytest.param(lambda result: {k: v for k, v in result.items()
                                     if k != "expectation"},
                     id="no-expectation"),
        pytest.param(lambda result: {**result, "telemetry": None},
                     id="telemetry-null"),
    ])
    def test_digest_of_what_was_read(self, tmp_path, reshape):
        cache = make_cache(tmp_path)
        orchestrate(GRID, jobs=1, cache=cache).run()
        stored = {}
        for path in cache.root.rglob("*.json"):
            entry = json.loads(path.read_text())
            entry["result"] = stored[path.stem] = reshape(entry["result"])
            path.write_text(json.dumps(entry))
        manifest = orchestrate(GRID, jobs=1, cache=cache).run()
        assert manifest["totals"]["cache_hits"] == len(GRID)
        for spec, task in zip(GRID, manifest["tasks"]):
            entry = stored[task_digest(
                f"{spec.module}:{spec.func}", spec.call_kwargs(1.0),
                manifest["source_digest"], param_schema=None)]
            embedded = hashlib.sha256(
                canonical_json(task["result"]).encode()).hexdigest()
            assert task["result_digest"] == embedded
            assert embedded == ExperimentResult.from_dict(entry).digest()
            assert task["result"] == ExperimentResult.from_dict(
                entry).to_dict()


class TestResultSerialization:
    def test_to_dict_normalises_tuples(self):
        result = ExperimentResult(name="t", params={"ws": (1, 2, 3)})
        data = result.to_dict()
        assert data["params"]["ws"] == [1, 2, 3]
        clone = ExperimentResult.from_dict(data)
        assert clone.digest() == result.digest()

    def test_digest_ignores_nothing_semantic(self):
        a = ExperimentResult(name="t", metrics={"x": 1.0, "y": 2})
        b = ExperimentResult(name="t", metrics={"y": 2, "x": 1.0})
        assert a.digest() == b.digest()
        c = ExperimentResult(name="t", metrics={"x": 1.0, "y": 3})
        assert c.digest() != a.digest()
