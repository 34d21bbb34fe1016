#!/usr/bin/env python
"""Docs CI: link/anchor checker + executable doc examples.

Two checks, stdlib only:

1. **Links** — every relative link and intra-document anchor in the
   documentation set (``docs/``, ``README.md``, ``DESIGN.md``,
   ``EXPERIMENTS.md``) must resolve: the target file exists and, when
   a ``#fragment`` is given, the target file has a heading whose
   GitHub anchor slug matches.  External (``http(s)://``, ``mailto:``)
   links are not fetched.
2. **Doc examples** — every fenced ```` ```python ```` block in
   ``docs/CONTROLLERS.md`` is executed (fences share one namespace per
   file, in order; fences containing ``>>>`` run through
   :mod:`doctest`).  The examples are the "writing your own
   controller" walkthrough, so this is the guarantee that the
   documented API is the real one.

Usage::

    python tools/check_docs.py            # both checks
    python tools/check_docs.py --links    # links only (no repro import)
    python tools/check_docs.py --examples # doc examples only

Exit status 0 iff everything passes; failures are listed one per line
as ``file:line: message``.  Also imported by ``tests/docs/test_docs.py``
so the tier-1 suite runs the same checks.
"""

from __future__ import annotations

import argparse
import doctest
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the documentation set the link checker walks
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
)
DOC_DIRS = ("docs",)

#: files whose ```python fences must execute
EXAMPLE_FILES = ("docs/CONTROLLERS.md", "docs/SWEEPS.md")

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^(```+|~~~+)\s*(\S*)\s*$")
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
_CODE_SPAN_RE = re.compile(r"`[^`]*`")


def slugify(heading: str) -> str:
    """GitHub's heading-to-anchor algorithm (close enough for ASCII +
    the typographic punctuation these docs use).

    Lowercase; markdown code spans keep their text; everything that is
    not a letter, digit, space or hyphen is dropped; spaces become
    hyphens.
    """
    text = heading.strip().lower().replace("`", "")
    # inline links in headings keep only their text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = "".join(c for c in text
                   if c.isalnum() or c in " -" or c == "_")
    return text.replace(" ", "-")


def iter_markdown(root: Path = ROOT):
    for name in DOC_FILES:
        path = root / name
        if path.exists():
            yield path
    for dirname in DOC_DIRS:
        yield from sorted((root / dirname).glob("**/*.md"))


def anchors_of(path: Path) -> set[str]:
    """The set of valid fragment anchors of a markdown file."""
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = slugify(match.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def links_of(path: Path):
    """Yield ``(lineno, target)`` for every inline markdown link,
    skipping fenced code blocks and inline code spans."""
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        scrubbed = _CODE_SPAN_RE.sub("", line)
        for match in _LINK_RE.finditer(scrubbed):
            yield lineno, match.group(1)


def check_links(root: Path = ROOT) -> list[str]:
    """Validate every relative link/anchor; returns error strings."""
    errors: list[str] = []
    anchor_cache: dict[Path, set[str]] = {}

    def anchors(path: Path) -> set[str]:
        if path not in anchor_cache:
            anchor_cache[path] = anchors_of(path)
        return anchor_cache[path]

    for doc in iter_markdown(root):
        rel = doc.relative_to(root)
        for lineno, target in links_of(doc):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                dest = (doc.parent / path_part).resolve()
                if not dest.exists():
                    errors.append(f"{rel}:{lineno}: broken link "
                                  f"{target!r} (no such file)")
                    continue
            else:
                dest = doc
            if fragment and dest.suffix == ".md":
                if fragment not in anchors(dest):
                    errors.append(f"{rel}:{lineno}: broken anchor "
                                  f"{target!r} (no heading "
                                  f"#{fragment} in {dest.name})")
    return errors


def python_fences(path: Path):
    """Yield ``(start_lineno, code)`` for each ```python fence."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        match = _FENCE_RE.match(lines[i])
        if match and match.group(2) in ("python", "py"):
            marker = match.group(1)
            start = i + 1
            body = []
            i += 1
            while i < len(lines) and not lines[i].startswith(marker):
                body.append(lines[i])
                i += 1
            yield start, "\n".join(body) + "\n"
        elif match:
            marker = match.group(1)
            i += 1
            while i < len(lines) and not lines[i].startswith(marker):
                i += 1
        i += 1


def run_doc_examples(root: Path = ROOT,
                     files=EXAMPLE_FILES) -> list[str]:
    """Execute every python fence; returns error strings.

    Fences share one namespace per file (so later examples may build
    on earlier imports); a fence containing ``>>>`` runs under
    :mod:`doctest` instead.  The controller and experiment registries
    are snapshotted and restored around the run, because the
    walkthroughs register demo backends/experiments and both
    registries are process-global.
    """
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.core import controller as controller_mod
    from repro.experiments import registry as experiment_mod

    errors: list[str] = []
    saved_registry = dict(controller_mod._REGISTRY)
    saved_experiments = dict(experiment_mod._REGISTRY)
    try:
        for name in files:
            path = root / name
            rel = path.relative_to(root)
            namespace: dict = {"__name__": f"docs_example_{path.stem}"}
            for lineno, code in python_fences(path):
                try:
                    if ">>>" in code:
                        runner = doctest.DocTestRunner(
                            optionflags=doctest.ELLIPSIS)
                        parser = doctest.DocTestParser()
                        test = parser.get_doctest(
                            code, namespace, str(rel), str(rel), lineno)
                        result = runner.run(test)
                        if result.failed:
                            errors.append(
                                f"{rel}:{lineno}: {result.failed} doctest "
                                f"failure(s) in fence")
                    else:
                        exec(compile(code, f"{rel}:{lineno}", "exec"),
                             namespace)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    errors.append(f"{rel}:{lineno}: example raised "
                                  f"{type(exc).__name__}: {exc}")
    finally:
        controller_mod._REGISTRY.clear()
        controller_mod._REGISTRY.update(saved_registry)
        experiment_mod._REGISTRY.clear()
        experiment_mod._REGISTRY.update(saved_experiments)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true",
                        help="only check links/anchors")
    parser.add_argument("--examples", action="store_true",
                        help="only run the doc examples")
    args = parser.parse_args(argv)
    both = not (args.links or args.examples)

    errors: list[str] = []
    n_docs = n_fences = 0
    if args.links or both:
        docs = list(iter_markdown())
        n_docs = len(docs)
        errors += check_links()
    if args.examples or both:
        n_fences = sum(len(list(python_fences(ROOT / f)))
                       for f in EXAMPLE_FILES)
        errors += run_doc_examples()

    for err in errors:
        print(err, file=sys.stderr)
    status = "FAIL" if errors else "ok"
    print(f"docs check: {status} ({n_docs} files linked-checked, "
          f"{n_fences} python fences executed, {len(errors)} error(s))")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
