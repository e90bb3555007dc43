#!/usr/bin/env python3
"""Fail on dangling intra-repo documentation references.

Two classes of rot this guards against (both happened in this repo's
history — ``EXPERIMENTS.md`` was cited from ``src/`` for three PRs before
it existed):

* **Markdown links** — every relative ``[text](target)`` in the curated
  markdown set must point at a file or directory that exists (external
  ``http(s)``/``mailto`` targets and pure ``#anchors`` are skipped, and a
  ``path#anchor`` target is checked for the path part only);
* **Doc citations in code** — every ``*.md`` name mentioned in a Python
  source/docstring/comment must exist in the repository (at the repo
  root, under ``docs/``, next to the citing file, or anywhere in the
  tree for unique basenames);
* **Module references in markdown** — every backticked dotted
  ``repro.…`` name in the curated markdown set must resolve: with
  ``src`` on ``sys.path``, the longest importable module prefix is
  imported and the rest is looked up attribute by attribute (so a
  deleted module or a renamed class fails the check).  Importing the
  package needs numpy and scipy.

Usage::

    python scripts/check_docs.py        # exit 1 with a report when rot found

Run by the CI docs job next to ``render_bench_table.py --check`` and the
README quickstart snippet.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Markdown files whose links must resolve.  SNIPPETS.md is excluded on
#: purpose: it quotes exemplar code from other repositories verbatim.
MARKDOWN_FILES = (
    "README.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "PAPER.md",
    "PAPERS.md",
    "docs",
    "benchmarks/results/README.md",
)

#: Python trees whose ``*.md`` citations must resolve.
PYTHON_TREES = ("src", "tests", "benchmarks", "examples", "scripts")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_MD_NAME_RE = re.compile(r"\b([\w./-]+\.md)\b", re.IGNORECASE)
_MODULE_REF_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def iter_markdown() -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for entry in MARKDOWN_FILES:
        path = REPO / entry
        if path.is_dir():
            out.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            out.append(path)
    return out


def check_markdown_links(problems: list[str]) -> None:
    for md in iter_markdown():
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in _LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:  # pure anchor
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md.relative_to(REPO)}:{lineno}: dangling link -> {target}"
                    )


def _md_exists(name: str, citing_file: pathlib.Path) -> bool:
    candidate = pathlib.PurePosixPath(name)
    if len(candidate.parts) > 1:
        # Explicit relative path: resolve against the repo root, the
        # citing file, or any matching path suffix in the tree.
        if (REPO / candidate).exists() or (citing_file.parent / candidate).exists():
            return True
        return any(
            found.parts[-len(candidate.parts):] == candidate.parts
            for found in REPO.rglob(candidate.name)
        )
    for base in (REPO, REPO / "docs", citing_file.parent):
        if (base / name).exists():
            return True
    # Bare basenames anywhere in the tree still count; the point is that
    # the cited file exists at all.
    return bool(list(REPO.rglob(name)))


def check_python_citations(problems: list[str]) -> None:
    for tree in PYTHON_TREES:
        root = REPO / tree
        if not root.exists():
            continue
        for py in sorted(root.rglob("*.py")):
            for lineno, line in enumerate(py.read_text().splitlines(), 1):
                for name in _MD_NAME_RE.findall(line):
                    if not _md_exists(name, py):
                        problems.append(
                            f"{py.relative_to(REPO)}:{lineno}: cites missing doc {name!r}"
                        )


def _resolves(dotted: str) -> bool:
    """Import the longest importable prefix of ``dotted``, then look up
    the remaining parts as attributes."""
    parts = dotted.split(".")
    for n in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:n]))
        except ImportError:
            continue
        for attr in parts[n:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_module_references(problems: list[str]) -> None:
    src = str(REPO / "src")
    added = src not in sys.path
    if added:
        sys.path.insert(0, src)
    try:
        for md in iter_markdown():
            for lineno, line in enumerate(md.read_text().splitlines(), 1):
                for dotted in _MODULE_REF_RE.findall(line):
                    if not _resolves(dotted):
                        problems.append(
                            f"{md.relative_to(REPO)}:{lineno}: dangling module reference "
                            f"-> {dotted}"
                        )
    finally:
        if added:
            sys.path.remove(src)


def main() -> int:
    problems: list[str] = []
    check_markdown_links(problems)
    check_python_citations(problems)
    check_module_references(problems)
    if problems:
        print(f"{len(problems)} dangling documentation reference(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    n_md = len(iter_markdown())
    print(f"docs OK: links and repro.* references in {n_md} markdown files and "
          f"*.md citations in {'/'.join(PYTHON_TREES)} all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
