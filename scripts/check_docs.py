#!/usr/bin/env python
"""Lint the ``repro`` imports inside docs/*.md code blocks.

Documentation drifts when code moves; this linter keeps the drift visible.
It extracts every fenced ```python block from the given markdown files
(default: ``docs/*.md``, README.md, EXPERIMENTS.md), finds the
``import repro...`` / ``from repro... import ...`` statements in them, and
fails if any imported module or symbol does not resolve against the
installed ``repro`` package.

Only import statements are checked -- doc code blocks are illustrative
fragments, not runnable scripts -- but an import naming a symbol that no
longer exists is exactly the kind of rot this catches.

It also checks *coverage* in the other direction: every public module
under ``src/repro/`` (any ``.py`` file or package whose name does not
start with ``_``) must be mentioned by dotted name in at least one doc
page, so new code cannot land undocumented.  ``docs/api_overview.md``
keeps a module index for exactly this purpose.  The same goes for every
public ``batch_*`` method of the RC-tree layer (``RCArrayForest``, the
``RCForest`` reference model and the :class:`DynamicForest` facade): each must be named in at least one
doc page -- docs/batch_queries.md documents the read kernels.

The third check is **internal links**: every markdown
``[text](target)`` cross-reference in the doc set must resolve — the
target file must exist relative to the page linking it, and a
``#fragment`` must name a real heading's GitHub-style anchor in the
target (or, for a bare ``#fragment``, in the same page).  External
``http(s)://`` and ``mailto:`` targets are skipped; a renamed doc page
or reworded heading fails the lint instead of shipping a dead link.

Exit status: 0 when every import resolves, every module is mentioned,
and every internal link lands, 1 otherwise (one line per failure).  Run
directly or via ``tests/test_docs_lint.py``.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def python_blocks(text: str) -> list[str]:
    """Every fenced ```python block in a markdown document."""
    return [m.group(1) for m in _FENCE.finditer(text)]


def repro_imports(block: str) -> list[tuple[str, str | None]]:
    """``(module, symbol)`` pairs imported from ``repro`` in ``block``.

    ``import repro.x.y`` yields ``("repro.x.y", None)``;
    ``from repro.x import a, b`` yields ``("repro.x", "a")``, ``("repro.x", "b")``.
    Lines that do not parse as imports (prose-ish fragments) are skipped.
    """
    out: list[tuple[str, str | None]] = []
    for line in block.splitlines():
        stripped = line.strip()
        if not stripped.startswith(("import repro", "from repro")):
            continue
        try:
            tree = ast.parse(stripped)
        except SyntaxError:
            continue
        for node in tree.body:
            if isinstance(node, ast.Import):
                out.extend(
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    out.extend(
                        (node.module, alias.name)
                        for alias in node.names
                        if alias.name != "*"
                    )
    return out


def check_file(path: pathlib.Path) -> list[str]:
    """Failure messages for every unresolvable repro import in ``path``."""
    failures = []
    rel = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    for block in python_blocks(path.read_text()):
        for module, symbol in repro_imports(block):
            try:
                mod = importlib.import_module(module)
            except ImportError as exc:
                failures.append(f"{rel}: cannot import {module}: {exc}")
                continue
            if symbol is not None and not hasattr(mod, symbol):
                failures.append(f"{rel}: {module} has no symbol {symbol!r}")
    return failures


def public_modules(src: pathlib.Path | None = None) -> list[str]:
    """Dotted names of every public module and package under ``src/repro``.

    A module is public when no component of its path (below ``src``)
    starts with ``_``; packages are named by their ``__init__.py``.  The
    top-level ``repro`` package itself is omitted -- it is trivially
    mentioned everywhere.
    """
    src = src or REPO_ROOT / "src"
    names = set()
    for py in (src / "repro").rglob("*.py"):
        rel = py.relative_to(src).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if len(parts) < 2 or any(p.startswith("_") for p in parts):
            continue
        names.add(".".join(parts))
    return sorted(names)


def check_module_coverage(paths: list[pathlib.Path]) -> list[str]:
    """Failure messages for public modules no doc page mentions.

    A mention must be the exact dotted name: ``repro.service.wal`` does
    not cover the ``repro.service`` package, and a name embedded in a
    longer identifier does not count.  A trailing sentence period is fine
    (``see repro.service.``); a trailing ``.submodule`` is not.
    """
    corpus = "\n".join(p.read_text() for p in paths if p.exists())
    return [
        f"undocumented module: {name} (not mentioned in any doc page)"
        for name in public_modules()
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\.?\w)", corpus)
    ]


def engine_batch_methods() -> list[str]:
    """Public ``batch_*`` methods of the RC-tree layer.

    Collected from ``RCArrayForest``, the ``RCForest`` reference model
    and the :class:`DynamicForest` facade, so a batched entry point added to any layer of the read/update
    path must be named somewhere in the docs.
    """
    from repro.trees.forest import DynamicForest
    from repro.trees.rcarray import RCArrayForest
    from repro.trees.rcforest import RCForest

    names: set[str] = set()
    for cls in (RCForest, RCArrayForest, DynamicForest):
        for name, attr in vars(cls).items():
            if name.startswith("batch_") and callable(attr):
                names.add(name)
    return sorted(names)


def check_batch_method_coverage(paths: list[pathlib.Path]) -> list[str]:
    """Failure messages for RC-tree ``batch_*`` methods no doc page
    mentions by name (whole-word match)."""
    corpus = "\n".join(p.read_text() for p in paths if p.exists())
    return [
        f"undocumented batch method: {name} "
        "(no doc page mentions it by name)"
        for name in engine_batch_methods()
        if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", corpus)
    ]


_LINK = re.compile(r"\[[^\]\n]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.+?)\s*$", re.MULTILINE)


def markdown_links(text: str) -> list[str]:
    """Every ``[text](target)`` target in ``text``, code fences excluded.

    Fenced blocks hold code, not prose; a bracketed expression followed
    by a call in a snippet must not be mistaken for a link.
    """
    prose = re.sub(r"^```.*?^```\s*$", "", text, flags=re.MULTILINE | re.DOTALL)
    return [m.group(1) for m in _LINK.finditer(prose)]


def github_anchor(heading: str) -> str:
    """The GitHub-flavored anchor slug for a heading's text.

    Lowercase, formatting backticks dropped, everything outside
    ``[a-z0-9 _-]`` removed, spaces to hyphens -- the algorithm GitHub's
    renderer applies when it builds ``#fragment`` targets.
    """
    slug = heading.strip().lower().replace("`", "")
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_anchors(path: pathlib.Path) -> set[str]:
    """Every anchor a page exposes (duplicate headings get ``-N``)."""
    seen: dict[str, int] = {}
    anchors: set[str] = set()
    text = re.sub(
        r"^```.*?^```\s*$", "", path.read_text(),
        flags=re.MULTILINE | re.DOTALL,
    )
    for m in _HEADING.finditer(text):
        base = github_anchor(m.group(2))
        n = seen.get(base, 0)
        seen[base] = n + 1
        anchors.add(base if n == 0 else f"{base}-{n}")
    return anchors


def check_links(paths: list[pathlib.Path]) -> list[str]:
    """Failure messages for internal links that do not resolve."""
    failures = []
    for path in paths:
        if not path.exists():
            continue
        rel = (
            path.relative_to(REPO_ROOT)
            if path.is_relative_to(REPO_ROOT)
            else path
        )
        for target in markdown_links(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            dest, _, fragment = target.partition("#")
            resolved = path if not dest else (path.parent / dest).resolve()
            if not resolved.exists():
                failures.append(f"{rel}: broken link {target!r}")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_anchors(resolved):
                    failures.append(
                        f"{rel}: link {target!r} names no heading anchor "
                        f"in {dest or rel}"
                    )
    return failures


def default_targets() -> list[pathlib.Path]:
    """The markdown files the repo promises to keep import-accurate."""
    targets = sorted((REPO_ROOT / "docs").glob("*.md"))
    for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md"):
        p = REPO_ROOT / name
        if p.exists():
            targets.append(p)
    return targets


def main(argv: list[str]) -> int:
    explicit = [pathlib.Path(a) for a in argv]
    paths = explicit or default_targets()
    failures: list[str] = []
    checked = 0
    for path in paths:
        checked += 1
        failures.extend(check_file(path))
    failures.extend(check_links(paths))
    if not explicit:
        # Coverage only makes sense against the full doc set.
        failures.extend(check_module_coverage(paths))
        failures.extend(check_batch_method_coverage(paths))
    for msg in failures:
        print(msg, file=sys.stderr)
    if not failures:
        print(
            f"docs import lint: {checked} files clean, "
            f"{len(public_modules())} modules documented, "
            "all internal links resolve"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
