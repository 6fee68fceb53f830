#!/usr/bin/env python
"""Check markdown links in the repo docs — stdlib only, no network.

Scans README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md for markdown
links `[text](target)` and verifies:

* relative file targets exist (anchored at the linking file's directory,
  with a repo-root fallback for README-style links);
* intra-document anchors (`#heading` or `file.md#heading`) resolve to a
  heading in the target file, using GitHub's slugification;
* external (http/https/mailto) links are only syntax-checked, never
  fetched;
* every backticked dotted name (`repro.perf.sharding.run_sharded`)
  resolves: the longest prefix that imports as a module, with `src/` on
  `sys.path`, then `getattr` for the rest.

Exit status 1 with one line per broken link or name; 0 when clean.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

# [text](target) — skips images' leading `!` capture-irrelevantly and
# ignores fenced code blocks via the scrub pass below.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
NAME_RE = re.compile(r"`(repro(?:\.\w+)+)`")
FENCE_RE = re.compile(r"^(```|~~~)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces→dashes, drop punctuation."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        base = github_slug(line.lstrip("#"))
        seen = counts.get(base, 0)
        counts[base] = seen + 1
        slugs.add(base if seen == 0 else f"{base}-{seen}")
    return slugs


def doc_files() -> list[Path]:
    files: list[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return [path for path in files if path.is_file()]


def iter_matches(path: Path, pattern: re.Pattern):
    """(line number, first group) of each match outside fenced blocks."""
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in pattern.finditer(line):
            yield lineno, match.group(1)


def resolves(dotted: str) -> bool:
    """Whether a dotted name imports: module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name is None or not f"{module}.".startswith(f"{exc.name}."):
                raise  # the module exists but one of its imports is missing
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def resolve_target(source: Path, target: str) -> Path | None:
    """The existing file a relative link points at, or None."""
    candidates = [source.parent / target, REPO_ROOT / target]
    for candidate in candidates:
        if candidate.exists():
            return candidate
    return None


def check() -> list[str]:
    problems: list[str] = []
    for source in doc_files():
        rel_source = source.relative_to(REPO_ROOT)
        for lineno, raw in iter_matches(source, LINK_RE):
            if raw.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, anchor = raw.partition("#")
            if not target:  # same-document anchor
                if anchor and github_slug(anchor) not in heading_slugs(source):
                    problems.append(
                        f"{rel_source}:{lineno}: broken anchor #{anchor}"
                    )
                continue
            resolved = resolve_target(source, target)
            if resolved is None:
                problems.append(
                    f"{rel_source}:{lineno}: missing file {target}"
                )
                continue
            if anchor and resolved.suffix == ".md":
                if github_slug(anchor) not in heading_slugs(resolved):
                    problems.append(
                        f"{rel_source}:{lineno}: broken anchor "
                        f"{target}#{anchor}"
                    )
        for lineno, dotted in iter_matches(source, NAME_RE):
            if not resolves(dotted):
                problems.append(f"{rel_source}:{lineno}: unresolved name {dotted}")
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = check()
    for problem in problems:
        print(problem)
    checked = len(doc_files())
    if problems:
        print(f"doc link check: {len(problems)} broken link(s) or name(s) "
              f"across {checked} file(s)")
        return 1
    print(f"doc link check: OK ({checked} file(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
