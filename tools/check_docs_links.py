#!/usr/bin/env python3
"""Fail on broken links, anchors, or stale identifiers in the docs.

Checks every inline markdown link ``[text](target)`` in README.md,
DESIGN.md, and docs/**/*.md. External links (http/https/mailto) are
skipped; everything else is resolved relative to the file containing
the link (or the repo root for ``/``-prefixed targets) and must exist.

Fragments are validated against real headings: ``#section`` must match
a GitHub-style heading slug in the same file, and ``file.md#section``
must match one in the target markdown file.

C++ code fences in the docs are also checked at grep level: every
qualified identifier (``dmv::serve::Server``, ``Kind::kMetrics``) must
have all of its segments present somewhere in ``src/include/``, and so
must the name of every member call (``session.metrics(``,
``result->container_index(``) — this flags snippets that still
reference renamed or deleted API. Identifiers rooted in ``std`` (and
other toolchain namespaces) are exempt from the first check, and
fences not tagged ``cpp``/``c++`` from both.

Run from anywhere:  python3 tools/check_docs_links.py
Exit code 0 when everything resolves, 1 otherwise (problems are listed
on stderr). CI runs this as the docs job.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline links, skipping images' leading "!" handled by the same regex.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL = ("http://", "https://", "mailto:")

FENCE_RE = re.compile(r"```(\w*)[^\n]*\n(.*?)```", re.DOTALL)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)
QUALIFIED_RE = re.compile(r"\b[A-Za-z_]\w*(?:::[A-Za-z_~]\w*)+")
MEMBER_CALL_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")

# Namespaces whose members are not expected in src/include/.
FOREIGN_ROOTS = {"std", "testing", "benchmark", "chrono"}


def doc_files():
    files = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    files.extend(sorted((REPO_ROOT / "docs").rglob("*.md")))
    return [f for f in files if f.is_file()]


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor transform (ASCII-level)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[*_]{1,2}([^*_]+)[*_]{1,2}", r"\1", text)  # emphasis
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(markdown: str) -> set:
    """All anchor slugs a markdown document exposes, with GitHub's
    ``-1``/``-2`` dedup suffixes for repeated headings."""
    without_fences = FENCE_RE.sub("", markdown)
    anchors = set()
    counts = {}
    for match in HEADING_RE.finditer(without_fences):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def header_identifiers() -> set:
    """Every identifier token appearing in src/include/ headers."""
    tokens = set()
    for header in (REPO_ROOT / "src" / "include").rglob("*.hpp"):
        tokens.update(
            re.findall(r"[A-Za-z_]\w*", header.read_text(encoding="utf-8"))
        )
    return tokens


class DocChecker:
    def __init__(self):
        self.known_tokens = header_identifiers()
        self.anchor_cache = {}
        self.problems = []

    def anchors_of(self, path: Path) -> set:
        if path not in self.anchor_cache:
            self.anchor_cache[path] = heading_anchors(
                path.read_text(encoding="utf-8")
            )
        return self.anchor_cache[path]

    def report(self, path: Path, message: str):
        self.problems.append(f"{path.relative_to(REPO_ROOT)}: {message}")

    def check_links(self, path: Path, text: str):
        prose = FENCE_RE.sub("", text)
        for match in LINK_RE.finditer(prose):
            target = match.group(1)
            if target.startswith(EXTERNAL):
                continue
            if target.startswith("#"):
                fragment = target[1:]
                if fragment not in self.anchors_of(path):
                    self.report(
                        path,
                        f"broken anchor {match.group(0)} -> no heading "
                        f"slug '#{fragment}' in this file",
                    )
                continue
            target, _, fragment = target.partition("#")
            if not target:
                continue
            if target.startswith("/"):
                resolved = REPO_ROOT / target.lstrip("/")
            else:
                resolved = path.parent / target
            if not resolved.exists():
                self.report(
                    path, f"broken link {match.group(0)} -> {target}"
                )
                continue
            if fragment and resolved.suffix == ".md" and resolved.is_file():
                if fragment not in self.anchors_of(resolved.resolve()):
                    self.report(
                        path,
                        f"broken anchor {match.group(0)} -> no heading "
                        f"slug '#{fragment}' in {target}",
                    )

    def check_code_fences(self, path: Path, text: str):
        for match in FENCE_RE.finditer(text):
            language, code = match.group(1).lower(), match.group(2)
            if language not in ("cpp", "c++", "cxx"):
                continue
            line_base = text.count("\n", 0, match.start()) + 2
            for qualified in sorted(set(QUALIFIED_RE.findall(code))):
                segments = qualified.replace("~", "").split("::")
                if segments[0] in FOREIGN_ROOTS:
                    continue
                missing = [
                    s for s in segments if s not in self.known_tokens
                ]
                if missing:
                    line = line_base + code[: code.find(qualified)].count(
                        "\n"
                    )
                    self.report(
                        path,
                        f"line {line}: code fence references "
                        f"'{qualified}' but "
                        f"'{missing[0]}' does not appear anywhere in "
                        f"src/include/ (renamed or removed API?)",
                    )
            reported = set()
            for call in MEMBER_CALL_RE.finditer(code):
                name = call.group(1)
                if name in self.known_tokens or name in reported:
                    continue
                reported.add(name)
                line = line_base + code[: call.start()].count("\n")
                self.report(
                    path,
                    f"line {line}: code fence calls member '{name}' but "
                    f"it does not appear anywhere in src/include/ "
                    f"(renamed or removed API?)",
                )

    def run(self) -> int:
        checked = 0
        for path in doc_files():
            checked += 1
            text = path.read_text(encoding="utf-8")
            self.check_links(path, text)
            self.check_code_fences(path, text)
        if self.problems:
            for problem in self.problems:
                print(problem, file=sys.stderr)
            return 1
        print(
            f"checked {checked} markdown files: links, anchors, and "
            f"C++ fence identifiers and member calls all resolve"
        )
        return 0


def main() -> int:
    return DocChecker().run()


if __name__ == "__main__":
    sys.exit(main())
