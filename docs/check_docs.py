#!/usr/bin/env python
"""Executable-documentation gate.

Three checks, all run by the CI docs job (and by ``tests/test_docs.py``):

1. every fenced ``python`` code block in ``README.md``,
   ``docs/WALKTHROUGH.md`` and ``docs/SERVICE.md`` executes without
   raising (with ``src/`` on ``sys.path``), so documented snippets
   cannot rot — the SERVICE.md blocks start a real allocation service
   on a loopback socket and drive it through the real client;
2. every backticked ``path`` / ``path:line`` anchor in
   ``docs/PAPER_MAP.md`` points at an existing file (and, when a line
   number is given, at an existing line of it); a ``path:line`` anchor
   followed by a label, as in `src/x.py:12` (`name`), must land on the
   line that defines or names it (``a.b`` labels look for ``b``), so
   anchors cannot silently drift when code moves;
3. the pytest-style ``path::name`` anchors in PAPER_MAP resolve their
   file part the same way.

Run from anywhere::

    python docs/check_docs.py            # all checks
    python docs/check_docs.py --only anchors
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
import traceback

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

EXECUTABLE_DOCS = [
    "README.md",
    os.path.join("docs", "WALKTHROUGH.md"),
    os.path.join("docs", "SERVICE.md"),
]
ANCHOR_DOC = os.path.join("docs", "PAPER_MAP.md")

#: `path` or `path:line` inside backticks; the path must contain a slash
#: or be a bare known-extension file.  ``::`` (pytest node ids) is left
#: to the path part, so `tests/test_x.py::TestY` checks `tests/test_x.py`.
ANCHOR_RE = re.compile(
    r"`(?P<path>[A-Za-z0-9_.\-/]+\.(?:py|md|toml|yml|yaml|ir|ml|txt))"
    r"(?::(?P<line>\d+))?(?:::[A-Za-z0-9_.:]+)?`"
)

#: The (`name` label right after an anchor: the symbol its line must name.
LABEL_RE = re.compile(r"\s*\(`(?P<name>[A-Za-z_][A-Za-z0-9_.]*)`")


def _read(relpath: str) -> str:
    with io.open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as fh:
        return fh.read()


def python_blocks(markdown: str):
    """Yield (first_line_number, source) for each ```python fence."""
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == "```python":
            start = i + 1
            j = start
            while j < len(lines) and lines[j].strip() != "```":
                j += 1
            yield start + 1, "\n".join(lines[start:j])
            i = j + 1
        else:
            i += 1


def check_executable(relpath: str) -> list:
    """Run every python block of one document; return error strings."""
    errors = []
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for lineno, source in python_blocks(_read(relpath)):
        namespace = {"__name__": "__doccheck__"}
        try:
            exec(compile(source, f"{relpath}:{lineno}", "exec"), namespace)
        except Exception:
            errors.append(
                f"{relpath}:{lineno}: python block raised:\n"
                + traceback.format_exc(limit=5)
            )
    return errors


def check_anchors(relpath: str) -> list:
    """Validate every `path[:line]` anchor in one document."""
    errors = []
    found = 0
    text = _read(relpath)
    for match in ANCHOR_RE.finditer(text):
        path, line = match.group("path"), match.group("line")
        found += 1
        full = os.path.join(REPO_ROOT, path)
        if not os.path.isfile(full):
            errors.append(f"{relpath}: anchor {match.group(0)} -> "
                          f"no such file {path}")
            continue
        if line is None:
            continue
        with io.open(full, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if int(line) > len(lines):
            errors.append(
                f"{relpath}: anchor {match.group(0)} -> {path} has "
                f"only {len(lines)} lines"
            )
            continue
        label = LABEL_RE.match(text, match.end())
        if label is None:
            continue
        name = label.group("name").rsplit(".", 1)[-1]
        if not re.search(rf"\b{re.escape(name)}\b", lines[int(line) - 1]):
            hits = [
                str(i + 1) for i, src in enumerate(lines)
                if re.search(rf"^\s*(?:def|class|async def)\s+{name}\b"
                             rf"|^\s*{name}\s*[:=]", src)
            ]
            errors.append(
                f"{relpath}: anchor {match.group(0)} ({name}) -> line "
                f"{line} does not name it (defined at line(s) "
                f"{', '.join(hits) or 'none'})"
            )
    if found == 0:
        errors.append(f"{relpath}: no path anchors found (regex drift?)")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=["exec", "anchors"],
        help="run a single check instead of all",
    )
    args = parser.parse_args(argv)

    errors = []
    if args.only in (None, "exec"):
        for doc in EXECUTABLE_DOCS:
            errors += check_executable(doc)
    if args.only in (None, "anchors"):
        errors += check_anchors(ANCHOR_DOC)

    for err in errors:
        print(err)
    if errors:
        print(f"FAILED: {len(errors)} docs problem(s)")
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
