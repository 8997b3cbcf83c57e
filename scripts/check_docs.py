#!/usr/bin/env python
"""CI docs checks: links resolve, documented examples actually run.

Two independent checks, both over committed markdown:

* ``check_links`` — every relative markdown link in ``docs/*.md`` and
  ``README.md`` points at a file that exists (external ``http(s)`` /
  ``mailto`` links and pure ``#anchor`` self-references are skipped;
  fragments on relative links are stripped before the existence check).
* ``run_examples`` — every fenced ``python`` block of the executable
  pages (``docs/usage.md``, ``docs/performance.md``, ``docs/faq.md``)
  is executed in its own namespace, so no page
  can drift from the API it documents.  Requires ``PYTHONPATH=src``
  (or an installed package).

Run from the repository root::

    PYTHONPATH=src python scripts/check_docs.py

Exit status is non-zero on the first category of failure, with every
individual failure listed.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import List

REPO = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — target up to the first closing paren; images and
# reference-style links are out of scope (the docs use inline links).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```python\s*?\n(.*?)^```\s*?$", re.M | re.S)


def _doc_pages() -> List[pathlib.Path]:
    return sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def check_links() -> List[str]:
    """Return one message per broken relative link."""
    failures: List[str] = []
    for page in _doc_pages():
        text = page.read_text()
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (page.parent / path).resolve()
            if not resolved.exists():
                failures.append(
                    f"{page.relative_to(REPO)}: broken link -> {target}"
                )
    return failures


# Pages whose python blocks are executed verbatim.  A page belongs
# here unless its blocks are deliberately non-runnable (none are
# today); new executable pages must be added or their examples rot.
EXECUTABLE_PAGES = ("usage.md", "performance.md", "faq.md")


def run_examples() -> List[str]:
    """Execute every fenced python block of the executable pages."""
    failures: List[str] = []
    total = 0
    for name in EXECUTABLE_PAGES:
        page = REPO / "docs" / name
        blocks = FENCE_RE.findall(page.read_text())
        if not blocks:
            failures.append(f"docs/{name}: no fenced python blocks found")
            continue
        total += len(blocks)
        for i, block in enumerate(blocks):
            try:
                exec(compile(block, f"docs/{name}[block {i}]", "exec"),
                     {"__name__": "__main__"})
            except Exception as exc:  # noqa: BLE001 — report, don't crash
                failures.append(
                    f"docs/{name} block {i} raised "
                    f"{type(exc).__name__}: {exc}\n{block.rstrip()}"
                )
    return failures


def main() -> int:
    link_failures = check_links()
    for msg in link_failures:
        print(f"LINK  {msg}", file=sys.stderr)
    example_failures = run_examples()
    for msg in example_failures:
        print(f"EXAMPLE  {msg}", file=sys.stderr)
    pages = len(_doc_pages())
    blocks = sum(
        len(FENCE_RE.findall((REPO / "docs" / name).read_text()))
        for name in EXECUTABLE_PAGES
    )
    if link_failures or example_failures:
        return 1
    print(f"docs ok: {pages} pages linked, {blocks} examples ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
