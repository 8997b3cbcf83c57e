"""Documentation invariants: links, the index, generated sections.

``scripts/check_docs.py`` runs the heavyweight version in CI (it also
executes every usage example); these tests keep the cheap structural
invariants inside the tier-1 suite so a broken page fails fast locally.
"""

import pathlib
import re

import pytest

from repro.obs.reference import (
    BEGIN_MARK,
    END_MARK,
    metrics_reference_markdown,
    update_generated_section,
)

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
DOCS = REPO / "docs"
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _pages():
    return sorted(DOCS.glob("*.md"))


class TestLinks:
    @pytest.mark.parametrize(
        "page", [p.name for p in sorted(DOCS.glob("*.md"))] + ["README.md"]
    )
    def test_relative_links_resolve(self, page):
        path = (DOCS / page) if page != "README.md" else (REPO / page)
        broken = []
        for match in LINK_RE.finditer(path.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if rel and not (path.parent / rel).resolve().exists():
                broken.append(target)
        assert not broken, broken


class TestIndex:
    def test_index_lists_every_page(self):
        text = (DOCS / "index.md").read_text()
        linked = {
            m.group(1).split("#")[0]
            for m in LINK_RE.finditer(text)
            if m.group(1).endswith(".md")
        }
        for page in _pages():
            if page.name == "index.md":
                continue
            assert page.name in linked, f"docs/index.md misses {page.name}"

    def test_index_summarises_each_link(self):
        # every docs bullet carries a summary after the em-dash
        # (summaries may wrap onto indented continuation lines)
        text = (DOCS / "index.md").read_text()
        bullets = re.findall(
            r"^\* \[([^\]]+)\]\([^)]+\) — ((?:.+\n?)(?:  \S.*\n?)*)",
            text,
            re.M,
        )
        assert len(bullets) >= len(_pages()) - 1
        for name, summary in bullets:
            assert len(" ".join(summary.split())) > 10, name


class TestMetricsReference:
    def test_generated_section_matches_registry(self):
        """The committed table equals a fresh rendering — no drift."""
        text = (DOCS / "metrics_reference.md").read_text()
        assert update_generated_section(text) == text, (
            "docs/metrics_reference.md is stale; regenerate with "
            "`python -m repro.obs.reference docs/metrics_reference.md`"
        )

    def test_every_family_has_the_repro_prefix(self):
        for line in metrics_reference_markdown().splitlines()[2:]:
            name = line.split("|")[1].strip()
            assert name.startswith("`repro_"), name

    def test_fault_families_present(self):
        table = metrics_reference_markdown()
        for family in (
            "repro_faults_injected_total",
            "repro_faults_detected_total",
            "repro_faults_retries_total",
            "repro_faults_recovered_terminals_total",
            "repro_faults_lost_terminals_total",
            "repro_faults_quarantines_total",
            "repro_faults_plane_state",
        ):
            assert f"`{family}`" in table, family

    def test_update_requires_markers(self):
        with pytest.raises(ValueError, match="markers"):
            update_generated_section("# no markers here\n")

    def test_markers_appear_once_in_order(self):
        text = (DOCS / "metrics_reference.md").read_text()
        assert text.count(BEGIN_MARK) == 1
        assert text.count(END_MARK) == 1
        assert text.index(BEGIN_MARK) < text.index(END_MARK)


class TestNoStaleKwargs:
    @pytest.mark.parametrize("page", ["usage.md", "../README.md"])
    def test_no_deprecated_constructor_kwargs(self, page):
        """Construction kwargs belong on NetworkConfig, not calls."""
        text = (DOCS / page).read_text()
        stale = [
            m.group(0)
            for m in re.finditer(
                r"(\w+)\(\s*\d+\s*,\s*(?:implementation|engine)\s*=", text
            )
            if m.group(1) != "NetworkConfig"
        ]
        assert not stale, stale
