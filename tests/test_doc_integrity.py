"""Documentation integrity: every file path the docs mention must exist."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
]

#: Backticked tokens that look like repo paths: segments/with/slashes ending
#: in .py/.md, e.g. `benchmarks/bench_fig3_query_sift.py`.
_PATH_PATTERN = re.compile(r"`([\w./-]+\.(?:py|md))`")


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_exists(doc):
    assert doc.exists(), f"{doc} referenced by the test but missing"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_paths_exist(doc):
    text = doc.read_text()
    missing = []
    for match in _PATH_PATTERN.finditer(text):
        token = match.group(1)
        if "/" not in token:
            continue  # bare module names, not paths
        candidates = [
            REPO / token,
            REPO / "src" / token,
            # algorithms.md states its paths relative to src/repro/.
            REPO / "src" / "repro" / token,
        ]
        if not any(candidate.exists() for candidate in candidates):
            missing.append(token)
    assert not missing, f"{doc.name} references missing files: {missing}"


def test_markdown_links_resolve():
    for doc in DOCS:
        text = doc.read_text()
        for match in re.finditer(r"\]\(([^)#http][^)]*)\)", text):
            target = match.group(1)
            if target.startswith(("http", "#")):
                continue
            assert (doc.parent / target).exists(), (
                f"{doc.name} links to missing {target}"
            )


def test_experiments_md_covers_all_figures():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for figure in range(3, 13):
        assert f"Figure {figure}" in text, f"EXPERIMENTS.md missing Figure {figure}"


def test_design_md_inventory_modules_exist():
    """Every `repro/...` module path named in DESIGN.md §3 must exist."""
    text = (REPO / "DESIGN.md").read_text()
    missing = []
    for match in re.finditer(r"`(repro/[\w/]+\.py)`", text):
        if not (REPO / "src" / match.group(1)).exists():
            missing.append(match.group(1))
    assert not missing, f"DESIGN.md names missing modules: {missing}"
