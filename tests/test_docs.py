"""Execute the runnable code blocks of the documentation site.

Every fenced ```python block in ``docs/*.md`` whose *first line* is the
marker comment ``# doctest: run`` is extracted and executed here, so the
documentation cannot silently rot: if a guide shows code, CI proves the
code runs.  Blocks without the marker (illustrative fragments, output
listings, shell commands) are skipped.

Blocks within one file execute in order and share a namespace, so a
tutorial can build state step by step (build the problem in block 1,
serve through it in block 4) exactly as a reader following along would.
"""

from __future__ import annotations

import pathlib
import re

import pytest

DOCS_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs"
RUN_MARKER = "# doctest: run"
_FENCE = re.compile(r"^```python[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)


def runnable_blocks(path: pathlib.Path) -> list[tuple[int, str]]:
    """The ``(line_number, source)`` of every marked block in a file."""
    text = path.read_text()
    blocks = []
    for match in _FENCE.finditer(text):
        code = match.group(1)
        stripped = code.lstrip()
        if stripped.startswith(RUN_MARKER):
            line = text.count("\n", 0, match.start(1)) + 1
            blocks.append((line, code))
    return blocks


def doc_files() -> list[pathlib.Path]:
    return sorted(DOCS_DIR.glob("*.md"))


def test_docs_directory_has_guides():
    names = {p.name for p in doc_files()}
    assert {"architecture.md", "serving.md", "benchmarks.md"} <= names


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_docs_code_blocks_execute(path):
    """Run a guide's marked blocks top to bottom in a shared namespace."""
    blocks = runnable_blocks(path)
    assert blocks, (
        f"{path.name} has no '{RUN_MARKER}' code blocks; every guide "
        "must prove at least one of its examples executes"
    )
    # __file__ points at the guide so path-relative blocks (e.g. the
    # BENCHMARK.json check) resolve the repo root portably.
    namespace: dict = {"__name__": f"docs_{path.stem}", "__file__": str(path)}
    for line, code in blocks:
        compiled = compile(code, f"{path.name}:{line}", "exec")
        exec(compiled, namespace)  # noqa: S102 - the point of the test


REPO_ROOT = DOCS_DIR.parent
_MD_PATH = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")


def _referencing_files() -> list[pathlib.Path]:
    files = [REPO_ROOT / "README.md", *doc_files()]
    for tree in ("src", "examples"):
        files += sorted((REPO_ROOT / tree).rglob("*.py"))
    return files


def test_every_named_markdown_file_exists():
    """A ``*.md`` path named in the code, the examples or the docs is
    either repo-relative or relative to the file that names it, and the
    file it names exists."""
    missing = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in _referencing_files()
        for name in _MD_PATH.findall(path.read_text())
        if not (REPO_ROOT / name).exists()
        and not (path.parent / name).exists()
    ]
    assert not missing, "\n".join(
        ["named markdown files that do not exist:", *missing]
    )
