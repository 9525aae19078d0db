"""Documentation gates that need no optional dependency.

``tools/check_docs.py`` checks the markdown links and anchors, and
renders the API reference with pdoc.  pdoc is optional, so the link
half runs here in tier-1; the docstring scan below catches names of
deleted classes and methods that pdoc's cross-reference check would
otherwise only report where pdoc is installed.
"""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Names of removed APIs that a docstring or comment must not mention.
STALE_NAMES = re.compile(
    r"\b(SystemBus|FlashChannel|OpBreakdown|TimingTable|prefill_block"
    r"|mark_block_programmed|_cancelled|Simulator\.step|TokenPool"
    r"|FlashPlane|_migrate_block|_ftl_migration|aborted_migrations"
    r"|pages_migrated|unclaim|max_valid_fraction)\b"
    r"|\bbackend\.(read|program|erase)\b|\.step\(\)|:meth:`step`"
    r"|\.occupy\(")


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_and_anchors_resolve():
    assert _check_docs().check_markdown() == []


def test_sources_name_no_removed_api():
    hits = [f"{path.relative_to(REPO)}:{number}: {line.strip()}"
            for path in sorted((REPO / "src").rglob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if STALE_NAMES.search(line)]
    assert hits == []
