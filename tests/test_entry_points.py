"""Every entry point that the benchmark tracer wraps still exists, so a
refactor of `mce` cannot leave a traced layer reading 0 unnoticed. The
`ENTRY_POINTS` tuple is read from the tracer's source, not imported.
Every name that `mce.__all__` exports exists too, and appears once."""

import ast
import importlib
from pathlib import Path

import pytest

import mce

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# gone from mce; their rows await the benchmark's upkeep (ROADMAP 2(a))
KNOWN_DEAD = {
    ("mce.solve", "refine_iteratively"),
    ("mce.forms", "assemble_nitsche_slip"),
}


def _entry_points():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no ENTRY_POINTS in {TRACING}")


@pytest.mark.parametrize(
    "span, home, attr",
    [row for row in _entry_points() if row[1:] not in KNOWN_DEAD],
)
def test_entry_point_resolves(span, home, attr):
    assert callable(getattr(importlib.import_module(home), attr, None)), span


def test_public_names_are_unique():
    assert len(set(mce.__all__)) == len(mce.__all__)


@pytest.mark.parametrize("name", mce.__all__)
def test_public_name_resolves(name):
    assert hasattr(mce, name)
