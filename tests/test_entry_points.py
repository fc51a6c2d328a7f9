"""Every entry point that the benchmark tracer wraps still exists, so a
refactor of `mce` cannot leave a traced layer reading 0 unnoticed. The
`ENTRY_POINTS` tuple is read from the tracer's source, not imported.
Every name that `mce.__all__` exports exists too, and appears once, and
every exported assembler is reached by a subcommand, and every
subcommand that solves a pressure system builds the kernel basis."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import mce
from mce.cli import SUBCOMMANDS, main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# gone from mce; their rows await the benchmark's upkeep (ROADMAP 2(a))
KNOWN_DEAD = {
    ("mce.solve", "refine_iteratively"),
    ("mce.forms", "assemble_nitsche_slip"),
    ("mce.forms", "assemble_nitsche_elasticity"),
}
# exported assemblers that no subcommand reaches, with the reason they stay
UNREACHED = {
    # the one-shot form of the coupling sweep: tests take it as the
    # reference of `_viscosity_sweep`, and acceptance criterion 3 solves
    # with it
    "assemble_brinkman",
}
# every subcommand at a tiny size, each writing into a directory of its own
SUBCOMMAND_RUNS = [
    ["stokes", "--levels", "2,3,4", "--out", "stokes"],
    ["darcy", "--mu", "0.1", "--levels", "2,3,4", "--out", "darcy"],
    ["cooks", "--levels", "2", "--nu", "0.3", "--out", "cooks"],
    ["brinkman", "--grid", "2", "--mu", "1", "--out", "brinkman"],
    ["mesh-info", "--grid", "2"],
]
# the one assembly path of each subcommand's model: the `mce.forms`
# assemblers and the coupling sweep that it calls
PATHS = {
    "stokes": {"assemble_nitsche_brinkman_tangential"},
    "darcy": {"assemble_nitsche_brinkman_tangential"},
    "cooks": {"assemble_elasticity"},
    "brinkman": {"_viscosity_sweep"},
    "mesh-info": set(),
}

# the subcommands that solve a system with a pressure block, each through
# the explicit basis of the discrete kernel
KERNEL_SOLVES = {"stokes", "darcy", "brinkman"}
RECORDED = {"mce.forms", "mce.space"}


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


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Subcommand -> names of the `mce.forms` and `mce.space` functions its
    run calls."""
    assert [run[0] for run in SUBCOMMAND_RUNS] == list(SUBCOMMANDS)
    calls = {}
    previous = sys.getprofile()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("runs"))
        for run in SUBCOMMAND_RUNS:
            names = calls[run[0]] = set()

            def record(frame, event, arg, names=names):
                if (event == "call"
                        and frame.f_globals.get("__name__") in RECORDED):
                    names.add(frame.f_code.co_name)

            sys.setprofile(record)
            try:
                status = main(run)
            finally:
                sys.setprofile(previous)
            assert status == 0, run
    return calls


def test_every_exported_assembler_is_reached_by_a_subcommand(reached):
    assemblers = {name for name in mce.__all__ if name.startswith("assemble_")}
    assert UNREACHED <= assemblers
    assert assemblers - UNREACHED <= set().union(*reached.values())


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_subcommand_takes_one_assembly_path(reached, subcommand):
    taken = {name for name in reached[subcommand]
             if name.startswith("assemble_") or name == "_viscosity_sweep"}
    assert taken == PATHS[subcommand]


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_pressure_systems_solve_on_the_kernel_basis(reached, subcommand):
    assert ("kernel_basis" in reached[subcommand]) == (
        subcommand in KERNEL_SOLVES)
