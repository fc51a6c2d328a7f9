"""Every entry point that the benchmark tracer wraps still exists, so a
refactor of `mce` cannot leave a traced layer reading 0 unnoticed. The
`ENTRY_POINTS` tuple is read from the tracer's source, not imported.
Every name that `mce.__all__` exports exists too, and appears once, and
every exported assembler is reached by a subcommand, and every
subcommand that solves a pressure system builds the kernel basis.

Every function and method defined in `src/mce` is reached by a
subcommand run or listed in `NOT_REACHED` with its reason, so a helper
that loses its last caller fails here; a listed name must still exist
and stay unreached, so the table cannot go stale. No module of
`src/mce`, `tests` or `demos` imports a name that it never uses, a
re-export through `mce.__all__` aside."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import mce
from mce.cli import SUBCOMMANDS, main
from mce.mesh import generate_unit_square_mesh, write_mesh

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SOURCE = Path(mce.__file__).resolve().parent
TESTS, DEMOS = ROOT / "tests", ROOT / "demos"
# gone from mce; their rows await the benchmark's upkeep (ROADMAP 2(a))
KNOWN_DEAD = {
    ("mce.solve", "refine_iteratively"),
    ("mce.forms", "assemble_nitsche_slip"),
    ("mce.forms", "assemble_nitsche_elasticity"),
}
# every subcommand at a tiny size, each writing into a directory of its own;
# the `reached` fixture writes the config and mesh files first
SUBCOMMAND_RUNS = [
    ["stokes", "--config", "stokes.cfg", "--out", "stokes"],
    ["darcy", "--mu", "0.1", "--levels", "2,3,4", "--out", "darcy"],
    ["cooks", "--levels", "2", "--nu", "0.3,0.4999,0.49999", "--out", "cooks"],
    ["brinkman", "--grid", "2", "--mu", "1", "--out", "brinkman"],
    ["mesh-info", "--grid", "2"],
    ["mesh-info", "--mesh-file", "grid.mesh"],
]
# the one assembly path of each subcommand's model: the `mce.forms`
# assemblers and the coupling and Lame sweeps that it calls
SWEEPS = {"_viscosity_sweep", "_lame_sweep"}
PATHS = {
    "stokes": {"assemble_nitsche_brinkman_tangential"},
    "darcy": {"assemble_nitsche_brinkman_tangential"},
    "cooks": {"_lame_sweep"},
    "brinkman": {"_viscosity_sweep"},
    "mesh-info": set(),
}

# the subcommands that solve a system with a pressure block, each through
# the explicit basis of the discrete kernel
KERNEL_SOLVES = {"stokes", "darcy", "brinkman"}

# (module, qualified name) of each function or method that no run above
# reaches, with the reason it stays
REASONS = {"public API", "test reference", "tracer entry point", "demo",
           "error path", "import time"}
NOT_REACHED = {
    ("mce.bench", "ManufacturedCase.check_consistency"): "demo",
    ("mce.bench", "ManufacturedCase.strong_residual"): "demo",
    ("mce.bench", "case_elasticity"): "test reference",  # criterion 5
    ("mce.bench", "second_difference_sign_changes"): "demo",
    ("mce.bench", "solve_cooks_affine"): "tracer entry point",
    # of solve_cooks_affine; the locking study takes the same Lame sweep
    ("mce.bench", "_cooks_system"): "tracer entry point",
    ("mce.cli", "_Parser.error"): "error path",
    ("mce.cli", "console_main"): "public API",  # the `mce` script
    ("mce.forms", "SaddleSystem.size"): "public API",
    # the one-shot form of the coupling sweep: tests take it as the
    # reference of `_viscosity_sweep`, and acceptance criterion 3 solves
    # with it
    ("mce.forms", "assemble_brinkman"): "public API",
    # the one-shot form of the Lame sweep: tests take it as the reference
    # of `_lame_sweep`, and acceptance criterion 5 solves with it
    ("mce.forms", "assemble_elasticity"): "public API",
    ("mce.mesh", "MeshFormatError.__init__"): "error path",
    ("mce.mesh", "_check_boundary"): "error path",
    ("mce.mesh", "_check_triangle"): "error path",
    ("mce.mesh", "_check_vertex"): "error path",
    ("mce.mesh", "read_mesh.<locals>.end_of_file"): "error path",
    ("mce.mesh", "write_mesh"): "public API",
    ("mce.quadrature", "_orbit3"): "import time",
    ("mce.quadrature", "_orbit6"): "import time",
    ("mce.solve", "_failure_cause"): "error path",
    ("mce.space", "ElementTables.bubble_div"): "demo",
    ("mce.space", "ElementTables.bubble_um"): "demo",
    # the tests' per-subtriangle divergences, of which macro_divergence
    # checks the constancy
    ("mce.space", "ElementTables.sub_divergences"): "public API",
    # of eval_velocity
    ("mce.space", "_locate_subtriangle"): "public API",
    # of project_p0, and of a mass source g, which no subcommand sets
    ("mce.space", "cell_integrals"): "public API",
    ("mce.space", "eval_velocity"): "public API",
    ("mce.space", "fortin_interpolate"): "public API",
    ("mce.space", "macro_divergence"): "public API",
    ("mce.space", "project_p0"): "public API",
}
# the exported assemblers among them
UNREACHED = {name for module, name in NOT_REACHED
             if module == "mce.forms" and name.startswith("assemble_")}


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


def _defined():
    """(module, qualified name) of every function and method defined in
    the `mce` sources, nested ones included."""
    found = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, prefix + child.name))
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SOURCE.glob("*.py")):
        module = "mce" if path.stem == "__init__" else f"mce.{path.stem}"
        walk(ast.parse(path.read_text()), module, "")
    return found


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Subcommand -> (module, qualified name) of the `mce` functions that
    its runs call."""
    assert list(dict.fromkeys(run[0] for run in SUBCOMMAND_RUNS)) == list(
        SUBCOMMANDS)
    calls = {}
    previous = sys.getprofile()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("runs"))
        Path("stokes.cfg").write_text("levels = 2,3,4\n")
        Path("grid.mesh").write_text(write_mesh(generate_unit_square_mesh(2)))
        for run in SUBCOMMAND_RUNS:
            names = calls.setdefault(run[0], set())

            # functions only: no lambda, comprehension or module body
            def record(frame, event, arg, names=names):
                module = frame.f_globals.get("__name__", "")
                if (event == "call" and module.split(".")[0] == "mce"
                        and not frame.f_code.co_name.startswith("<")):
                    names.add((module, frame.f_code.co_qualname))

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
    assert {("mce.forms", name) for name in assemblers - UNREACHED} <= (
        set().union(*reached.values()))


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_subcommand_takes_one_assembly_path(reached, subcommand):
    taken = {name for module, name in reached[subcommand]
             if module == "mce.forms"
             and (name.startswith("assemble_") or name in SWEEPS)}
    assert taken == PATHS[subcommand]


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_pressure_systems_solve_on_the_kernel_basis(reached, subcommand):
    assert (("mce.space", "kernel_basis") in reached[subcommand]) == (
        subcommand in KERNEL_SOLVES)


def test_every_function_is_reached_or_listed(reached):
    unlisted = _defined() - set().union(*reached.values()) - set(NOT_REACHED)
    assert not unlisted, sorted(unlisted)


def test_every_listed_function_exists_and_stays_unreached(reached):
    assert set(NOT_REACHED) <= _defined()
    stale = set(NOT_REACHED) & set().union(*reached.values())
    assert not stale, sorted(stale)
    assert set(NOT_REACHED.values()) <= REASONS


@pytest.mark.parametrize(
    "path",
    sorted(SOURCE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    + sorted(DEMOS.glob("*.py")),
    ids=lambda path: (path.name if path.parent == SOURCE
                      else f"{path.parent.name}/{path.name}"))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(mce.__all__) if path.stem == "__init__" else set()
    assert not imported - used - exported, sorted(imported - used - exported)
