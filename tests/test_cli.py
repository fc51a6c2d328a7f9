import os
import re
import resource
import shlex
import struct
import subprocess
import sys
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import mce
from mce import bench, cli
from mce.cli import (
    SUBCOMMANDS,
    build_parser,
    console_main,
    main,
    make_config,
    read_config_file,
)
from mce.forms import ConfigurationError
from mce.mesh import (
    generate_cook_mesh,
    generate_unit_square_mesh,
    subdivide,
    write_mesh,
)
from mce.space import FieldSolution, build_space, fortin_interpolate
from mce.vtk import write_vtk


def run(args):
    return main(list(args))


class TestStokesCommand:
    def test_writes_csv(self, tmp_path):
        code = run(["stokes", "--levels", "2,3,4", "--out", str(tmp_path)])
        assert code == 0
        csv = tmp_path / "stokes_convergence.csv"
        assert csv.exists()
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 levels
        assert (tmp_path / "stokes_solution.vtk").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["stokes", "--levels", "2,3,4", "--out", str(out)]) == 0
        for name in ("stokes_convergence.csv", "stokes_solution.vtk"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_finest_level_solved_once(self, tmp_path, monkeypatch):
        calls = []
        real_solve = bench.solve

        def counting_solve(system):
            calls.append(system.size)
            return real_solve(system)

        monkeypatch.setattr(bench, "solve", counting_solve)
        assert run(["stokes", "--levels", "2,3,4", "--out", str(tmp_path)]) == 0
        assert len(calls) == 3

    def test_header_has_no_div_slope(self, tmp_path):
        assert run(["stokes", "--levels", "2,3,4", "--out", str(tmp_path)]) == 0
        csv = tmp_path / "stokes_convergence.csv"
        header = csv.read_text().splitlines()[0].split(",")
        assert "err_div" in header and "slope_div" not in header
        assert [name for name in header if name.startswith("slope_")] == [
            "slope_h1_u", "slope_l2_p", "slope_l2_u", "slope_p0p"]


class TestDarcyCommand:
    def test_writes_csv(self, tmp_path):
        code = run(["darcy", "--levels", "2,3,4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "darcy_convergence.csv").exists()

    def test_gamma_reaches_the_system(self, tmp_path):
        # --gamma is the Nitsche penalty of the tangential condition: it
        # moves the solution at mu > 0, and at mu = 0, where every Nitsche
        # term vanishes with mu, it changes no byte
        def convergence_csv(mu, gamma):
            out = tmp_path / f"mu{mu}-gamma{gamma}"
            assert run(["darcy", "--mu", mu, "--gamma", gamma,
                        "--levels", "2,3,4", "--out", str(out)]) == 0
            return (out / "darcy_convergence.csv").read_bytes()

        assert convergence_csv("0.1", "3") != convergence_csv("0.1", "10")
        assert convergence_csv("0", "3") == convergence_csv("0", "10")

    @pytest.mark.parametrize("flag, value", [("--mu", "1e300"),
                                             ("--sigma", "1e306")])
    def test_overflowing_load_exits_2_by_name(self, tmp_path, flag, value):
        # the load's norm overflows, so the certificate is NaN: a named
        # solver failure, alone on stderr, and no CSV
        env = dict(os.environ, PYTHONPATH=str(Path(mce.__file__).parents[1]))
        script = "import sys\nfrom mce.cli import main\nsys.exit(main())\n"
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script, "darcy", flag, value,
             "--levels", "2,3,4", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("solver failure: non-finite certificate")
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["darcy", "--sigma", "1e308", "--levels", "2,3,4"],
    ["brinkman", "--grid", "2", "--mu", "1e308"],
])
def test_overflowing_system_is_named_not_singular(tmp_path, capsys, args):
    # the coefficient overflows the assembled system: one line that names
    # the overflow, exit 2, and no numpy warning (which the suite turns
    # into an error)
    assert run(args + ["--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("solver failure: ")
    assert "overflows double precision" in lines[0]
    assert "singular" not in lines[0]


def test_viscosity_contrast_is_singular_to_working_precision(tmp_path,
                                                             capsys):
    # mu = 1e12 in one region against 1 in the other: the matrix is
    # nonsingular, but its inverse growth, 1.4e13, passes the pivot
    # check's 1e13, so it is singular to working precision, not exactly
    assert run(["brinkman", "--grid", "2", "--mu", "1e12",
                "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("solver failure: factorization produced a "
                               "negligible pivot")
    assert lines[0].endswith("; matrix is singular to working precision")


class TestFlowOutputsPinned:
    """Every error column but err_div, and every slope, of the Stokes and
    Darcy convergence studies, pinned to 1e-12 of the column's largest
    value, so a change that claims the same values is checked here. The
    values agree with those of the error-norm kernel they replaced to
    7e-14. err_div is rounding noise. The projected-pressure slope is the
    most sensitive column: reordering the sum of the pressure mean moves
    Darcy's by about 1e-12."""

    TOL = 1e-12
    LEVELS = {"stokes": "8,16,24,32", "darcy": "4,8,16,32"}
    # one value per level for the errors, one per study for the slopes
    PINNED = {
        "stokes": {
            "err_l2_u": (0.0492588943048498, 0.011894032791141854,
                         0.005212995004547662, 0.0029102806269850354),
            "err_h1_u": (2.793265677198906, 1.3337349802969114,
                         0.874963843444497, 0.6508977137956682),
            "err_l2_p": (1.740827033919537, 0.7789731005882448,
                         0.5027731069052834, 0.37172246505938716),
            "err_p0p": (1.0470547772539236, 0.3483273561161793,
                        0.19198606666545698, 0.1291900728317174),
            "slope_h1_u": 1.035278785929325,
            "slope_l2_p": 1.068167577481248,
            "slope_l2_u": 2.0312310854641504,
            "slope_p0p": 1.4334609020310534,
        },
        "darcy": {
            "err_l2_u": (0.14156373707357775, 0.032799309623292125,
                         0.008003601085854182, 0.001986042923731196),
            "err_h1_u": (5.27441142167047, 2.6087322405616895,
                         1.2882100055859056, 0.6415460430413249),
            "err_l2_p": (0.12990070545303298, 0.06532391862112695,
                         0.0327091593006256, 0.016360490602827724),
            "err_p0p": (0.0011778021656380024, 0.00010241614214321411,
                        1.0065000786228936e-05, 1.1251212419742498e-06),
            "slope_h1_u": 1.011862079623884,
            "slope_l2_p": 0.9986976630630225,
            "slope_l2_u": 2.0228483698698243,
            "slope_p0p": 3.2541094188405846,
        },
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_columns(self, tmp_path, name):
        assert run([name, "--levels", self.LEVELS[name],
                    "--out", str(tmp_path)]) == 0
        header, *lines = (tmp_path / f"{name}_convergence.csv") \
            .read_text().splitlines()
        header = header.split(",")
        columns = {key: np.array([float(line.split(",")[k])
                                  for line in lines])
                   for k, key in enumerate(header)}
        pinned = self.PINNED[name]
        assert {key for key in header if key.startswith(("err_", "slope_"))
                and key != "err_div"} == set(pinned)
        for key, want in pinned.items():
            want = np.broadcast_to(want, (len(lines),))
            np.testing.assert_allclose(columns[key], want, rtol=0,
                                       atol=self.TOL * np.abs(want).max(),
                                       err_msg=key)


class TestCooksCommand:
    def test_writes_tips(self, tmp_path):
        code = run(
            ["cooks", "--nu", "0.3,0.45", "--levels", "4",
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "cooks_tips.csv").read_text().strip().splitlines()
        assert lines[0] == "nu,tip_compatible,tip_affine"
        assert len(lines) == 3

    def test_one_compatible_solve_per_nu(self, tmp_path, monkeypatch):
        calls = []
        real_solve = bench.solve

        def counting_solve(system):
            calls.append(system.size)
            return real_solve(system)

        monkeypatch.setattr(bench, "solve", counting_solve)
        assert run(["cooks", "--nu", "0.3,0.45", "--levels", "4",
                    "--out", str(tmp_path)]) == 0
        # one compatible and one plain-P1 solve per nu, told apart by size
        compatible = bench._cooks_space(4)
        affine = bench._plain_affine(compatible)
        assert affine.n_free_velocity < compatible.n_free_velocity
        assert calls.count(compatible.n_free_velocity) == 2
        assert calls.count(affine.n_free_velocity) == 2
        assert len(calls) == 4
        assert (tmp_path / "cooks_solution.vtk").exists()

    def test_vtk_is_the_last_nu_solution(self, tmp_path):
        assert run(["cooks", "--nu", "0.3,0.45", "--levels", "4",
                    "--out", str(tmp_path)]) == 0
        problem = bench.case_cooks(0.45)
        system = bench._cooks_system(bench._cooks_space(4), problem)
        _, solution = bench._cooks_tip(system)
        expected = tmp_path / "expected.vtk"
        write_vtk(solution, str(expected), title="cooks membrane displacement")
        assert (tmp_path / "cooks_solution.vtk").read_bytes() == \
            expected.read_bytes()

    @pytest.mark.parametrize("levels", ["2,4,16", "16,4"])
    def test_more_than_one_level_exits_1(self, tmp_path, capsys, levels):
        out = tmp_path / "out"
        assert run(["cooks", "--nu", "0.3", "--levels", levels,
                    "--out", str(out)]) == 1
        assert "exactly one level" in capsys.readouterr().err
        assert not out.exists()

    def test_default_is_one_level(self):
        config = make_config(build_parser().parse_args(["cooks"]))
        assert config.levels == (16,)


class TestBrinkmanCommand:
    def test_tangential_profile(self, tmp_path):
        code = run(
            ["brinkman", "--scenario", "tangential", "--mu", "1.0",
             "--grid", "8", "--out", str(tmp_path)]
        )
        assert code == 0
        prof = tmp_path / "brinkman_tangential_mu1_profile.csv"
        assert prof.exists()
        lines = prof.read_text().strip().splitlines()
        assert lines[0] == "x,ux,uy"
        assert len(lines) == 10  # 9 vertices on the line + header
        assert (tmp_path / "brinkman_tangential_mu1.vtk").exists()

    def test_normal_field(self, tmp_path):
        code = run(
            ["brinkman", "--scenario", "normal", "--mu", "1.0,0.01",
             "--grid", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "brinkman_normal_mu1.vtk").exists()
        assert (tmp_path / "brinkman_normal_mu0.01.vtk").exists()

    @pytest.mark.parametrize("mus, named", [
        ("1,1.0000001", "1.0 and 1.0000001"),
        ("0.01,1,1", "1.0 and 1.0"),
    ])
    def test_values_sharing_a_file_tag_exit_1_before_any_mesh(
            self, tmp_path, capsys, monkeypatch, mus, named):
        """Two viscosities that `{mu:g}` names alike would write one file;
        the list is refused before a mesh is built."""
        built = []
        monkeypatch.setattr(bench, "_square2_mesh", built.append)
        out = tmp_path / "out"
        code = run(["brinkman", "--grid", "4", "--mu", mus, "--scenario",
                    "tangential", "--out", str(out)])
        assert code == 1
        assert f"mu values {named} share the file tag mu1" \
            in capsys.readouterr().err
        assert not built and not out.exists()

    def test_failed_run_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "D"
        code = run(["brinkman", "--mu", "nan", "--grid", "4", "--scenario",
                    "tangential", "--out", str(out)])
        assert code == 1
        assert "mu must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_run_does_not_blame_the_pressure_level(self, tmp_path,
                                                             capsys):
        # mu = 1e300 drowns the rest of the operator; the natural top and
        # bottom boundaries still fix the pressure level
        code = run(["brinkman", "--grid", "2", "--mu", "1e300",
                    "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "negligible pivot" in err
        assert "pressure block nullspace" not in err

    def test_one_mesh_for_both_scenarios(self, tmp_path, monkeypatch):
        """Both scenarios share one subdivided mesh and one ElementTables;
        every file reads back as the reference arrays and bytes."""
        from mce import cli, space as space_module

        subdivisions, tables, written = [], [], []

        def counting_subdivide(*args, **kwargs):
            subdivisions.append(subdivide(*args, **kwargs))
            return subdivisions[-1]

        class CountingTables(space_module.ElementTables):
            def __init__(self, subdiv):
                tables.append(subdiv)
                super().__init__(subdiv)

        def recording_write_vtk(solution, path, title):
            written.append((solution, path, title))
            write_vtk(solution, path, title=title)

        monkeypatch.setattr(bench, "subdivide", counting_subdivide)
        monkeypatch.setattr(bench, "ElementTables", CountingTables)
        monkeypatch.setattr(space_module, "ElementTables", CountingTables)
        monkeypatch.setattr(cli, "write_vtk", recording_write_vtk)
        assert run(["brinkman", "--grid", "4", "--out", str(tmp_path)]) == 0
        assert len(subdivisions) == 1
        assert tables == subdivisions
        assert len(written) == 8
        for solution, path, title in written:
            assert solution.space.subdiv is subdivisions[0]
            assert_vtk_matches_reference(path, solution, title)


class TestMeshInfo:
    def test_generated(self, capsys):
        assert run(["mesh-info", "--grid", "3"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 16" in out
        assert "triangles: 18" in out
        assert "valid: yes" in out

    def test_mesh_file(self, tmp_path, capsys):
        mesh = generate_unit_square_mesh(2)
        path = tmp_path / "m.mesh"
        path.write_text(write_mesh(mesh))
        assert run(["mesh-info", "--mesh-file", str(path)]) == 0
        assert "vertices: 9" in capsys.readouterr().out

    def test_mesh_file_with_bom(self, tmp_path, capsys):
        # as an editor that saves UTF-8 with a byte-order mark writes it
        # (one file name, as the output names the file)
        text = write_mesh(generate_cook_mesh(3))
        path = tmp_path / "cook.mesh"
        path.write_text(text, encoding="utf-8")
        assert run(["mesh-info", "--mesh-file", str(path)]) == 0
        expected = capsys.readouterr().out
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfmce-mesh 1\n")
        assert run(["mesh-info", "--mesh-file", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected and not captured.err
        assert "valid: yes" in expected

    def test_sheared_cook_mesh_subdivides(self, tmp_path, capsys):
        # every boundary edge is cut at its midpoint, so Cook's sheared
        # cells subdivide
        path = tmp_path / "cook.mesh"
        path.write_text(write_mesh(generate_cook_mesh(3)))
        assert run(["mesh-info", "--mesh-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "subdivision: ok\n" in out
        assert "valid: yes" in out


# mesh files that once ended in a traceback (undecodable byte, a count whose
# array does not fit in memory) or passed as valid (non-finite coordinate,
# no triangles); each ends in exit 1 and the named message
BROKEN_MESH_FILES = {
    "bad-byte.mesh": (b"mce-mesh 1\nvertices 3\n0 0\n1 \xff\n0 1\n",
                      "error: line 4: invalid UTF-8 byte"),
    "huge-vertices.mesh": (b"mce-mesh 1\nvertices 99999999999999\n0 0\n",
                           "error: line 3: unexpected end of file"),
    "huge-triangles.mesh": (
        b"mce-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 99999999999\n"
        b"0 1 2\n", "error: line 7: unexpected end of file"),
    "long-count.mesh": (b"mce-mesh 1\nvertices " + b"9" * 5000 + b"\n0 0\n",
                        "error: line 3: unexpected end of file"),
    "nan.mesh": (b"mce-mesh 1\nvertices 3\n0 0\nnan 0\n0 1\n",
                 "error: line 4: non-finite coordinate in 'nan 0'"),
}


class TestMeshInfoErrors:
    @pytest.mark.parametrize("name", sorted(BROKEN_MESH_FILES))
    def test_named_error(self, tmp_path, capsys, name):
        data, message = BROKEN_MESH_FILES[name]
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["mesh-info", "--mesh-file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "valid: yes" not in captured.out

    def test_named_errors_under_address_space_limit(self, tmp_path):
        # as the benchmark worker runs the CLI: address space capped at 4 GiB
        paths = []
        for name, (data, _) in sorted(BROKEN_MESH_FILES.items()):
            paths.append(str(tmp_path / name))
            Path(paths[-1]).write_bytes(data)
        script = (
            "import resource, sys\n"
            "cap = 4 << 30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from mce.cli import main\n"
            "print([main(['mesh-info', '--mesh-file', p])\n"
            "       for p in sys.argv[1:]])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mce.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([1] * len(paths))
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines()
                  if line.startswith("error: ")]
        messages = [BROKEN_MESH_FILES[name][1]
                    for name in sorted(BROKEN_MESH_FILES)]
        assert len(errors) == len(messages)
        assert all(map(str.startswith, errors, messages))

    def test_empty_mesh_invalid(self, tmp_path, capsys):
        path = tmp_path / "empty.mesh"
        path.write_text("mce-mesh 1\nvertices 0\ntriangles 0\nboundary 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["mesh-info", "--mesh-file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID: no triangles" in out
        assert "valid: yes" not in out

    def test_utf8_tokens_still_read(self, tmp_path, capsys):
        # fullwidth digits and an ideographic space, as a UTF-8 locale read
        # them before
        path = tmp_path / "wide.mesh"
        path.write_bytes(
            "mce-mesh 1\nvertices 3\n0 0\n\uff11\u30000\n0 1\ntriangles 1\n"
            "0 \uff11 2\nboundary 0\n".encode("utf-8"))
        assert run(["mesh-info", "--mesh-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 3" in out and "valid: yes" in out


class TestRewrittenOutputs:
    """A rerun into the same --out directory unlinks each output and writes
    a new file with the same bytes (rewriting in place is far slower)."""

    @pytest.mark.parametrize("args", [
        ["brinkman", "--grid", "8"],
        ["stokes", "--levels", "2,3,4"],
        ["cooks", "--levels", "2"],
    ])
    def test_rerun_writes_new_identical_files(self, tmp_path, args):
        out, kept = tmp_path / "out", tmp_path / "kept"
        assert run(args + ["--out", str(out)]) == 0
        kept.mkdir()
        names = sorted(p.name for p in out.iterdir())
        assert names
        for name in names:
            os.link(out / name, kept / name)
        assert run(args + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (kept / name).read_bytes()
            assert not os.path.samefile(out / name, kept / name)


class TestConfigHandling:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["stokes", "--frobnicate", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_cooks_without_nu_exits_1(self, tmp_path, capsys):
        assert run(["cooks", "--nu", "", "--out", str(tmp_path)]) == 1
        assert "at least one nu" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, key, message", [
        ("brinkman", "mu", "at least one mu"),
        ("cooks", "levels", "at least one level"),
    ])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_empty_list_exits_1(self, tmp_path, capsys, subcommand, key,
                                message, from_config):
        out = tmp_path / "out"
        if from_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}=\nout={out}\n")
            args = [subcommand, "--config", str(cfg)]
        else:
            args = [subcommand, "--" + key, "", "--out", str(out)]
        assert run(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["stokes", "darcy"])
    @pytest.mark.parametrize("levels, message", [
        ("16", "at least 3 levels"),
        ("4,8", "at least 3 levels"),
        ("4,16,8", "strictly increasing"),
    ])
    def test_unfittable_levels_exit_1(self, tmp_path, capsys, subcommand,
                                      levels, message):
        code = run([subcommand, "--levels", levels, "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("darcy --sigma nan --levels 2,3,4", "sigma"),
        ("darcy --mu inf --levels 2,3,4", "mu"),
        ("darcy --sigma inf --levels 2,3,4", "sigma"),
        ("darcy --gamma nan --levels 2,3,4", "gamma"),
        ("brinkman --mu nan --grid 4 --scenario tangential", "mu"),
    ])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_non_finite_coefficient_exits_1(self, tmp_path, capsys, command,
                                            name, from_config):
        subcommand, *flags = shlex.split(command)
        if from_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key[2:]}={value}\n" for key, value
                                   in zip(flags[::2], flags[1::2])))
            flags = ["--config", str(cfg)]
        assert run([subcommand, *flags, "--out", str(tmp_path)]) == 1
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        # stokes has one boundary formulation
        "stokes --bc strong", "stokes --gamma 3",
        # folded into strong, which carries mu through tangential terms
        "darcy --bc nitsche-tangential",
        # darcy has one boundary formulation too
        "darcy --bc nitsche-slip", "darcy --bc strong",
    ])
    def test_removed_boundary_options_exit_1(self, tmp_path, capsys,
                                             command):
        out = tmp_path / "out"
        assert run([*shlex.split(command), "--levels", "2,3,4",
                    "--out", str(out)]) == 1
        assert "usage: mce" in capsys.readouterr().err
        assert not out.exists()

    def test_no_subcommand_exits_1(self):
        assert run([]) == 1

    def test_bad_nu_rejected(self):
        assert run(["cooks", "--nu", "0.6"]) == 1

    def test_bad_nu_in_a_list_exits_1_before_any_space(self, tmp_path,
                                                       capsys, monkeypatch):
        # the library checks every nu before the locking study builds its
        # space, so a bad last value costs no solve of the good ones
        built = []
        monkeypatch.setattr(bench, "_cooks_space", built.append)
        out = tmp_path / "out"
        assert run(["cooks", "--nu", "0.3,0.7", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Poisson ratio 0.7 is not in (0, 0.5)" in err
        assert not built and not out.exists()

    def test_config_file_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels=2,3,4\nout=" + str(tmp_path / "cfgout") + "\n")
        # CLI --out overrides the config file
        code = run(
            ["stokes", "--config", str(cfg), "--out", str(tmp_path / "cli")]
        )
        assert code == 0
        assert (tmp_path / "cli" / "stokes_convergence.csv").exists()
        assert not (tmp_path / "cfgout").exists()

    @pytest.mark.parametrize("flag", ["--threads", "--seed"])
    def test_removed_flags_rejected(self, flag):
        assert run(["stokes", flag, "1"]) == 1

    def test_config_line_without_equals_names_its_line(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# levels\nlevels 2,3,4\n")
        assert run(["stokes", "--config", str(cfg)]) == 1
        assert (f"{cfg}:2: expected key=value, got 'levels 2,3,4'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("data, line, byte", [
        (b"levels=2,3,4\nout=\xff\n", 2, "b'\\xff'"),
        (b"\xc3(levels=2,3,4\n", 1, "b'\\xc3'"),
    ])
    def test_config_undecodable_byte_names_its_line(self, tmp_path, capsys,
                                                    data, line, byte):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(data)
        out = tmp_path / "out"
        assert run(["stokes", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"error: {cfg}:{line}: invalid UTF-8 byte {byte}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_leading_bom_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("levels=2,3,4\n".encode("utf-8-sig"))
        assert read_config_file(str(cfg)) == {"levels": (2, 3, 4)}

    @pytest.mark.parametrize("args, message", [
        (["mesh-info", "--grid", "0"], "grid must be >= 1"),
        (["stokes", "--levels", "0,4,8"], "levels must be positive"),
    ])
    def test_non_positive_size_exits_1(self, tmp_path, capsys, args,
                                       message):
        out = tmp_path / "out"
        if args[0] == "stokes":
            args = args + ["--out", str(out)]
        assert run(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--grid", "3"],
        ["--grid", "5", "--scenario", "tangential"],
    ])
    def test_brinkman_odd_grid_exits_1_before_any_mesh(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        args):
        # on (0,2)^2 the interfaces x = 1 and y = 1 hold no vertex of an
        # odd grid: the profile would be empty, the subdomains jagged
        built = []
        monkeypatch.setattr(bench, "_square2_mesh", built.append)
        out = tmp_path / "out"
        assert run(["brinkman", *args, "--out", str(out)]) == 1
        grid = args[1]
        assert (f"error: brinkman needs an even grid, not {grid}: the "
                f"interfaces x = 1 and y = 1 of (0,2)^2 are mesh lines only "
                f"for an even grid" in capsys.readouterr().err)
        assert not built and not out.exists()

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble=3\n")
        with pytest.raises(ConfigurationError):
            read_config_file(str(cfg))
        assert run(["stokes", "--config", str(cfg)]) == 1


# The options each subcommand reads, written out independently of mce.cli.
ACCEPTED = {
    "stokes": {"levels", "out"},
    "darcy": {"levels", "mu", "sigma", "gamma", "out"},
    "cooks": {"levels", "nu", "out"},
    "brinkman": {"grid", "mu", "scenario", "out"},
    "mesh-info": {"grid", "mesh-file"},
}
# a value each option's own parser accepts
SAMPLE_VALUES = {
    "levels": "4,8,16", "nu": "0.3", "mu": "1.0", "sigma": "1.0",
    "gamma": "10", "bc": "strong", "mesh-file": "m.mesh", "out": "OUT",
    "grid": "4", "scenario": "normal",
}
REJECTED = [
    (sub, option)
    for sub, accepted in ACCEPTED.items()
    for option in SAMPLE_VALUES
    if option not in accepted
]


class TestOptionTable:
    def test_rejected_pairs_count(self):
        assert len(REJECTED) == 34

    @pytest.mark.parametrize("subcommand, option", REJECTED)
    def test_flag_outside_table_exits_1(self, tmp_path, capsys, subcommand,
                                        option):
        value = SAMPLE_VALUES[option].replace("OUT", str(tmp_path / "out"))
        assert run([subcommand, f"--{option}", value]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "usage" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", sorted(ACCEPTED))
    def test_help_lists_exactly_the_table(self, capsys, subcommand):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^  (-[-\w]+)", capsys.readouterr().out,
                                re.MULTILINE))
        expected = {f"--{o}" for o in ACCEPTED[subcommand]}
        assert listed == expected | {"--config", "-h"}

    @pytest.mark.parametrize("subcommand, line", [
        ("stokes", "nu=0.3"),
        ("darcy", "bc=strong"),
    ])
    def test_config_key_outside_table_names_line(self, tmp_path, capsys,
                                                 subcommand, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"levels=2,3,4\n{line}\n")
        assert run([subcommand, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and repr(line.split("=")[0]) in err
        assert not (tmp_path / "out").exists()

    def test_config_key_of_the_subcommand_is_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu=0.3\nlevels=2\nout=" + str(tmp_path / "o") + "\n")
        assert run(["cooks", "--config", str(cfg)]) == 0
        lines = (tmp_path / "o" / "cooks_tips.csv").read_text().splitlines()
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 0.3

    def test_darcy_takes_one_mu(self, tmp_path, capsys):
        code = run(["darcy", "--levels", "2,3,4", "--mu", "0.1,0.2",
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "single mu" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand, line", [
        ("brinkman", "scenario=sideways"),
    ])
    def test_config_value_outside_choices(self, tmp_path, capsys, subcommand,
                                          line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n" + line + "\n")
        assert run([subcommand, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: bad value" in err and "not one of" in err


def readme_cli_section():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def readme_command_block():
    """The `mce ...` lines of the README's "Command line" code block."""
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("mce ")]


class TestReadme:
    def test_command_block_has_every_subcommand(self):
        names = {shlex.split(line)[1] for line in readme_command_block()}
        assert names == set(ACCEPTED)

    def test_option_table_matches_parser(self):
        rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", readme_cli_section(),
                          re.MULTILINE)
        table = {sub: set(re.findall(r"--([a-z-]+)", cells))
                 for sub, cells in rows}
        assert table == ACCEPTED

    def test_option_table_matches_subcommands(self):
        rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", readme_cli_section(),
                          re.MULTILINE)
        assert [sub for sub, _ in rows] == list(SUBCOMMANDS)
        for sub, cells in rows:
            flags = re.findall(r"`--([a-z-]+)", cells)
            assert flags == [key.replace("_", "-")
                             for key in SUBCOMMANDS[sub]], sub

    @pytest.mark.parametrize("line", readme_command_block())
    def test_command_line_parses(self, line):
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.subcommand in ACCEPTED


VtkFile = namedtuple("VtkFile",
                     "title points cells cell_types velocity pressure")


def read_legacy_vtk(path):
    """Read a binary legacy VTK 2.0 unstructured grid as mce writes it.

    Every header line and count is checked, each block is read with
    np.frombuffer and must end in a newline, and no bytes may trail the
    last block. Arrays come back as (n, 3) points and velocities, (ncells,
    3) cell point ids, and per-cell types and pressures."""
    data = Path(path).read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode(), end + 1
        return text

    def block(dtype, count, width=1):
        nonlocal pos
        size = np.dtype(dtype).itemsize * count * width
        assert pos + size < len(data), "block runs past the end of the file"
        values = np.frombuffer(data, dtype, count * width, pos)
        pos += size
        assert data[pos:pos + 1] == b"\n", "block not followed by a newline"
        pos += 1
        return values.reshape(count, width) if width > 1 else values

    def count(expected_words):
        words = line().split()
        assert len(words) == len(expected_words) + 1
        assert [w for w in words if not w.isdigit()] == expected_words
        return int(words[1])

    assert line() == "# vtk DataFile Version 2.0"
    title = line()
    assert len(title) <= 256
    assert line() == "BINARY"
    assert line() == "DATASET UNSTRUCTURED_GRID"
    npoints = count(["POINTS", "double"])
    points = block(">f8", npoints, 3)
    words = line().split()
    assert words[0] == "CELLS" and len(words) == 3
    ncells, size = int(words[1]), int(words[2])
    assert size == 4 * ncells
    cells = block(">i4", ncells, 4)
    assert (cells[:, 0] == 3).all()  # each cell lists 3 point ids
    assert count(["CELL_TYPES"]) == ncells
    cell_types = block(">i4", ncells)
    assert count(["POINT_DATA"]) == npoints
    assert line() == "VECTORS velocity double"
    velocity = block(">f8", npoints, 3)
    assert count(["CELL_DATA"]) == ncells
    assert line() == "SCALARS pressure double 1"
    assert line() == "LOOKUP_TABLE default"
    pressure = block(">f8", ncells)
    assert pos == len(data), f"{len(data) - pos} bytes trail the last block"
    return VtkFile(title, points, cells[:, 1:], cell_types, velocity,
                   pressure)


def reference_vtk_arrays(solution):
    """Points (npoints, 2), cells (ncells, 3), velocity (npoints, 2) and
    per-cell pressure, built one step at a time from the mesh and tables."""
    space = solution.space
    mesh = space.mesh
    tables = space.tables
    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    npoints = nv + ne + nt
    points = np.vstack(
        [mesh.vertices, space.subdiv.edge_splits, space.subdiv.centroids]
    )
    velocity = np.zeros((npoints, 2))
    node_values = tables.field_node_values(solution.velocity)
    gids = np.hstack(
        [
            mesh.triangles,
            nv + mesh.tri_edges,
            (nv + ne + np.arange(nt))[:, None],
        ]
    )
    velocity[gids.ravel()] = node_values.reshape(-1, 2)
    cells = gids[:, space.subdiv.SUBTRIANGLES].reshape(-1, 3)
    pressure = solution.pressure
    if pressure is None:
        pressure = np.zeros(nt)
    cell_pressure = np.repeat(np.asarray(pressure, dtype=float), 6)
    return points, cells, velocity, cell_pressure


def reference_write_vtk(solution, path, title="mce solution"):
    """Line-by-line writer: one header line at a time, one struct.pack per
    point, cell and value."""
    points, cells, velocity, cell_pressure = reference_vtk_arrays(solution)
    npoints, ncells = len(points), len(cells)
    xyz = [struct.pack(">3d", x, y, 0.0) for x, y in points.tolist()]
    uvw = [struct.pack(">3d", u, v, 0.0) for u, v in velocity.tolist()]
    parts = [
        "# vtk DataFile Version 2.0\n", f"{title}\n", "BINARY\n",
        "DATASET UNSTRUCTURED_GRID\n", f"POINTS {npoints} double\n",
        *xyz, "\n",
        f"CELLS {ncells} {4 * ncells}\n",
        *(struct.pack(">4i", 3, a, b, c) for a, b, c in cells.tolist()),
        "\n", f"CELL_TYPES {ncells}\n",
        *(struct.pack(">i", 5) for _ in range(ncells)), "\n",
        f"POINT_DATA {npoints}\n", "VECTORS velocity double\n", *uvw, "\n",
        f"CELL_DATA {ncells}\n", "SCALARS pressure double 1\n",
        "LOOKUP_TABLE default\n",
        *(struct.pack(">d", p) for p in cell_pressure.tolist()), "\n",
    ]
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part.encode() if isinstance(part, str) else part)


def assert_vtk_matches_reference(path, solution, title):
    """The file read back equals the reference arrays exactly, and its
    bytes equal the line-by-line writer's."""
    got = read_legacy_vtk(path)
    points, cells, velocity, cell_pressure = reference_vtk_arrays(solution)
    assert got.title == title
    assert np.array_equal(got.points[:, :2], points)
    assert np.array_equal(got.cells, cells)
    assert (got.cell_types == 5).all()
    assert np.array_equal(got.velocity[:, :2], velocity)
    assert not got.points[:, 2].any() and not got.velocity[:, 2].any()
    assert np.array_equal(got.pressure, cell_pressure)
    expected = Path(path).with_name("expected.vtk")
    reference_write_vtk(solution, str(expected), title=title)
    assert Path(path).read_bytes() == expected.read_bytes()
    return got


class TestVtkWriter:
    def make_solution(self, n=1):
        sub = subdivide(generate_unit_square_mesh(n))
        space = build_space(sub, "free")
        coeffs = fortin_interpolate((1.5, -0.5), space)
        return FieldSolution(
            space, coeffs, np.arange(space.n_pressure, dtype=float)
        )

    def test_cell_count(self, tmp_path):
        sol = self.make_solution(1)
        path = tmp_path / "f.vtk"
        write_vtk(sol, str(path))
        got = read_legacy_vtk(path)
        assert got.cells.shape == (12, 3)
        assert got.pressure.shape == (12,)

    def test_structure_valid_legacy_vtk(self, tmp_path):
        sol = self.make_solution(2)
        path = tmp_path / "f.vtk"
        write_vtk(sol, str(path))
        got = read_legacy_vtk(path)
        mesh = sol.space.mesh
        npts = mesh.num_vertices + mesh.num_edges + mesh.num_triangles
        assert got.title == "mce solution"
        assert got.points.shape == got.velocity.shape == (npts, 3)
        assert got.cells.shape == (6 * mesh.num_triangles, 3)
        assert ((0 <= got.cells) & (got.cells < npts)).all()
        # every point is a vertex of some cell, and no cell repeats a point
        assert np.array_equal(np.unique(got.cells), np.arange(npts))
        assert (np.diff(np.sort(got.cells, axis=1), axis=1) > 0).all()
        assert (got.cell_types == 5).all()
        assert not got.points[:, 2].any()

    @pytest.mark.parametrize("make", [
        lambda: bench.solve_case(bench.case_stokes(), 4)[0],
        lambda: next(bench.run_brinkman_scenarios(
            ("tangential",), (1e-2,), n=4)).solutions[1e-2],
        lambda: bench.run_locking_study((0.4999,), n=4).last,
        "hand-set",
    ], ids=["stokes", "coupling", "cooks", "hand-set"])
    def test_bytes_match_line_by_line_writer(self, tmp_path, make):
        special = [-0.0, 1e-300, 1e300, -2.5, 0.1]
        if make == "hand-set":
            sol = self.make_solution(2)
            sol.velocity = np.resize(special, sol.velocity.shape)
            sol.pressure = np.resize(special, sol.pressure.shape)
        else:
            sol = make()
        path = tmp_path / "f.vtk"
        write_vtk(sol, str(path), title="case")
        got = assert_vtk_matches_reference(path, sol, "case")
        if make == "hand-set":
            # every pressure comes back bit for bit, -0.0 with its sign bit
            expected = np.repeat(sol.pressure, 6)
            assert got.pressure.tobytes() == expected.astype(">f8").tobytes()
            assert set(got.pressure.tolist()) == set(special)
            assert np.signbit(got.pressure[expected == 0]).all()

    def test_constant_field_constant_point_data(self, tmp_path):
        sol = self.make_solution(2)
        path = tmp_path / "f.vtk"
        write_vtk(sol, str(path))
        values = read_legacy_vtk(path).velocity
        expected = np.broadcast_to([1.5, -0.5, 0.0], values.shape)
        np.testing.assert_allclose(values, expected, atol=1e-14)

    @pytest.mark.parametrize("title", ["two\nlines", "cr\rtitle", "x" * 257],
                             ids=["two-lines", "carriage-return", "257-chars"])
    def test_title_not_one_short_line_refused(self, tmp_path, title):
        path = tmp_path / "f.vtk"
        with pytest.raises(ValueError, match="one line of at most 256"):
            write_vtk(self.make_solution(1), str(path), title=title)
        assert not path.exists()

    def test_title_of_256_characters_written(self, tmp_path):
        path = tmp_path / "f.vtk"
        write_vtk(self.make_solution(1), str(path), title="x" * 256)
        assert read_legacy_vtk(path).title == "x" * 256

    @pytest.mark.parametrize("field", ["velocity", "pressure"])
    def test_field_length_must_match_the_space(self, tmp_path, field):
        sol = self.make_solution(2)
        setattr(sol, field, getattr(sol, field)[:3])
        path = tmp_path / "f.vtk"
        with pytest.raises(ValueError, match=f"{field} has shape \\(3,\\)"):
            write_vtk(sol, str(path))
        assert not path.exists()


class TestCliVtkReadBack:
    """Every VTK file the CLI writes reads back as a valid legacy file."""

    @pytest.mark.parametrize("args, files", [
        (["stokes", "--levels", "2,3,4"], 1),
        (["cooks", "--levels", "4"], 1),
        (["brinkman", "--grid", "4"], 8),
    ], ids=["stokes", "cooks", "brinkman"])
    def test_every_file_reads_back(self, tmp_path, args, files):
        assert run(args + ["--out", str(tmp_path)]) == 0
        paths = sorted(tmp_path.glob("*.vtk"))
        assert len(paths) == files
        for path in paths:
            got = read_legacy_vtk(path)
            npoints, ncells = len(got.points), len(got.cells)
            assert len(got.velocity) == npoints
            assert len(got.cell_types) == len(got.pressure) == ncells
            assert ncells % 6 == 0
            assert ((0 <= got.cells) & (got.cells < npoints)).all()
            assert (got.cell_types == 5).all()
            for values in (got.points, got.velocity, got.pressure):
                assert np.isfinite(values).all()


def test_out_of_memory_exits_2_by_name(tmp_path):
    """A MemoryError ends in a named message and exit code 2, not a
    traceback. The child alone runs under a 700 MB address-space limit."""
    cap = 700 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(mce.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    script = "import sys\nfrom mce.cli import main\nsys.exit(main())\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, "stokes", "--levels", "4,8,512",
         "--out", str(tmp_path)],
        env=env, preexec_fn=limit, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("error, message", [
    (MemoryError("cannot allocate 8 GiB"),
     "error: out of memory: cannot allocate 8 GiB"),
    (MemoryError(), "error: out of memory: allocation failed"),
])
def test_memory_error_in_a_runner_exits_2_by_name(monkeypatch, capsys, error,
                                                  message):
    # no real allocation: the runner raises at once
    def runner(config):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "mesh-info", runner)
    assert run(["mesh-info", "--grid", "2"]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_superlu_allocation_failure_is_out_of_memory(monkeypatch, capsys,
                                                     tmp_path):
    # SuperLU reports a failed allocation as a RuntimeError whose message
    # ends in a newline; the matrix is well posed, so no "singular"
    def splu(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc() at "
                           "line 145 in file memory.c\n")

    monkeypatch.setattr(sys.modules["mce.solve"], "splu", splu)
    assert run(["stokes", "--levels", "2,3,4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: factorization of the "
                          "kernel operator Z^T A Z: SUPERLU_MALLOC fails")
    assert "singular" not in err
    assert err.count("\n") == 1 and err.endswith("memory.c\n")


@pytest.mark.parametrize("grid, code", [("2", 0), ("0", 1)])
def test_console_main_exits_with_mains_code(monkeypatch, capsys, grid, code):
    monkeypatch.setattr(sys, "argv", ["mce", "mesh-info", "--grid", grid])
    with pytest.raises(SystemExit) as exit_info:
        console_main()
    assert exit_info.value.code == code
