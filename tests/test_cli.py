import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mce
from mce import bench
from mce.cli import build_parser, main, make_config, read_config_file
from mce.forms import ConfigurationError
from mce.mesh import generate_unit_square_mesh, subdivide, write_mesh
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
        _, solution, _ = bench.solve_cooks(bench.case_cooks(0.45), n=4)
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
        """Both scenarios share one subdivided mesh, one ElementTables and
        one VTK mesh text; every file is the reference writer's bytes."""
        from mce import cli, space as space_module, vtk

        subdivisions, tables, texts, written = [], [], [], []

        def counting_subdivide(*args, **kwargs):
            subdivisions.append(subdivide(*args, **kwargs))
            return subdivisions[-1]

        class CountingTables(space_module.ElementTables):
            def __init__(self, subdiv):
                tables.append(subdiv)
                super().__init__(subdiv)

        mesh_sections = vtk.mesh_sections

        def counting_sections(subdiv):
            texts.append(subdiv)
            return mesh_sections(subdiv)

        def recording_write_vtk(solution, path, title):
            written.append((solution, path, title))
            write_vtk(solution, path, title=title)

        monkeypatch.setattr(bench, "subdivide", counting_subdivide)
        monkeypatch.setattr(bench, "ElementTables", CountingTables)
        monkeypatch.setattr(space_module, "ElementTables", CountingTables)
        monkeypatch.setattr(vtk, "mesh_sections", counting_sections)
        monkeypatch.setattr(cli, "write_vtk", recording_write_vtk)
        assert run(["brinkman", "--grid", "4", "--out", str(tmp_path)]) == 0
        assert len(subdivisions) == 1
        assert tables == subdivisions
        assert texts == subdivisions
        assert len(written) == 8
        for solution, path, title in written:
            assert solution.space.subdiv is subdivisions[0]
            expected = tmp_path / "expected.vtk"
            reference_write_vtk(solution, str(expected), title=title)
            assert Path(path).read_bytes() == expected.read_bytes()


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
        ("darcy --gamma nan --bc nitsche-slip --levels 2,3,4", "gamma"),
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

    @pytest.mark.parametrize("command, datum", [
        # the Brinkman variant of Darcy has a tangential traction
        ("darcy --mu 0.1", "nonzero tangential traction"),
    ])
    def test_slip_without_its_data_exits_1(self, tmp_path, capsys, command,
                                           datum):
        out = tmp_path / "out"
        code = run([*shlex.split(command), "--bc", "nitsche-slip",
                    "--levels", "4,8,16", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "does not fit bc mode 'nitsche-slip'" in err
        assert datum in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        # stokes has one boundary formulation
        "stokes --bc strong", "stokes --gamma 3",
        # folded into strong, which carries mu through tangential terms
        "darcy --bc nitsche-tangential",
    ])
    def test_removed_boundary_options_exit_1(self, tmp_path, capsys,
                                             command):
        out = tmp_path / "out"
        assert run([*shlex.split(command), "--levels", "2,3,4",
                    "--out", str(out)]) == 1
        assert "usage: mce" in capsys.readouterr().err
        assert not out.exists()

    def test_darcy_slip_still_runs(self, tmp_path):
        assert run(["darcy", "--bc", "nitsche-slip", "--levels", "2,3,4",
                    "--out", str(tmp_path)]) == 0

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

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble=3\n")
        with pytest.raises(ConfigurationError):
            read_config_file(str(cfg))
        assert run(["stokes", "--config", str(cfg)]) == 1


# The options each subcommand reads, written out independently of mce.cli.
ACCEPTED = {
    "stokes": {"levels", "out"},
    "darcy": {"levels", "mu", "sigma", "bc", "gamma", "out"},
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
        assert len(REJECTED) == 33

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

    def test_config_key_outside_table_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels=2,3,4\nnu=0.3\n")
        assert run(["stokes", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "'nu'" in err
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
        ("darcy", "bc=nitsche-tangential"),
        ("darcy", "bc=nitsche"),
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

    @pytest.mark.parametrize("line", readme_command_block())
    def test_command_line_parses(self, line):
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.subcommand in ACCEPTED


def reference_write_vtk(solution, path, title="mce solution"):
    """Line-by-line writer: one f-string per line, one repr per value."""
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
    ncells = len(cells)
    pressure = solution.pressure
    if pressure is None:
        pressure = np.zeros(nt)
    cell_pressure = np.repeat(np.asarray(pressure, dtype=float), 6)
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {npoints} float",
    ]
    lines += [f"{x!r} {y!r} 0.0" for x, y in points.tolist()]
    lines.append(f"CELLS {ncells} {4 * ncells}")
    lines += [f"3 {a} {b} {c}" for a, b, c in cells.tolist()]
    lines.append(f"CELL_TYPES {ncells}")
    lines += ["5"] * ncells
    lines.append(f"POINT_DATA {npoints}")
    lines.append("VECTORS velocity float")
    lines += [f"{vx!r} {vy!r} 0.0" for vx, vy in velocity.tolist()]
    lines.append(f"CELL_DATA {ncells}")
    lines.append("SCALARS pressure float 1")
    lines.append("LOOKUP_TABLE default")
    lines += [repr(p) for p in cell_pressure.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        text = path.read_text().splitlines()
        assert any(l.startswith("CELLS 12 48") for l in text)

    def test_structure_valid_legacy_vtk(self, tmp_path):
        sol = self.make_solution(2)
        path = tmp_path / "f.vtk"
        write_vtk(sol, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 2.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        i = 4
        assert lines[i].startswith("POINTS ")
        npts = int(lines[i].split()[1])
        for k in range(npts):  # every point line has 3 coordinates
            assert len(lines[i + 1 + k].split()) == 3
        i += 1 + npts
        ncells = int(lines[i].split()[1])
        total = int(lines[i].split()[2])
        assert total == 4 * ncells
        for k in range(ncells):
            parts = lines[i + 1 + k].split()
            assert parts[0] == "3" and len(parts) == 4
            assert all(0 <= int(p) < npts for p in parts[1:])
        i += 1 + ncells
        assert lines[i] == f"CELL_TYPES {ncells}"
        assert all(l == "5" for l in lines[i + 1 : i + 1 + ncells])
        i += 1 + ncells
        assert lines[i] == f"POINT_DATA {npts}"
        assert lines[i + 1] == "VECTORS velocity float"
        i += 2 + npts
        assert lines[i] == f"CELL_DATA {ncells}"
        assert lines[i + 1] == "SCALARS pressure float 1"
        assert lines[i + 2] == "LOOKUP_TABLE default"

    @pytest.mark.parametrize("make", [
        lambda: bench.solve_case(bench.case_stokes(), 4)[0],
        lambda: bench.solve_coupling("tangential", 1e-2, n=4)[0],
        lambda: bench.solve_cooks(bench.case_cooks(0.4999), n=4)[1],
        "hand-set",
    ], ids=["stokes", "coupling", "cooks", "hand-set"])
    def test_bytes_match_line_by_line_writer(self, tmp_path, make):
        if make == "hand-set":
            sol = self.make_solution(2)
            special = [-0.0, 1e-300, 1e300, -2.5, 0.1]
            sol.velocity = np.resize(special, sol.velocity.shape)
            sol.pressure = np.resize(special, sol.pressure.shape)
        else:
            sol = make()
        path, expected = tmp_path / "f.vtk", tmp_path / "expected.vtk"
        write_vtk(sol, str(path), title="case")
        reference_write_vtk(sol, str(expected), title="case")
        assert path.read_bytes() == expected.read_bytes()

    def test_constant_field_constant_point_data(self, tmp_path):
        sol = self.make_solution(2)
        path = tmp_path / "f.vtk"
        write_vtk(sol, str(path))
        lines = path.read_text().splitlines()
        start = lines.index("VECTORS velocity float") + 1
        npts = int(lines[4].split()[1])
        values = np.array(
            [[float(v) for v in lines[start + k].split()] for k in range(npts)]
        )
        expected = np.broadcast_to([1.5, -0.5, 0.0], values.shape)
        np.testing.assert_allclose(values, expected, atol=1e-14)
