"""Command-line front end for the benchmark experiments.

OPTIONS gives every option's type, default, help and choices; SUBCOMMANDS
gives each subcommand the options its runner reads, and a subcommand
accepts no other flag or config key. Flag values take precedence over the
config file, which takes precedence over defaults. Exit codes: 0 success,
1 configuration error, 2 solver failure or out of memory. Runs write
byte-identical outputs for identical configs (assembly and solves are
deterministic and serial).
"""

import argparse
import logging
import os
import sys
from collections import namedtuple

import numpy as np

from . import bench
from .forms import ConfigurationError
from .mesh import (
    MeshError,
    generate_unit_square_mesh,
    read_mesh,
    subdivide,
    validate_mesh,
)
from .solve import SolverError
from .vtk import write_vtk

log = logging.getLogger("mce")


def _int_list(text):
    return tuple(int(v) for v in str(text).split(",") if v)


def _float_list(text):
    return tuple(float(v) for v in str(text).split(",") if v)


# name -> (type, default, help, choices); the flag is --name with "_" as "-"
Option = namedtuple("Option", "type default help choices", defaults=(None,))
OPTIONS = {
    "levels": Option(_int_list, (4, 8, 16),
                     "comma-separated refinement levels (cooks: exactly one)"),
    "nu": Option(_float_list, (0.3, 0.4999, 0.49999),
                 "comma-separated Poisson ratios"),
    "mu": Option(_float_list, None, "viscosity; brinkman takes a list"),
    "sigma": Option(float, 1.0, "drag coefficient"),
    "gamma": Option(float, 10.0, "Nitsche penalty parameter"),
    "mesh_file": Option(str, None, "mesh text file"),
    "out": Option(str, ".", "output directory"),
    "grid": Option(int, 40, "cells per side of the grid"),
    "scenario": Option(str, "both", "coupling scenario",
                       bench.SCENARIOS + ("both",)),
}

# the options each subcommand's runner reads
SUBCOMMANDS = {
    "stokes": ("levels", "out"),
    "darcy": ("levels", "mu", "sigma", "gamma", "out"),
    "cooks": ("levels", "nu", "out"),
    "brinkman": ("grid", "mu", "scenario", "out"),
    "mesh-info": ("grid", "mesh_file"),
}

# defaults that differ from OPTIONS for one subcommand
DEFAULTS = {"cooks": {"levels": (16,)}}


def read_config_file(path, keys=tuple(OPTIONS)):
    """Flat key=value config file in UTF-8, a leading BOM skipped; keys
    outside `keys` and undecodable bytes are rejected."""
    values = {}
    # a byte that is not UTF-8 decodes to a lone surrogate, named below
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = bytes([ord(raw[exc.start]) - 0xDC00])
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid UTF-8 byte {bad!r}"
                ) from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ConfigurationError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(expected one of {', '.join(keys)})"
                )
            option = OPTIONS[key]
            try:
                values[key] = option.type(value.strip())
                if option.choices and values[key] not in option.choices:
                    raise ValueError(f"{values[key]!r} is not one of "
                                     f"{', '.join(option.choices)}")
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: bad value for {key}: {exc}"
                ) from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def build_parser():
    parser = _Parser(
        prog="mce",
        description="Benchmarks for the compatible macro element: Stokes and "
        "Darcy convergence, Cook's membrane locking, coupled Stokes-Brinkman.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for key in keys:
            option = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=option.type, choices=option.choices,
                           help=option.help)
        p.add_argument("--config", help="key=value config file")
    return parser


def _validate(name, values):
    if values.get("grid", 1) < 1:
        raise ConfigurationError("grid must be >= 1")
    levels = values.get("levels", ())
    if any(n < 1 for n in levels):
        raise ConfigurationError("levels must be positive")
    if name == "darcy" and len(values["mu"] or ()) > 1:
        raise ConfigurationError("darcy takes a single mu value")
    if name == "cooks" and not values["nu"]:
        raise ConfigurationError("cooks needs at least one nu value")
    if name == "cooks" and not levels:
        raise ConfigurationError("cooks needs at least one level")
    if name == "cooks" and len(levels) > 1:
        raise ConfigurationError("cooks takes exactly one level")
    if name == "brinkman" and values["grid"] % 2:
        raise ConfigurationError(
            f"brinkman needs an even grid, not {values['grid']}: the "
            f"interfaces x = 1 and y = 1 of (0,2)^2 are mesh lines only "
            f"for an even grid")
    if name == "brinkman" and values["mu"] == ():
        raise ConfigurationError("brinkman needs at least one mu value")
    if name == "brinkman" and values["mu"]:
        # each value names its own output files
        seen = {}
        for mu in values["mu"]:
            tag = _mu_tag(mu)
            if tag in seen:
                raise ConfigurationError(
                    f"mu values {seen[tag]!r} and {mu!r} share the file "
                    f"tag {tag}")
            seen[tag] = mu


def _mu_tag(mu):
    """The part of a brinkman output file name that names its viscosity."""
    return f"mu{mu:g}"


def make_config(args):
    """The subcommand's own options: flags over config file over defaults."""
    keys = SUBCOMMANDS[args.subcommand]
    values = {key: OPTIONS[key].default for key in keys}
    values.update(DEFAULTS.get(args.subcommand, {}))
    if args.config:
        values.update(read_config_file(args.config, keys))
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    _validate(args.subcommand, values)
    return argparse.Namespace(subcommand=args.subcommand, **values)


def _ensure_out(config):
    os.makedirs(config.out, exist_ok=True)
    return config.out


def run_flow(config):
    """Stokes or Darcy convergence study: CSV of all levels, VTK of the
    finest level's solution."""
    name = config.subcommand
    if name == "stokes":
        record = bench.run_convergence(bench.case_stokes(), config.levels)
    else:
        mu = config.mu[0] if config.mu else 0.0
        record = bench.run_convergence(
            bench.case_darcy(mu=mu, sigma=config.sigma, gamma=config.gamma),
            config.levels)
    out = _ensure_out(config)
    csv_path = os.path.join(out, f"{name}_convergence.csv")
    record.to_csv(csv_path)
    write_vtk(record.finest, os.path.join(out, f"{name}_solution.vtk"),
              title=f"{name} benchmark")
    log.info("wrote %s", csv_path)
    for slope_name, slope in sorted(record.slopes.items()):
        log.info("  %s = %.3f", slope_name, slope)
    return 0


def run_cooks(config):
    """Locking study over the Poisson ratios: CSV of the tip displacements,
    VTK of the compatible solution for the last ratio."""
    record = bench.run_locking_study(config.nu, n=config.levels[0])
    out = _ensure_out(config)
    csv_path = os.path.join(out, "cooks_tips.csv")
    record.to_csv(csv_path)
    write_vtk(record.last, os.path.join(out, "cooks_solution.vtk"),
              title="cooks membrane displacement")
    log.info("wrote %s", csv_path)
    return 0


def run_brinkman(config):
    scenarios = (
        bench.SCENARIOS if config.scenario == "both" else (config.scenario,)
    )
    # the scenarios share one subdivided mesh and its element tables
    for result in bench.run_brinkman_scenarios(scenarios, config.mu,
                                               n=config.grid):
        out = _ensure_out(config)
        for mu in result.mu_values:
            tag = f"{result.scenario}_{_mu_tag(mu)}"
            if result.scenario == "tangential":
                result.profile_csv(
                    os.path.join(out, f"brinkman_{tag}_profile.csv"), mu
                )
            write_vtk(
                result.solutions[mu],
                os.path.join(out, f"brinkman_{tag}.vtk"),
                title=f"brinkman coupling {tag}",
            )
        log.info("scenario %s done (mu = %s)", result.scenario,
                 list(result.mu_values))
        # its files are written: release its solutions before the next
        # scenario is solved
        del result
    return 0


def run_mesh_info(config):
    if config.mesh_file:
        with open(config.mesh_file, "rb") as fh:
            mesh = read_mesh(fh.read())
        origin = config.mesh_file
    else:
        mesh = generate_unit_square_mesh(config.grid)
        origin = f"unit square grid n={config.grid}"
    report = validate_mesh(mesh)
    print(f"mesh: {origin}")
    print(f"vertices: {mesh.num_vertices}")
    print(f"triangles: {mesh.num_triangles}")
    print(f"edges: {mesh.num_edges} ({len(mesh.boundary_edges)} on boundary)")
    tags = sorted({t for t in mesh.boundary_tags if t})
    print(f"boundary tags: {', '.join(tags)}")
    print(f"mesh size 1/sqrt(NNO): {mesh.mesh_size():.6g}")
    if report:
        for item in report:
            print(f"INVALID: {item}")
        return 1
    subdivide(mesh)
    print("subdivision: ok")
    print("valid: yes")
    return 0


_RUNNERS = {
    "stokes": run_flow,
    "darcy": run_flow,
    "cooks": run_cooks,
    "brinkman": run_brinkman,
    "mesh-info": run_mesh_info,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = make_config(args)
        # an overflow leaves a non-finite value that the solve names, so
        # it ends in that one failure line, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return _RUNNERS[config.subcommand](config)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
