"""Command-line front end for the benchmark experiments.

Exit codes: 0 success, 1 configuration error, 2 solver failure. Flag values
take precedence over the config file, which takes precedence over defaults.
Runs write byte-identical outputs for identical configs (assembly and
solves are deterministic and serial).
"""

import argparse
import logging
import os
import sys
from dataclasses import dataclass

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

SUBCOMMANDS = ("stokes", "darcy", "cooks", "brinkman", "mesh-info")

_DEFAULTS = {
    "levels": (4, 8, 16),
    "nu": (0.3, 0.4999, 0.49999),
    "mu": None,           # per-subcommand default
    "sigma": 1.0,
    "gamma": 10.0,
    "bc": None,           # case default
    "mesh_file": None,
    "out": ".",
    "grid": 40,
    "scenario": "both",
}


@dataclass
class RunConfig:
    subcommand: str
    levels: tuple = _DEFAULTS["levels"]
    nu: tuple = _DEFAULTS["nu"]
    mu: tuple = _DEFAULTS["mu"]
    sigma: float = _DEFAULTS["sigma"]
    gamma: float = _DEFAULTS["gamma"]
    bc: str = _DEFAULTS["bc"]
    mesh_file: str = _DEFAULTS["mesh_file"]
    out: str = _DEFAULTS["out"]
    grid: int = _DEFAULTS["grid"]
    scenario: str = _DEFAULTS["scenario"]

    def validate(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigurationError(f"unknown subcommand {self.subcommand!r}")
        if self.bc not in (None, "strong", "nitsche-tangential", "nitsche-slip"):
            raise ConfigurationError(f"unknown bc mode {self.bc!r}")
        if self.grid < 1:
            raise ConfigurationError("grid must be >= 1")
        if any(n < 1 for n in self.levels):
            raise ConfigurationError("levels must be positive")
        if self.subcommand in ("stokes", "darcy"):
            if len(self.levels) < 3:
                raise ConfigurationError(
                    f"{self.subcommand} needs at least 3 levels to fit slopes"
                )
            if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
                raise ConfigurationError("levels must be strictly increasing")
        if self.scenario not in ("normal", "tangential", "both"):
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        for nu in self.nu:
            if not 0.0 < nu < 0.5:
                raise ConfigurationError("nu values must lie in (0, 0.5)")
        if self.subcommand == "cooks" and not self.nu:
            raise ConfigurationError("cooks needs at least one nu value")
        return self


def _int_list(text):
    return tuple(int(v) for v in str(text).split(",") if v)


def _float_list(text):
    return tuple(float(v) for v in str(text).split(",") if v)


_CONFIG_PARSERS = {
    "levels": _int_list,
    "nu": _float_list,
    "mu": _float_list,
    "sigma": float,
    "gamma": float,
    "bc": str,
    "mesh_file": str,
    "out": str,
    "grid": int,
    "scenario": str,
}


def read_config_file(path):
    """Flat key=value config file; unknown keys are rejected."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_PARSERS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value.strip())
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
    sub = parser.add_subparsers(dest="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--levels", type=_int_list, default=None,
                       help="comma-separated refinement levels, e.g. 4,8,16")
        p.add_argument("--nu", type=_float_list, default=None,
                       help="comma-separated Poisson ratios (cooks)")
        p.add_argument("--mu", type=_float_list, default=None,
                       help="comma-separated viscosities (brinkman)")
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None,
                       help="Nitsche penalty parameter")
        p.add_argument("--bc", default=None,
                       choices=["strong", "nitsche-tangential", "nitsche-slip"])
        p.add_argument("--mesh-file", dest="mesh_file", default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="cells per side for the coupling runs / mesh-info")
        p.add_argument("--scenario", default=None,
                       choices=["normal", "tangential", "both"])
        p.add_argument("--config", default=None, help="key=value config file")
    return parser


def make_config(args):
    values = dict(_DEFAULTS)
    if args.config:
        values.update(read_config_file(args.config))
    for key in _CONFIG_PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(subcommand=args.subcommand, **values).validate()


def _ensure_out(config):
    os.makedirs(config.out, exist_ok=True)
    return config.out


def run_flow(config):
    """Stokes or Darcy convergence study: CSV of all levels, VTK of the
    finest level's solution."""
    name = config.subcommand
    if name == "stokes":
        case = bench.case_stokes()
    else:
        mu = config.mu[0] if config.mu else 0.0
        case = bench.case_darcy(mu=mu, sigma=config.sigma)
    record = bench.run_convergence(case, config.levels, bc_mode=config.bc,
                                   gamma=config.gamma)
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
    n = max(config.levels) if config.levels else 16
    record = bench.run_locking_study(config.nu, n=n)
    out = _ensure_out(config)
    csv_path = os.path.join(out, "cooks_tips.csv")
    record.to_csv(csv_path)
    write_vtk(record.last, os.path.join(out, "cooks_solution.vtk"),
              title="cooks membrane displacement")
    log.info("wrote %s", csv_path)
    return 0


def run_brinkman(config):
    out = _ensure_out(config)
    scenarios = (
        ("normal", "tangential") if config.scenario == "both"
        else (config.scenario,)
    )
    for scenario in scenarios:
        mus = config.mu
        if mus is None:
            mus = (bench.NORMAL_MUS if scenario == "normal"
                   else bench.TANGENTIAL_MUS)
        result = bench.run_brinkman_coupling(scenario, mus, n=config.grid)
        for mu in result.mu_values:
            tag = f"{scenario}_mu{mu:g}"
            if scenario == "tangential":
                result.profile_csv(
                    os.path.join(out, f"brinkman_{tag}_profile.csv"), mu
                )
            write_vtk(
                result.solutions[mu],
                os.path.join(out, f"brinkman_{tag}.vtk"),
                title=f"brinkman coupling {tag}",
            )
        log.info("scenario %s done (mu = %s)", scenario, list(result.mu_values))
    return 0


def run_mesh_info(config):
    if config.mesh_file:
        with open(config.mesh_file) as fh:
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
    try:
        subdivide(mesh)
        print("subdivision: ok (perpendicular boundary splits)")
    except MeshError as exc:
        subdivide(mesh, boundary_split="midpoint")
        print(f"subdivision: midpoint boundary splits required ({exc})")
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
        if not args.subcommand:
            parser.print_usage()
            return 1
        config = make_config(args)
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


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
