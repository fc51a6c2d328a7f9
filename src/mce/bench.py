"""Benchmark problems, error norms, and parameter studies.

Covers the manufactured Stokes and Darcy cases on the unit square, the
Cook's membrane locking study (against plain affine elements on the same
macro mesh), and the two coupled Stokes-Brinkman scenarios on (0,2)^2.

Both parameter studies assemble once per space, not once per value: a
coupling scenario's system at viscosity mu is S_rest + mu S_swept, and the
plain-P1 system of each Poisson ratio is a slice of the compatible one.
The assembled system, not the case, decides the pressure multiplier; the
study parameters are checked here only, as ConfigurationError.
"""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .forms import (
    ConfigurationError,
    ProblemCoefficients,
    SaddleSystem,
    assemble_brinkman,
    assemble_elasticity,
    assemble_nitsche_brinkman_tangential,
    assemble_nitsche_elasticity,
    assemble_nitsche_slip,
    _check_viscous_constraints,
    _viscosity_sweep,
)
from .mesh import generate_cook_mesh, generate_unit_square_mesh, subdivide
from .quadrature import triangle_barycentric
from .solve import solve
from .space import (
    Dirichlet,
    ElementTables,
    FieldSolution,
    Free,
    NormalZero,
    _quadrature_blocks,
    build_space,
    project_p0,
)
from .vtk import open_new


def _stack(fx, fy):
    def fn(p):
        p = np.atleast_2d(p)
        return np.column_stack([fx(p[:, 0], p[:, 1]), fy(p[:, 0], p[:, 1])])

    return fn


def _grad_stack(four):
    def fn(p):
        p = np.atleast_2d(p)
        out = np.empty((len(p), 2, 2))
        for (i, j), g in four.items():
            out[:, i, j] = g(p[:, 0], p[:, 1])
        return out

    return fn


@dataclass
class ManufacturedCase:
    """Exact fields, data, and boundary setup of one benchmark problem."""

    name: str
    model: str  # stokes | darcy | brinkman | elasticity
    coefficients: ProblemCoefficients
    boundary: dict
    velocity: object
    velocity_grad: object
    pressure: object = None
    pressure_grad: object = None
    laplacian: object = None

    def strong_residual(self, points):
        """Momentum and mass residuals of the exact fields at `points`."""
        points = np.atleast_2d(points)
        co = self.coefficients
        mu = float(np.max(np.atleast_1d(co.mu)))
        u = self.velocity(points)
        gu = self.velocity_grad(points)
        divu = gu[:, 0, 0] + gu[:, 1, 1]
        if self.model == "elasticity":
            # with div u = 0 the strong form reduces to -mu lap(u) = f
            mom = -mu * self.laplacian(points) - co.f(points)
            mass = divu
        else:
            sigma = float(np.max(np.atleast_1d(co.sigma)))
            mom = sigma * u + self.pressure_grad(points) - co.f(points)
            if mu and self.laplacian is not None:
                mom -= mu * self.laplacian(points)
            g = co.g(points) if co.g is not None else 0.0
            mass = divu - g
        return mom, mass

    def check_consistency(self, n_points=100, seed=0):
        """Max scaled residual of the governing equations at random points."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.05, 0.95, (n_points, 2))
        mom, mass = self.strong_residual(pts)
        scale = max(1.0, np.abs(self.coefficients.f(pts)).max())
        return max(np.abs(mom).max(), np.abs(mass).max()) / scale


def case_stokes():
    """Stokes on the unit square with the quartic divergence-free solution
    u = (20 x y^3, 5 x^4 - 5 y^4), p = 60 y x^2 - 20 y^3 - 5, f = 0."""
    velocity = _stack(
        lambda x, y: 20.0 * x * y**3, lambda x, y: 5.0 * x**4 - 5.0 * y**4
    )
    grad = _grad_stack(
        {
            (0, 0): lambda x, y: 20.0 * y**3,
            (0, 1): lambda x, y: 60.0 * x * y**2,
            (1, 0): lambda x, y: 20.0 * x**3,
            (1, 1): lambda x, y: -20.0 * y**3,
        }
    )
    pressure = lambda p: 60.0 * p[:, 1] * p[:, 0] ** 2 - 20.0 * p[:, 1] ** 3 - 5.0
    pressure_grad = _stack(
        lambda x, y: 120.0 * x * y, lambda x, y: 60.0 * x**2 - 60.0 * y**2
    )
    laplacian = _stack(
        lambda x, y: 120.0 * x * y, lambda x, y: 60.0 * x**2 - 60.0 * y**2
    )
    zero = lambda p: np.zeros((len(np.atleast_2d(p)), 2))
    co = ProblemCoefficients(mu=1.0, sigma=0.0, f=zero)
    bc = {tag: Dirichlet(velocity) for tag in ("left", "right", "top", "bottom")}
    return ManufacturedCase(
        name="stokes",
        model="stokes",
        coefficients=co,
        boundary=bc,
        velocity=velocity,
        velocity_grad=grad,
        pressure=pressure,
        pressure_grad=pressure_grad,
        laplacian=laplacian,
    )


def case_darcy(mu=0.0, sigma=1.0):
    """Darcy (mu = 0, sigma = 1) with u built from sin^2/sin(2 pi .) waves,
    p = sin(pi x) - 2/pi, and u.n = 0 imposed strongly.

    The exact velocity vanishes on the whole boundary, so the same fields
    solve the Brinkman equation for any coefficients once f absorbs the
    friction and viscosity terms; that makes this case double as the
    viscosity-robustness sweep.
    """
    pi = np.pi
    velocity = _stack(
        lambda x, y: -pi * np.sin(pi * x) ** 2 * np.sin(2 * pi * y),
        lambda x, y: pi * np.sin(2 * pi * x) * np.sin(pi * y) ** 2,
    )
    grad = _grad_stack(
        {
            (0, 0): lambda x, y: -(pi**2) * np.sin(2 * pi * x) * np.sin(2 * pi * y),
            (0, 1): lambda x, y: -2 * pi**2 * np.sin(pi * x) ** 2 * np.cos(2 * pi * y),
            (1, 0): lambda x, y: 2 * pi**2 * np.cos(2 * pi * x) * np.sin(pi * y) ** 2,
            (1, 1): lambda x, y: pi**2 * np.sin(2 * pi * x) * np.sin(2 * pi * y),
        }
    )
    laplacian = _stack(
        lambda x, y: 2 * pi**3 * np.sin(2 * pi * y) * (4 * np.sin(pi * x) ** 2 - 1),
        lambda x, y: 2 * pi**3 * np.sin(2 * pi * x) * (1 - 4 * np.sin(pi * y) ** 2),
    )
    pressure = lambda p: np.sin(pi * p[:, 0]) - 2.0 / pi
    pressure_grad = _stack(
        lambda x, y: pi * np.cos(pi * x), lambda x, y: np.zeros_like(x)
    )

    def f(p):
        p = np.atleast_2d(p)
        out = sigma * velocity(p) + pressure_grad(p)
        if mu:
            out -= mu * laplacian(p)
        return out

    co = ProblemCoefficients(mu=mu, sigma=sigma, f=f)
    bc = {tag: NormalZero() for tag in ("left", "right", "top", "bottom")}
    return ManufacturedCase(
        name="darcy" if mu == 0.0 else f"brinkman-mu{mu:g}",
        model="darcy" if mu == 0.0 else "brinkman",
        coefficients=co,
        boundary=bc,
        velocity=velocity,
        velocity_grad=grad,
        pressure=pressure,
        pressure_grad=pressure_grad,
        laplacian=laplacian,
    )


def case_elasticity(lam, mu=1.0):
    """Elasticity with the divergence-free Stokes displacement field; the
    body force f = -mu lap(u) is then independent of lambda, so one exact
    solution serves the whole lambda sweep."""
    stokes = case_stokes()
    f = _stack(
        lambda x, y: -mu * 120.0 * x * y,
        lambda x, y: -mu * (60.0 * x**2 - 60.0 * y**2),
    )
    co = ProblemCoefficients(mu=mu, lam=lam, f=f)
    bc = {tag: Dirichlet(stokes.velocity)
          for tag in ("left", "right", "top", "bottom")}
    return ManufacturedCase(
        name=f"elasticity-lam{lam:g}",
        model="elasticity",
        coefficients=co,
        boundary=bc,
        velocity=stokes.velocity,
        velocity_grad=stokes.velocity_grad,
        laplacian=stokes.laplacian,
    )


# boundary modes of the flow cases in solve_case: "strong" constrains the
# boundary conditions in the space (u.n only on NormalZero sides, whose
# tangential condition carries mu as Nitsche terms, so mu = 0 is plain
# Darcy); "nitsche-slip" imposes u.n = 0 weakly on a free space
BC_MODES = ("strong", "nitsche-slip")


def solve_case(case, n, bc_mode="strong", gamma=None):
    """Mesh the unit square at level n, assemble and solve one case.

    Returns (FieldSolution, space, system, report). A flow case takes a
    mode of BC_MODES, elasticity "strong" or "nitsche". Raises
    ConfigurationError for the nitsche-slip mode on a case whose exact
    solution it cannot carry.
    """
    mesh = generate_unit_square_mesh(n)
    sub = subdivide(mesh, boundary_split="midpoint")
    co = case.coefficients
    if gamma is not None:
        co = ProblemCoefficients(
            mu=co.mu, lam=co.lam, sigma=co.sigma, gamma=gamma, f=co.f, g=co.g,
        )

    if case.model == "elasticity":
        if bc_mode == "strong":
            space = build_space(sub, case.boundary)
            system = assemble_elasticity(space, co)
        elif bc_mode == "nitsche":
            space = build_space(sub, "free")
            system = assemble_nitsche_elasticity(
                space, co, dirichlet_tags=set(case.boundary), g=case.velocity,
            )
        else:
            raise ValueError(f"unsupported mode {bc_mode!r} for elasticity")
    elif bc_mode == "strong":
        space = build_space(sub, case.boundary)
        system = assemble_nitsche_brinkman_tangential(space, co)
        # mu = 0 with u.t constrained: rejected as assemble_brinkman does
        _check_viscous_constraints(space, co.fields(mesh.num_triangles)[0])
    elif bc_mode == "nitsche-slip":
        _check_slip_fit(case, mesh, co)
        space = build_space(sub, "free")
        system = assemble_nitsche_slip(space, co)
    else:
        raise ValueError(f"unknown bc mode {bc_mode!r}")
    solution, report = _field(system)
    return solution, space, system, report


def _check_slip_fit(case, mesh, co):
    """ConfigurationError unless the exact fields satisfy what the slip
    assembler imposes and takes no data for: u.n = 0 and, with mu > 0, a
    zero tangential traction t.(mu grad u n), checked at the ends and
    midpoints of the boundary edges against the largest |u| and |grad u|
    at the vertices."""
    ends = mesh.vertices[mesh.edges[mesh.boundary_edges]]
    t = ends[:, 1] - ends[:, 0]
    t /= np.linalg.norm(t, axis=1)[:, None]
    t = np.tile(t, (3, 1))
    n = np.column_stack([t[:, 1], -t[:, 0]])
    points = np.concatenate([ends[:, 0], ends[:, 1], ends.mean(axis=1)])
    un = np.abs(np.einsum("pi,pi->p", case.velocity(points), n)).max()
    if un > 1e-10 * np.abs(case.velocity(mesh.vertices)).max():
        datum = f"u.n up to {un:.3g} on the boundary"
    elif np.max(co.mu) > 0 and np.abs(
        np.einsum("pi,pij,pj->p", t, case.velocity_grad(points), n)
    ).max() > 1e-10 * np.abs(case.velocity_grad(mesh.vertices)).max():
        datum = "a nonzero tangential traction with mu > 0"
    else:
        return
    raise ConfigurationError(
        f"case {case.name!r} does not fit bc mode 'nitsche-slip': its exact "
        f"solution has {datum}, and the slip mode imposes u.n = 0 and a zero "
        f"tangential traction"
    )


def _field(system):
    """Solve a system and expand the solution over its space; returns
    (FieldSolution, SolveReport)."""
    report = solve(system)
    return FieldSolution(system.space, *system.expand(report.solution)), report


@dataclass
class ErrorRecord:
    l2_u: float
    h1_u: float
    div: float
    l2_p: float = math.nan
    p0p: float = math.nan
    triple_e: float = math.nan
    triple_b: float = math.nan

    def as_dict(self):
        return {
            "err_l2_u": self.l2_u,
            "err_h1_u": self.h1_u,
            "err_l2_p": self.l2_p,
            "err_p0p": self.p0p,
            "err_div": self.div,
        }


def error_norms(solution, case):
    """All error norms of a solved case, integrated with the degree-6 rule
    on each subtriangle.

    The exact fields are evaluated one block of at most `space._BLOCK`
    macro triangles at a time, so the per-point tensors in memory do not
    grow with the mesh. Each norm is kept per macro triangle, (nt,), and
    summed over the whole mesh at the end, in the same order as when the
    mesh was evaluated at once."""
    space = solution.space
    tables = space.tables
    nt = space.mesh.num_triangles
    co = case.coefficients
    mu, sigma = co.fields(nt)
    with_pressure = case.pressure is not None and solution.pressure is not None
    ph = solution.pressure

    bary, wts = triangle_barycentric(6)
    div_h = solution.divergence()
    l2_u_t, h1_u_t, div_t = np.empty(nt), np.empty(nt), np.empty(nt)
    eps_t, l2_p_t = np.empty(nt), np.empty(nt)
    for block, pts in _quadrature_blocks(tables, 6):
        flat = pts.reshape(-1, 2)
        u_ex = case.velocity(flat).reshape(pts.shape)
        gu_ex = case.velocity_grad(flat).reshape(pts.shape[:3] + (2, 2))

        node_vals = np.einsum("tk,tkni->tni",
                              solution.velocity[tables.loc2glob[block]],
                              tables.basis_node_values[block])
        corner_vals = node_vals[:, tables.subdiv.SUBTRIANGLES]
        uh = np.einsum("qc,tsci->tsqi", bary, corner_vals)
        gh = np.einsum("tsci,tscj->tsij", corner_vals,
                       tables.hat_grads[block])

        du = u_ex - uh
        dg = gu_ex - gh[:, :, None]
        w_areas = 2.0 * wts[None, None, :] * tables.sub_areas[block, :, None]

        def cell_int(values):  # values (b, 6, nq) -> per-triangle integrals
            return np.einsum("tsq,tsq->t", w_areas, values)

        l2_u_t[block] = cell_int((du**2).sum(axis=-1))
        h1_u_t[block] = cell_int((dg**2).sum(axis=(-1, -2)))
        div_ex = gu_ex[..., 0, 0] + gu_ex[..., 1, 1]
        div_t[block] = cell_int((div_ex - div_h[block, None, None]) ** 2)
        if co.lam is not None:
            sym = 0.5 * (dg + np.swapaxes(dg, -1, -2))
            eps_t[block] = cell_int((sym**2).sum(axis=(-1, -2)))
        if with_pressure:
            p_ex = case.pressure(flat).reshape(pts.shape[:3])
            l2_p_t[block] = cell_int((p_ex - ph[block, None, None]) ** 2)

    record = ErrorRecord(
        l2_u=float(np.sqrt(l2_u_t.sum())),
        h1_u=float(np.sqrt(h1_u_t.sum())),
        div=float(np.sqrt(div_t.sum())),
    )
    if co.lam is not None:
        record.triple_e = float(
            np.sqrt(np.sum(2.0 * mu * eps_t) + co.lam * div_t.sum())
        )
    if with_pressure:
        p0 = project_p0(case.pressure, tables)
        p0p_t = tables.areas * (p0 - ph) ** 2
        record.l2_p = float(np.sqrt(l2_p_t.sum()))
        record.p0p = float(np.sqrt(p0p_t.sum()))
        record.triple_b = float(
            np.sqrt(
                np.sum(mu * h1_u_t)
                + np.sum(sigma * l2_u_t)
                + div_t.sum()
                + np.sum(p0p_t / (mu + sigma))
            )
        )
    return record


def _write_csv(path, header, rows):
    """A header line, then one line per row: floats as .17e, the rest
    (ints) as they are."""
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17e") if isinstance(v, float) else v
                             for v in row])


@dataclass
class ConvergenceRecord:
    """Per-level errors with fitted log-log slopes (last three levels) and
    the finest level's FieldSolution."""

    case_name: str
    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    finest: object = None

    COLUMNS = ["err_l2_u", "err_h1_u", "err_l2_p", "err_p0p", "err_div"]
    # err_div is round-off under strong constraints: its slope is noise
    RATED = COLUMNS[:-1]

    def add(self, level, n, nno, h, errors):
        self.rows.append(
            {"level": level, "n": n, "NNO": nno, "h": h, **errors.as_dict()}
        )

    def fit_slopes(self):
        h_w = np.array([r["h"] for r in self.rows[-3:]])
        for col in self.RATED:
            e_w = np.array([r[col] for r in self.rows[-3:]])
            ok = np.isfinite(e_w) & (e_w > 0)
            if ok.sum() >= 2:
                slope = float(
                    np.polyfit(np.log(h_w[ok]), np.log(e_w[ok]), 1)[0]
                )
            else:
                slope = math.nan
            self.slopes["slope_" + col[4:]] = slope
        return self.slopes

    def to_csv(self, path):
        names = ["level", "n", "NNO", "h"] + self.COLUMNS + sorted(self.slopes)
        _write_csv(path, names, (
            [row.get(name, self.slopes.get(name)) for name in names]
            for row in self.rows
        ))


def _largest_edge(mesh):
    ends = mesh.vertices[mesh.edges]
    return float(np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).max())


def run_convergence(case, levels, bc_mode="strong", gamma=None):
    """Assemble/solve the case over the levels and fit convergence slopes
    against h, the largest macro edge length of each level; at least 3
    strictly increasing levels, or a ConfigurationError."""
    if len(levels) < 3:
        raise ConfigurationError("need at least 3 levels to fit slopes")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("levels must be strictly increasing")
    record = ConvergenceRecord(case_name=case.name)
    for idx, n in enumerate(levels):
        # one live level: the previous level's solution, space and mesh
        # are dropped before the next level is solved
        record.finest = mesh = None
        record.finest = solve_case(case, n, bc_mode=bc_mode, gamma=gamma)[0]
        mesh = record.finest.space.mesh
        record.add(idx, n, mesh.num_vertices, _largest_edge(mesh),
                   error_norms(record.finest, case))
    record.fit_slopes()
    return record


# Cook's membrane ------------------------------------------------------------

PLANE_STRAIN = "plane-strain"


@dataclass
class CookProblem:
    nu: float
    young: float
    mu: float
    lam: float
    traction: tuple = (0.0, 1.0)
    tip: tuple = (48.0, 60.0)


def case_cooks(nu, young=200.0):
    """Cook's membrane material data under plane strain:
    lam = E nu / ((1+nu)(1-2nu)), mu = E / (2(1+nu)), for 0 < nu < 0.5."""
    if not 0.0 < nu < 0.5:
        raise ConfigurationError(f"Poisson ratio {nu:g} is not in (0, 0.5)")
    mu = young / (2.0 * (1.0 + nu))
    lam = young * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return CookProblem(nu=nu, young=young, mu=mu, lam=lam)


def _cooks_space(n):
    """The compatible space on Cook's membrane at level n: clamped left
    side, free elsewhere."""
    sub = subdivide(generate_cook_mesh(n), boundary_split="midpoint")
    return build_space(
        sub,
        {
            "clamped": Dirichlet((0.0, 0.0)),
            "loaded": Free(),
            "traction-free": Free(),
        },
    )


def _vertex_columns(space):
    """Mask over the reduced velocity columns of the vertex dofs."""
    return space.constraint[: 2 * space.mesh.num_vertices].getnnz(axis=0) > 0


def _plain_affine(space):
    """Plain vector P1 on the macro mesh, the locking reference: the vertex
    fields of the compatible space are the macro hats, so fixing every
    bubble at zero (keeping only the constraint columns of vertex dofs)
    leaves exactly P1 under the same vertex constraints."""
    lift = space.lift.copy()
    lift[2 * space.mesh.num_vertices :] = 0.0
    return replace(
        space,
        constraint=space.constraint[:, _vertex_columns(space)],
        lift=lift,
        bubble_fixed=np.ones_like(space.bubble_fixed),
    )


def _cooks_system(space, problem):
    co = ProblemCoefficients(mu=problem.mu, lam=problem.lam)
    return assemble_elasticity(space, co,
                               tractions={"loaded": problem.traction})


def _affine_slice(system, affine):
    """The plain-P1 system on `affine` (`_plain_affine` of the compatible
    `system`'s space) as the vertex-column slice of `system`. Where the
    lift has no bubble part, as on Cook's clamp, this is bit for bit the
    system `assemble_elasticity` gives on `affine`."""
    keep = _vertex_columns(system.space)
    return SaddleSystem(affine, system.matrix[keep][:, keep],
                        system.rhs[keep], 0, False)


def _cooks_tip(system, problem):
    """Tip vertical displacement and FieldSolution of a Cook system."""
    solution, _ = _field(system)
    tip = _vertex_at(system.space.mesh, problem.tip)
    return float(solution.velocity[2 * tip + 1]), solution


def solve_cooks(problem, n=16):
    """Solve Cook's membrane with the compatible element; returns
    (tip vertical displacement, FieldSolution, space)."""
    space = _cooks_space(n)
    return (*_cooks_tip(_cooks_system(space, problem), problem), space)


def _vertex_at(mesh, point):
    d = np.linalg.norm(mesh.vertices - np.asarray(point), axis=1)
    v = int(np.argmin(d))
    if d[v] > 1e-8 * max(1.0, np.abs(mesh.vertices).max()):
        raise ValueError(f"no mesh vertex at {point}")
    return v


def solve_cooks_affine(problem, n=16):
    """Tip vertical displacement of plain vector P1 elements on the same
    type-I mesh (the locking reference): the compatible space with its
    bubbles fixed at zero, on the same assembler and solver."""
    return _cooks_tip(_cooks_system(_plain_affine(_cooks_space(n)), problem),
                      problem)[0]


@dataclass
class LockingRecord:
    """Tip displacements per Poisson ratio and the compatible element's
    FieldSolution for the last ratio."""

    rows: list = field(default_factory=list)
    last: object = None

    def to_csv(self, path):
        names = ["nu", "tip_compatible", "tip_affine"]
        _write_csv(path, names, ([row[name] for name in names]
                                 for row in self.rows))


def run_locking_study(nus, n=16):
    """Tip displacements of the compatible vs plain affine element. One
    space serves every nu, only the Lame coefficients change; the plain-P1
    system is the vertex-column slice of the compatible one, so each nu is
    assembled once. Every nu is checked before the space is built."""
    problems = [case_cooks(nu) for nu in nus]
    record = LockingRecord()
    space = _cooks_space(n)
    affine = _plain_affine(space)
    for problem in problems:
        # sliced before the factorization, each system freed once solved:
        # in this order the peak RSS stays that of separate assemblies
        system = _cooks_system(space, problem)
        sliced = _affine_slice(system, affine)
        tip_c, record.last = _cooks_tip(system, problem)
        del system
        tip_a, _ = _cooks_tip(sliced, problem)
        del sliced
        record.rows.append(
            {"nu": problem.nu, "tip_compatible": tip_c, "tip_affine": tip_a}
        )
    return record


# Coupled Stokes-Brinkman ----------------------------------------------------


def _square2_mesh(n):
    mesh = generate_unit_square_mesh(n)
    return mesh.with_vertices(mesh.vertices * 2.0)


SCENARIOS = ("normal", "tangential")
NORMAL_MUS = (1.0, 1e-2, 1e-3, 1e-6)
TANGENTIAL_MUS = (10.0, 1.0, 1e-1, 1e-2)


def _coupling_boundary(scenario):
    """Boundary setup of a coupling scenario: the left side clamped
    (normal) or normal-only (tangential), the right side clamped, natural
    top and bottom."""
    left = {"normal": Dirichlet((0.0, 0.0)), "tangential": NormalZero()}
    if scenario not in left:
        raise ValueError(f"unknown scenario {scenario!r}")
    return {
        "left": left[scenario],
        "right": Dirichlet((0.0, 0.0)),
        "top": Free(),
        "bottom": Free(),
    }


def _coupling_coefficients(scenario, mu_value, centers):
    """Per-triangle viscosity and drag of one coupling run, body force
    (0, 100)."""
    if scenario == "normal":
        lower = centers[:, 1] <= 1.0
        mu = np.where(lower, 1.0, mu_value)
        sigma = np.where(lower, 0.0, 1.0)
    else:
        left = centers[:, 0] <= 1.0
        mu = np.where(left, mu_value, 100.0)
        sigma = np.where(left, 1e3, 0.0)
    f = lambda p: np.column_stack(
        [np.zeros(len(np.atleast_2d(p))), np.full(len(np.atleast_2d(p)), 100.0)]
    )
    return ProblemCoefficients(mu=mu, sigma=sigma, f=f)


def coupling_problem(scenario, mu_value, n=40):
    """Mesh, subdivision and coefficients of one coupling run on (0,2)^2
    with body force (0, 100); `_coupling_boundary` gives its boundary
    setup and rejects an unknown scenario, here before any meshing."""
    _coupling_boundary(scenario)
    mesh = _square2_mesh(n)
    sub = subdivide(mesh)
    return mesh, sub, _coupling_coefficients(scenario, mu_value, sub.centroids)


def solve_coupling(scenario, mu_value, n=40):
    """Solve one coupling run; its natural top and bottom boundaries fix
    the pressure level, so the system has no multiplier row."""
    mesh, sub, co = coupling_problem(scenario, mu_value, n=n)
    space = build_space(sub, _coupling_boundary(scenario))
    solution, report = _field(assemble_brinkman(space, co))
    return solution, space, report


def velocity_profile(solution, y=1.0):
    """Vertex velocities along the horizontal line y=const, sorted by x."""
    mesh = solution.space.mesh
    on_line = np.isclose(mesh.vertices[:, 1], y)
    idx = np.flatnonzero(on_line)
    order = np.argsort(mesh.vertices[idx, 0])
    idx = idx[order]
    values = solution.vertex_velocities()[idx]
    return mesh.vertices[idx, 0], values


def second_difference_sign_changes(xs, ys):
    """Count sign changes of the second difference of ys for x in
    [0.7, 1.3], the window around the coupling interface x = 1.

    Differences smaller than 5e-3 times the window maximum are treated as
    zero (flat regions do not count as oscillation).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    d2 = ys[2:] - 2.0 * ys[1:-1] + ys[:-2]
    centers = xs[1:-1]
    mask = (centers >= 0.7) & (centers <= 1.3)
    d2 = d2[mask]
    if d2.size == 0:
        return 0
    floor = 5e-3 * np.abs(d2).max()
    signs = np.sign(d2)
    signs[np.abs(d2) < floor] = 0
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


@dataclass
class CouplingResult:
    scenario: str
    mu_values: tuple
    solutions: dict
    profiles: dict

    def profile_csv(self, path, mu_value):
        xs, values = self.profiles[mu_value]
        _write_csv(path, ["x", "ux", "uy"],
                   ([x, ux, uy] for x, (ux, uy) in zip(xs, values)))


def run_brinkman_scenarios(scenarios, mu_values=None, n=40):
    """Yield each scenario's CouplingResult, run for every viscosity value.
    The scenarios share one subdivided mesh and its ElementTables, each has
    one space; a scenario is solved only when its result is asked for.

    The viscosity value enters the swept region only, so each scenario is
    assembled once, as the affine sweep of `forms._viscosity_sweep`, and
    each value's system is one sparse sum, freed once it is solved."""
    tables = ElementTables(subdivide(_square2_mesh(n)))
    for scenario in scenarios:
        mus = mu_values
        if mus is None:
            mus = NORMAL_MUS if scenario == "normal" else TANGENTIAL_MUS
        space = build_space(tables, _coupling_boundary(scenario))
        solutions = _coupling_sweep(space, scenario, mus)
        profiles = {mu_value: velocity_profile(solution, y=1.0)
                    for mu_value, solution in solutions.items()}
        yield CouplingResult(scenario, tuple(mus), solutions, profiles)


def _coupling_sweep(space, scenario, mus):
    """The solution of each viscosity value of one coupling scenario. The
    sweep's two parts are freed on return, before the next scenario is
    assembled."""
    rest = _coupling_coefficients(scenario, 0.0, space.tables.subdiv.centroids)
    # mu = 0 marks the swept region: elsewhere mu is 1 (normal) or 100
    system_at = _viscosity_sweep(space, rest, rest.mu == 0.0)
    return {mu_value: _field(system_at(mu_value))[0] for mu_value in mus}


def run_brinkman_coupling(scenario, mu_values=None, n=40):
    """Run one coupling scenario for each viscosity value; the mesh,
    subdivision and space are built once, only the coefficients change."""
    return next(run_brinkman_scenarios((scenario,), mu_values, n))
