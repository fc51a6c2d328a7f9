"""Benchmark problems, error norms, and parameter studies.

Covers the manufactured Stokes and Darcy cases on the unit square, the
Cook's membrane locking study (against plain affine elements on the same
macro mesh), and the two coupled Stokes-Brinkman scenarios on (0,2)^2.

A coupling scenario is assembled once for all its viscosities: its system
at viscosity mu is S_rest + mu S_swept. The locking study is assembled
once for all its Poisson ratios: its system at (mu, lambda) is mu A_1 +
lambda B^T W^-1 B, and its plain-P1 system is a slice of the compatible
one. The solve, not the case, fixes the pressure level where
no boundary does. The level list and the Poisson ratios are checked here,
as ConfigurationError; `mce.cli` refuses an empty nu or mu list and
non-positive levels or grid before a study starts.

The manufactured cases evaluate their exact fields on contiguous x and y
arrays and store them component by component. `error_norms` reads them
so: per block of macro triangles, each norm is one contiguous array of
squared differences, contracted with the rule's weights and then with the
subtriangle areas.
"""

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .forms import (
    ConfigurationError,
    ProblemCoefficients,
    SaddleSystem,
    assemble_elasticity,
    assemble_nitsche_brinkman_tangential,
    _lame_sweep,
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
    _eval_vec,
    _quadrature_blocks,
    build_space,
)
from .vtk import open_new


def _coords(p):
    """Contiguous x and y of points (n, 2), or of one point (2,)."""
    x, y = np.atleast_2d(p).T.copy()
    return x, y


def _stack(fx, fy):
    """The (n, 2) field (fx, fy), stored component by component: its
    transpose is contiguous."""
    def fn(p):
        x, y = _coords(p)
        out = np.empty((2, len(x)))
        out[0] = fx(x, y)
        out[1] = fy(x, y)
        return out.T

    return fn


def _grad_stack(four):
    """The (n, 2, 2) gradient with entry (i, j) from `four[i, j]`, stored
    entry by entry: moving its first axis last makes it contiguous."""
    def fn(p):
        x, y = _coords(p)
        out = np.empty((2, 2, len(x)))
        for (i, j), g in four.items():
            out[i, j] = g(x, y)
        return out.transpose(2, 0, 1)

    return fn


@dataclass
class ManufacturedCase:
    """Exact fields, data, and boundary setup of one benchmark problem."""

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
        f = _eval_vec(co.f, points)
        if co.lam is not None:
            # with div u = 0 the strong form reduces to -mu lap(u) = f
            mom = -mu * self.laplacian(points) - f
            mass = divu
        else:
            sigma = float(np.max(np.atleast_1d(co.sigma)))
            mom = sigma * u + self.pressure_grad(points) - f
            if mu and self.laplacian is not None:
                mom -= mu * self.laplacian(points)
            g = co.g(points) if co.g is not None else 0.0
            mass = divu - g
        return mom, mass

    def check_consistency(self):
        """Max scaled residual of the governing equations at 100 random
        points."""
        pts = np.random.default_rng(0).uniform(0.05, 0.95, (100, 2))
        mom, mass = self.strong_residual(pts)
        scale = max(1.0, np.abs(_eval_vec(self.coefficients.f, pts)).max())
        return max(np.abs(mom).max(), np.abs(mass).max()) / scale


def case_stokes():
    """Stokes on the unit square with the quartic divergence-free solution
    u = (20 x y^3, 5 x^4 - 5 y^4), p = 60 y x^2 - 20 y^3 - 5, f = 0."""
    # powers as products: NumPy's y**3 and y**4 go through pow
    velocity = _stack(
        lambda x, y: 20.0 * x * (y * y * y),
        lambda x, y: 5.0 * (x * x) ** 2 - 5.0 * (y * y) ** 2,
    )
    grad = _grad_stack(
        {
            (0, 0): lambda x, y: 20.0 * (y * y * y),
            (0, 1): lambda x, y: 60.0 * x * (y * y),
            (1, 0): lambda x, y: 20.0 * (x * x * x),
            (1, 1): lambda x, y: -20.0 * (y * y * y),
        }
    )

    def pressure(p):
        x, y = _coords(p)
        return 60.0 * y * (x * x) - 20.0 * (y * y * y) - 5.0

    # f = 0: the viscous term balances the pressure gradient
    pressure_grad = laplacian = _stack(
        lambda x, y: 120.0 * x * y, lambda x, y: 60.0 * (x * x) - 60.0 * (y * y)
    )
    co = ProblemCoefficients(mu=1.0, sigma=0.0)
    bc = {tag: Dirichlet(velocity) for tag in ("left", "right", "top", "bottom")}
    return ManufacturedCase(
        coefficients=co,
        boundary=bc,
        velocity=velocity,
        velocity_grad=grad,
        pressure=pressure,
        pressure_grad=pressure_grad,
        laplacian=laplacian,
    )


def case_darcy(mu=0.0, sigma=1.0, gamma=10.0):
    """Darcy (mu = 0, sigma = 1) with u built from sin^2/sin(2 pi .) waves,
    p = sin(pi x) - 2/pi, and u.n = 0 imposed strongly; gamma is the
    Nitsche penalty of the tangential condition, which acts only for
    mu > 0.

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

    co = ProblemCoefficients(mu=mu, sigma=sigma, gamma=gamma, f=f)
    bc = {tag: NormalZero() for tag in ("left", "right", "top", "bottom")}
    return ManufacturedCase(
        coefficients=co,
        boundary=bc,
        velocity=velocity,
        velocity_grad=grad,
        pressure=pressure,
        pressure_grad=pressure_grad,
        laplacian=laplacian,
    )


def case_elasticity(lam):
    """Elasticity at mu = 1 with the divergence-free Stokes displacement
    field; the body force f = -lap(u) is then independent of lambda, so one
    exact solution serves the whole lambda sweep."""
    stokes = case_stokes()
    f = lambda p: -stokes.laplacian(p)
    co = ProblemCoefficients(mu=1.0, lam=lam, f=f)
    bc = {tag: Dirichlet(stokes.velocity)
          for tag in ("left", "right", "top", "bottom")}
    return ManufacturedCase(
        coefficients=co,
        boundary=bc,
        velocity=stokes.velocity,
        velocity_grad=stokes.velocity_grad,
        laplacian=stokes.laplacian,
    )


def solve_case(case, n):
    """Mesh the unit square at level n, assemble and solve one case.

    Returns (FieldSolution, space, system, report). The space imposes the
    case's boundary strongly; on a flow case's NormalZero sides that is
    u.n, whose tangential condition carries mu as Nitsche terms, so
    mu = 0 is plain Darcy.
    """
    sub = subdivide(generate_unit_square_mesh(n))
    space = build_space(sub, case.boundary)
    if case.coefficients.lam is not None:
        system = assemble_elasticity(space, case.coefficients)
    else:
        system = assemble_nitsche_brinkman_tangential(space, case.coefficients)
    solution, report = _field(system)
    return solution, space, system, report


def _field(system):
    """Solve a system and expand the solution over its space; returns
    (FieldSolution, SolveReport)."""
    report = solve(system)
    u, p, _ = system.expand(report.solution)
    return FieldSolution(system.space, u, p), report


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
    grow with the mesh. In a block, each norm is one contiguous
    (b, 6, nq) array of squared differences, contracted with twice the
    rule's weights and then with the subtriangle areas. Both contractions
    are einsums, which sum in an order that does not depend on the
    block's size; a BLAS matrix-vector product rounds its last rows
    differently and would not. Each norm is kept per macro triangle,
    (nt,), and summed over the whole mesh at the end, so every value is
    bitwise the one of the whole mesh at once."""
    space = solution.space
    tables = space.tables
    nt = space.mesh.num_triangles
    co = case.coefficients
    mu, sigma = co.fields(nt)
    with_pressure = case.pressure is not None and solution.pressure is not None
    ph = solution.pressure

    bary, wts = triangle_barycentric(6)
    w2 = 2.0 * wts
    div_h = solution.divergence()
    l2_u_t, h1_u_t, div_t = np.empty(nt), np.empty(nt), np.empty(nt)
    eps_t, l2_p_t, p_ex_t = np.empty(nt), np.empty(nt), np.empty(nt)
    for block, pts in _quadrature_blocks(tables, 6):
        flat = pts.reshape(-1, 2)
        shape = pts.shape[:3]
        # component first: u_ex[i] and gu_ex[i, j] are (b, 6, nq)
        u_ex = np.moveaxis(case.velocity(flat), 1, 0).reshape((2,) + shape)
        gu_ex = np.moveaxis(case.velocity_grad(flat), 0, -1).reshape(
            (2, 2) + shape)

        node_vals = np.einsum("tk,tkni->tni",
                              solution.velocity[tables.loc2glob[block]],
                              tables.basis_node_values[block])
        # corner first, corners[c, i] and grads[c, j] (b, 6): the two
        # einsums below run several times faster than on (b, 6, 3, 2)
        corners = np.ascontiguousarray(
            node_vals[:, tables.subdiv.SUBTRIANGLES].transpose(2, 3, 0, 1))
        grads = np.ascontiguousarray(
            tables.hat_grads[block].transpose(2, 3, 0, 1))
        du = u_ex - np.einsum("qc,cits->itsq", bary, corners)
        dg = gu_ex - np.einsum("cits,cjts->ijts", corners, grads)[..., None]
        sub_areas = tables.sub_areas[block]

        def cell_int(values):  # values (b, 6, nq) -> per-triangle integrals
            return np.einsum("ts,ts->t", np.einsum("tsq,q->ts", values, w2),
                             sub_areas)

        l2_u_t[block] = cell_int(du[0] ** 2 + du[1] ** 2)
        h1_u_t[block] = cell_int(dg[0, 0] ** 2 + dg[0, 1] ** 2
                                 + dg[1, 0] ** 2 + dg[1, 1] ** 2)
        div_t[block] = cell_int(
            (gu_ex[0, 0] + gu_ex[1, 1] - div_h[block, None, None]) ** 2)
        if co.lam is not None:
            # |sym dg|^2, the off-diagonal pair as one square
            eps_t[block] = cell_int(dg[0, 0] ** 2 + dg[1, 1] ** 2
                                    + 0.5 * (dg[0, 1] + dg[1, 0]) ** 2)
        if with_pressure:
            p_ex = case.pressure(flat).reshape(shape)
            l2_p_t[block] = cell_int((p_ex - ph[block, None, None]) ** 2)
            # the integral of p_ex as `space.cell_integrals` sums it
            p_ex_t[block] = np.einsum("q,tsq,ts->t", w2, p_ex, sub_areas)

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
        p0p_t = tables.areas * (p_ex_t / tables.areas - ph) ** 2
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

    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    finest: object = None

    COLUMNS = ["err_l2_u", "err_h1_u", "err_l2_p", "err_p0p", "err_div"]
    # err_div is round-off in every flow case: its slope is noise
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


def run_convergence(case, levels):
    """Assemble/solve the case over the levels and fit convergence slopes
    against h, the largest macro edge length of each level; at least 3
    strictly increasing levels, or a ConfigurationError."""
    if len(levels) < 3:
        raise ConfigurationError("need at least 3 levels to fit slopes")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("levels must be strictly increasing")
    record = ConvergenceRecord()
    for idx, n in enumerate(levels):
        # one live level: the previous level's solution, space and mesh
        # are dropped before the next level is solved
        record.finest = mesh = None
        record.finest = solve_case(case, n)[0]
        mesh = record.finest.space.mesh
        record.add(idx, n, mesh.num_vertices, _largest_edge(mesh),
                   error_norms(record.finest, case))
    record.fit_slopes()
    return record


# Cook's membrane ------------------------------------------------------------

# the shear traction density on the loaded side, and the tip vertex
COOK_TRACTION = (0.0, 1.0)
COOK_TIP = (48.0, 60.0)


@dataclass
class CookProblem:
    nu: float
    mu: float
    lam: float


def case_cooks(nu):
    """Cook's membrane material data under plane strain, Young's modulus
    E = 200: lam = E nu / ((1+nu)(1-2nu)), mu = E / (2(1+nu)), for
    0 < nu < 0.5."""
    if not 0.0 < nu < 0.5:
        raise ConfigurationError(f"Poisson ratio {nu:g} is not in (0, 0.5)")
    young = 200.0
    mu = young / (2.0 * (1.0 + nu))
    lam = young * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return CookProblem(nu=nu, mu=mu, lam=lam)


def _cooks_space(n):
    """The compatible space on Cook's membrane at level n: clamped left
    side, free elsewhere."""
    sub = subdivide(generate_cook_mesh(n))
    return build_space(
        sub,
        {
            "clamped": Dirichlet((0.0, 0.0)),
            "loaded": Free(),
            "traction-free": Free(),
        },
    )


def _plain_affine(space):
    """Plain vector P1 on the macro mesh, the locking reference: the vertex
    fields of the compatible space are the macro hats, so fixing every
    bubble at zero (keeping only the leading constraint columns, those of
    the vertex unknowns) leaves exactly P1 under the same vertex
    constraints."""
    lift = space.lift.copy()
    lift[2 * space.mesh.num_vertices :] = 0.0
    return replace(
        space,
        constraint=space.constraint[:, :space.n_vertex_unknowns],
        lift=lift,
        bubble_fixed=np.ones_like(space.bubble_fixed),
    )


def _cooks_system(space, problem):
    """The Cook system of one problem on `space`, on the locking study's
    path."""
    return _lame_sweep(space, {"loaded": COOK_TRACTION})(problem.mu,
                                                          problem.lam)


def _affine_slice(system, affine):
    """The plain-P1 system on `affine` (`_plain_affine` of the compatible
    `system`'s space) as the leading vertex block of `system`. Where the
    lift has no bubble part, as on Cook's clamp, this is bit for bit the
    system `_cooks_system` gives on `affine`."""
    k = affine.n_vertex_unknowns
    return SaddleSystem(affine, system.matrix[:k, :k], system.rhs[:k], 0)


def _cooks_tip(system):
    """Tip vertical displacement and FieldSolution of a Cook system."""
    solution, _ = _field(system)
    tip = _vertex_at(system.space.mesh, COOK_TIP)
    return float(solution.velocity[2 * tip + 1]), solution


def _vertex_at(mesh, point):
    d = np.linalg.norm(mesh.vertices - np.asarray(point), axis=1)
    v = int(np.argmin(d))
    if d[v] > 1e-8 * max(1.0, np.abs(mesh.vertices).max()):
        raise ValueError(f"no mesh vertex at {point}")
    return v


def solve_cooks_affine(problem, n):
    """Tip vertical displacement of plain vector P1 elements on the same
    type-I mesh (the locking reference): the compatible space with its
    bubbles fixed at zero, on the same assembler and solver."""
    return _cooks_tip(_cooks_system(_plain_affine(_cooks_space(n)),
                                    problem))[0]


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


def run_locking_study(nus, n):
    """Tip displacements of the compatible vs plain affine element. One
    space serves every nu, and only the Lame coefficients change: the
    unit-mu operator A_1 and the tractions are assembled once, and B^T W^-1
    B is formed once from the space's B, so each nu's system is the sparse
    sum mu A_1 + lambda B^T W^-1 B, bit for bit the one `_cooks_system`
    gives. The plain-P1 system is its leading vertex block. Every nu is
    checked before the space is built."""
    problems = [case_cooks(nu) for nu in nus]
    record = LockingRecord()
    space = _cooks_space(n)
    affine = _plain_affine(space)
    system_at = _lame_sweep(space, {"loaded": COOK_TRACTION})
    for problem in problems:
        # sliced before the factorization, each system freed once solved
        system = system_at(problem.mu, problem.lam)
        sliced = _affine_slice(system, affine)
        tip_c, record.last = _cooks_tip(system)
        del system
        tip_a, _ = _cooks_tip(sliced)
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
    """Per-triangle viscosity and drag of one coupling run, constant body
    force (0, 100)."""
    if scenario == "normal":
        lower = centers[:, 1] <= 1.0
        mu = np.where(lower, 1.0, mu_value)
        sigma = np.where(lower, 0.0, 1.0)
    else:
        left = centers[:, 0] <= 1.0
        mu = np.where(left, mu_value, 100.0)
        sigma = np.where(left, 1e3, 0.0)
    return ProblemCoefficients(mu=mu, sigma=sigma, f=(0.0, 100.0))


def velocity_profile(solution):
    """Vertex velocities along the horizontal midline y = 1, sorted by x."""
    mesh = solution.space.mesh
    on_line = np.isclose(mesh.vertices[:, 1], 1.0)
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


def run_brinkman_scenarios(scenarios, mu_values=None, *, n):
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
        profiles = {mu_value: velocity_profile(solution)
                    for mu_value, solution in solutions.items()}
        yield CouplingResult(scenario, tuple(mus), solutions, profiles)
        # the caller is done with this scenario: its space and solutions
        # are not kept alive while the next one is solved
        del space, solutions, profiles


def _coupling_sweep(space, scenario, mus):
    """The solution of each viscosity value of one coupling scenario. The
    sweep's two parts are freed on return, before the next scenario is
    assembled."""
    rest = _coupling_coefficients(scenario, 0.0, space.tables.subdiv.centroids)
    # mu = 0 marks the swept region: elsewhere mu is 1 (normal) or 100
    system_at = _viscosity_sweep(space, rest, rest.mu == 0.0)
    return {mu_value: _field(system_at(mu_value))[0] for mu_value in mus}
