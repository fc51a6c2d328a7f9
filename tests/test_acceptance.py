"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 2 asserts the Darcy rates of this element, not those of a
lowest-order H(div) pair such as RT0-P0 (velocity O(h), projected pressure
O(h^2)). The velocity space is piecewise affine and its divergence space is
exactly the P0 pressure space, so:

- the Darcy velocity is the sigma-weighted L2 best approximation of u from
  the exactly divergence-free subspace (Galerkin orthogonality, checked
  directly by the orthogonality test after the criterion-2 pair). The Fortin
  interpolant lies in that subspace and reproduces affine fields, so the
  velocity error is O(h^2), and no smaller for a generic smooth field: the
  window is [1.8, 2.2];
- for the projected pressure q = p_h - pi0 p, the Neumann problem
  lap phi = q on the convex square gives phi in H^2, and the Fortin
  interpolant v of grad phi has div v = q; with g = 0 and u.n = u_h.n = 0
  this yields ||q|| <= C h ||u - u_h|| = O(h^3). That is a lower bound on the rate, so the check is
  one-sided at 3 - 0.2 = 2.8; on the diagonal grid the pre-asymptotic rate
  runs above 3.2 (3.25 at levels 4-32, h the largest macro edge), so no
  upper edge is asserted.

The companion test keeps the general a-priori guarantees (>= 0.85 and
>= 1.8) that hold for any compatible lowest-order pair.
"""

import time

import numpy as np
import scipy.linalg

from mce.bench import (
    ManufacturedCase,
    case_cooks,
    case_darcy,
    case_elasticity,
    case_stokes,
    error_norms,
    run_brinkman_coupling,
    run_convergence,
    second_difference_sign_changes,
    solve_case,
    solve_cooks,
    solve_cooks_affine,
    solve_coupling,
)
from mce.forms import ProblemCoefficients, assemble_brinkman
from mce.mesh import (
    SubdividedMesh,
    build_mesh,
    generate_unit_square_mesh,
    subdivide,
)
from mce.quadrature import triangle_barycentric
from mce.space import (
    FieldSolution,
    NormalZero,
    ElementTables,
    build_space,
    fortin_interpolate,
    macro_divergence,
    project_p0,
)

# first-run compatible-element tip displacement, frozen as the regression
# constant for criterion 4 (nu = 0.49999, n = 16)
COOKS_TIP_REGRESSION = 1.48668037


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion1_stokes_convergence():
    start = time.perf_counter()
    record = run_convergence(case_stokes(), [4, 8, 16, 32])
    elapsed = time.perf_counter() - start
    s = record.slopes
    ok = (
        0.8 <= s["slope_h1_u"] <= 1.2
        and 1.8 <= s["slope_l2_u"] <= 2.2
        and 0.8 <= s["slope_l2_p"] <= 1.2
        and elapsed < 60.0
    )
    detail = (
        f"H1 {s['slope_h1_u']:.3f} in [0.8,1.2], "
        f"L2 {s['slope_l2_u']:.3f} in [1.8,2.2], "
        f"pressure {s['slope_l2_p']:.3f} in [0.8,1.2], {elapsed:.1f}s"
    )
    assert _report(1, ok, detail), detail


def test_criterion2_darcy_convergence_as_stated():
    # the element's own Darcy rates (see the module docstring): velocity
    # ~ h^2 from Galerkin orthogonality, projected pressure at least ~ h^3
    # from duality, with the suite's usual 0.2 margin
    start = time.perf_counter()
    record = run_convergence(case_darcy(), [4, 8, 16, 32])
    elapsed = time.perf_counter() - start
    s = record.slopes
    ok = (
        1.8 <= s["slope_l2_u"] <= 2.2
        and s["slope_p0p"] >= 2.8
        and elapsed < 60.0
    )
    detail = (
        f"L2 velocity {s['slope_l2_u']:.3f} in [1.8,2.2], "
        f"|pi0 p - p_h| {s['slope_p0p']:.3f} >= 2.8, {elapsed:.1f}s"
    )
    assert _report(2, ok, detail), detail


def test_criterion2_companion_actual_darcy_rates():
    # the guaranteed one-sided properties: at least first-order velocity,
    # at least the claimed O(h^2) superconvergence to pi0 p
    record = run_convergence(case_darcy(), [4, 8, 16, 32])
    s = record.slopes
    ok = s["slope_l2_u"] >= 0.85 and s["slope_p0p"] >= 1.8
    detail = (
        f"L2 velocity {s['slope_l2_u']:.3f} >= 0.85, "
        f"|pi0 p - p_h| {s['slope_p0p']:.3f} >= 1.8"
    )
    assert _report("2-companion", ok, detail), detail


def _polynomial_darcy_case():
    """Darcy (sigma = 1, mu = 0) with u = curl psi, psi = x(1-x)y(1-y), and
    p = x^2 - 1/3, f = u + grad p. The load is cubic, so the degree-4 load
    rule integrates it exactly against the affine basis; u.n = 0 on every
    side of the unit square."""

    def velocity(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack(
            [x * (1 - x) * (1 - 2 * y), -(1 - 2 * x) * y * (1 - y)]
        )

    def velocity_grad(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = (1 - 2 * x) * (1 - 2 * y)
        out[:, 0, 1] = -2 * x * (1 - x)
        out[:, 1, 0] = 2 * y * (1 - y)
        out[:, 1, 1] = -(1 - 2 * x) * (1 - 2 * y)
        return out

    def pressure_grad(p):
        return np.column_stack([2 * p[:, 0], np.zeros(len(p))])

    co = ProblemCoefficients(
        mu=0.0, sigma=1.0, f=lambda p: velocity(p) + pressure_grad(p)
    )
    return ManufacturedCase(
        name="darcy-polynomial",
        model="darcy",
        coefficients=co,
        boundary={t: NormalZero() for t in ("left", "right", "top", "bottom")},
        velocity=velocity,
        velocity_grad=velocity_grad,
        pressure=lambda p: p[:, 0] ** 2 - 1.0 / 3.0,
        pressure_grad=pressure_grad,
    )


def test_criterion2_galerkin_orthogonality():
    # the identity the criterion-2 rates rest on: (u - u_h, z) = 0 for every
    # z in the kernel of the pressure-velocity block, i.e. every exactly
    # divergence-free z with z.n = 0. The inner product is recovered by
    # polarization through error_norms, a quadrature path independent of the
    # assembly. A direction outside the kernel must show a clear defect
    # (measured 0.22 and 0.20), so the check can fail.
    case = _polynomial_darcy_case()
    worst, control = 0.0, np.inf
    for n in (4, 6):
        solution, space, system, _ = solve_case(case, n)
        blocks = system.blocks
        b = system.matrix[blocks["pressure"], blocks["velocity"]].toarray()
        kernel = scipy.linalg.null_space(b)
        uh = solution.velocity

        def sq_error(velocity):
            trial = FieldSolution(space, velocity, solution.pressure)
            return error_norms(trial, case).l2_u ** 2

        e2 = sq_error(uh)

        def inner(z):
            # ||e -+ z||^2 = ||e||^2 -+ 2 (e, z) + ||z||^2 with e = u - u_h
            plus, minus = sq_error(uh + z), sq_error(uh - z)
            return 0.25 * (minus - plus), 0.5 * (plus + minus) - e2

        def cosine(direction):
            z = space.constraint @ direction
            _, z2 = inner(z)
            z *= np.sqrt(e2 / z2)  # ||z|| = ||e||: polarization loses no digits
            ez, z2 = inner(z)
            return abs(ez) / np.sqrt(e2 * z2)

        worst = max(worst, max(cosine(z) for z in kernel.T))
        # for any z with z.n = 0, (u - u_h, z) = (p - p_h, div z): a z whose
        # divergence follows the pressure error leaves the kernel clearly
        p0 = project_p0(case.pressure, space.subdiv)
        control = min(control, cosine(b.T @ (solution.pressure - p0)))
    ok = worst <= 1e-10 and control > 1e-3
    detail = (
        f"max |(u - u_h, z)| / (|u - u_h| |z|) {worst:.3g} <= 1e-10 over the "
        f"kernel at n = 4, 6; outside the kernel {control:.3g} > 1e-3"
    )
    assert _report("2-orthogonality", ok, detail), detail


def _divergence_defect(space, solution, g):
    div = macro_divergence(space, solution.velocity)
    target = project_p0(g, space.subdiv) if g is not None else np.zeros_like(div)
    scale = max(1.0, float(np.abs(solution.velocity).max()))
    return float(np.abs(div - target).max()), scale


def test_criterion3_divergence_exactness():
    worst = 0.0
    # Stokes and Darcy manufactured solves (g = 0)
    for case, n in ((case_stokes(), 8), (case_darcy(), 8)):
        solution, space, _, _ = solve_case(case, n)
        defect, scale = _divergence_defect(space, solution, case.coefficients.g)
        worst = max(worst, defect / (1e-9 * scale))
    # a Brinkman solve with a genuine source g
    sub = subdivide(generate_unit_square_mesh(8))
    space = build_space(sub, "dirichlet")
    g = lambda p: np.sin(2 * np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    co = ProblemCoefficients(
        mu=1.0, sigma=0.5, g=g,
        f=lambda p: np.column_stack([p[:, 1], -p[:, 0]]),
    )
    system = assemble_brinkman(space, co)
    from mce.solve import solve
    from mce.space import FieldSolution

    u, p, _ = system.expand(solve(system).solution)
    solution = FieldSolution(space, u, p)
    defect, scale = _divergence_defect(space, solution, g)
    worst = max(worst, defect / (1e-9 * scale))
    # coupling scenario (natural boundaries, g = 0)
    solution, space, _ = solve_coupling("normal", 1e-3, n=20)
    defect, scale = _divergence_defect(space, solution, None)
    worst = max(worst, defect / (1e-9 * scale))
    ok = worst < 1.0
    detail = f"max defect {worst:.3g} of the 1e-9*scale budget"
    assert _report(3, ok, detail), detail


def test_criterion4_locking_free_cooks():
    start = time.perf_counter()
    tip_a, _, _ = solve_cooks(case_cooks(0.4999), n=16)
    tip_b, _, _ = solve_cooks(case_cooks(0.49999), n=16)
    affine_b = solve_cooks_affine(case_cooks(0.49999), n=16)
    elapsed = time.perf_counter() - start
    change = abs(tip_b - tip_a) / abs(tip_a)
    fraction = affine_b / tip_b
    regression = abs(tip_b - COOKS_TIP_REGRESSION) / COOKS_TIP_REGRESSION
    ok = change < 0.02 and fraction < 0.5 and regression < 1e-6 and elapsed < 30.0
    detail = (
        f"tip change {change:.2e} < 2%, affine fraction {fraction:.3f} < 0.5, "
        f"regression drift {regression:.2e}, {elapsed:.1f}s"
    )
    assert _report(4, ok, detail), detail


def test_criterion5_parameter_robustness():
    energy = []
    for lam in (1.0, 1e3, 1e6):
        case = case_elasticity(lam)
        sol, _, _, _ = solve_case(case, 8)
        energy.append(error_norms(sol, case).triple_e)
    lam_spread = (max(energy) - min(energy)) / min(energy)
    l2 = []
    for mu in (0.0, 1e-6, 1e-3):
        case = case_darcy(mu)
        sol, _, _, _ = solve_case(case, 8)
        l2.append(error_norms(sol, case).l2_u)
    mu_spread = (max(l2) - min(l2)) / min(l2)
    ok = lam_spread < 0.10 and mu_spread < 0.10
    detail = (
        f"energy-error spread {lam_spread:.2%} over lambda in {{1,1e3,1e6}}, "
        f"L2 spread {mu_spread:.2%} over mu in {{0,1e-6,1e-3}}"
    )
    assert _report(5, ok, detail), detail


def test_criterion6_fortin_commuting():
    rng = np.random.default_rng(2024)
    sub = subdivide(generate_unit_square_mesh(4))
    space = build_space(sub, "free")
    tables = space.tables
    bary, wts = triangle_barycentric(6)
    corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
    pts = np.einsum("qc,tsci->tsqi", bary, corners)
    flat = pts.reshape(-1, 2)
    worst = 0.0
    for _ in range(20):
        coeffs = []
        for _c in range(2):
            c = rng.uniform(-1, 1, (5, 5))
            for i in range(5):
                for j in range(5):
                    if i + j > 4:
                        c[i, j] = 0.0
            coeffs.append(c)
        cx, cy = coeffs

        def u(p):
            return np.column_stack(
                [
                    np.polynomial.polynomial.polyval2d(p[:, 0], p[:, 1], cx),
                    np.polynomial.polynomial.polyval2d(p[:, 0], p[:, 1], cy),
                ]
            )

        dcx = np.polynomial.polynomial.polyder(cx, axis=0)
        dcy = np.polynomial.polynomial.polyder(cy, axis=1)
        div_vals = (
            np.polynomial.polynomial.polyval2d(flat[:, 0], flat[:, 1], dcx)
            + np.polynomial.polynomial.polyval2d(flat[:, 0], flat[:, 1], dcy)
        ).reshape(pts.shape[:3])
        exact = 2.0 * np.einsum("q,tsq,ts->t", wts, div_vals, tables.sub_areas)
        interp = fortin_interpolate(u, space)
        approx = macro_divergence(space, interp) * tables.areas
        scale = max(np.abs(exact).max(), 1e-3)
        worst = max(worst, np.abs(approx - exact).max() / scale)
    ok = worst < 1e-10
    detail = f"max relative commuting defect {worst:.3g} < 1e-10 (20 fields)"
    assert _report(6, ok, detail), detail


def test_criterion7_bubble_oracle():
    # reference triangle: independent hand-built 2x2 system
    mesh = build_mesh(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]]
    )
    sub = subdivide(mesh)
    bottom = next(
        e for e in range(mesh.num_edges) if set(mesh.edges[e]) == {0, 1}
    )
    tables = ElementTables(sub)
    loc = list(mesh.tri_edges[0]).index(bottom)
    d = 1.0 * (sub.edge_nu[bottom] @ np.array([0.0, -1.0])) / (2 * 0.5)
    M = np.array(
        [
            -np.array([1.0, 1.0]) / np.sqrt(2.0) / ((1 / 3) / np.sqrt(2.0)),
            np.array([1.0, 0.0]) / (1 / 3),
        ]
    )
    um_oracle = np.linalg.solve(M, [d, d])
    ok_ref = (
        np.allclose(um_oracle, [1 / 3, -2 / 3], rtol=1e-12)
        and np.allclose(tables.bubble_um[0, loc], um_oracle, rtol=1e-12)
        and abs(tables.bubble_div[0, loc] - 1.0) < 1e-12
    )

    # 100 random triangles: cross-subtriangle divergence deviation
    rng = np.random.default_rng(7)
    worst = 0.0
    trials = 0
    while trials < 100:
        verts = rng.uniform(-2.0, 2.0, (3, 2))
        area2 = (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1]) - (
            verts[1, 1] - verts[0, 1]
        ) * (verts[2, 0] - verts[0, 0])
        if area2 < 0:
            verts = verts[[0, 2, 1]]
            area2 = -area2
        longest = max(
            np.linalg.norm(verts[(i + 2) % 3] - verts[(i + 1) % 3])
            for i in range(3)
        )
        if 0.5 * area2 <= 0.08 * longest**2:
            continue
        trials += 1
        m = build_mesh(verts, [[0, 1, 2]])
        s = subdivide(m, boundary_split="midpoint")
        tables = ElementTables(s)
        # bubble divergences per subtriangle, from the P1 patch values
        div_sub = np.einsum(
            "ksci,sci->ks",
            tables.basis_node_values[0, 6:][:, s.SUBTRIANGLES],
            tables.hat_grads[0],
        )
        dev = np.abs(div_sub - tables.basis_div[0, 6:, None]).max(axis=1)
        scale = np.abs(tables.basis_div[0, 6:])
        worst = max(worst, float((dev / scale).max()))
    ok = ok_ref and worst < 1e-10
    detail = (
        f"reference u_m/divergence reproduced, max scaled deviation "
        f"{worst:.3g} < 1e-10 over 100 random triangles"
    )
    assert _report(7, ok, detail), detail


def test_criterion8_brinkman_coupling():
    result = run_brinkman_coupling("tangential", (10.0, 1e-2), n=40)
    counts = {}
    for mu in (10.0, 1e-2):
        xs, vals = result.profiles[mu]
        counts[mu] = second_difference_sign_changes(xs, vals[:, 1])
    oscillates = counts[1e-2] >= 2
    smooth = counts[10.0] < 2

    normal_ok = True
    worst = 0.0
    for mu in (1.0, 1e-2, 1e-3, 1e-6):
        solution, space, report = solve_coupling("normal", mu, n=40)
        defect, scale = _divergence_defect(space, solution, None)
        worst = max(worst, defect / (1e-9 * scale))
        normal_ok = normal_ok and report.residual < 1e-9
    ok = oscillates and smooth and normal_ok and worst < 1.0
    detail = (
        f"sign changes mu=1e-2: {counts[1e-2]} >= 2, mu=10: {counts[10.0]} < 2; "
        f"normal scenario solved for 4 viscosities, divergence defect "
        f"{worst:.3g} of budget"
    )
    assert _report(8, ok, detail), detail
