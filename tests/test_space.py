import numpy as np
import pytest
from scipy import sparse

from mce import bench
from mce.mesh import (
    SubdividedMesh,
    _norm,
    build_mesh,
    generate_cook_mesh,
    generate_unit_square_mesh,
    subdivide,
)
from mce.quadrature import triangle_barycentric
from mce.space import (
    _MODE_ALIASES,
    _NORMAL_ANGLE_TOL,
    Dirichlet,
    Free,
    GeometryError,
    NormalZero,
    V_FIXED,
    V_FREE,
    V_NORMAL,
    ElementTables,
    _eval_vec,
    _locate_subtriangle,
    _perp_out,
    boundary_flux_amplitudes,
    build_space,
    eval_velocity,
    fortin_interpolate,
    macro_divergence,
    project_p0,
)


def velocity_gradient(space, coeffs, t, point):
    """Velocity gradient (2, 2) at a point inside macro triangle t, entry
    [i, j] = d u_i / d x_j: the constant gradient of the subtriangle that
    holds the point. The library has no pointwise gradient evaluator; this
    one is the tests' oracle."""
    tables = space.tables
    s, _ = _locate_subtriangle(tables, t, point)
    local = np.asarray(coeffs)[tables.loc2glob[t]]
    return np.einsum("k,kij->ij", local, tables.basis_gradients(t, s))


def divergence_deviation(space, coeffs):
    """Largest deviation (nt,) of the 6 subtriangle divergences of each
    macro triangle from their mean: the constancy that `macro_divergence`
    checks, computed on its own."""
    tables = space.tables
    local = tables.local_coeffs(coeffs)
    div_sub = np.stack([np.einsum("tk,tk->t", local, tables.sub_divergences(s))
                        for s in range(6)], axis=1)
    return np.abs(div_sub - div_sub.mean(axis=1)[:, None]).max(axis=1)


def reference_subdiv():
    mesh = build_mesh(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
        {(0, 1): "bottom", (1, 2): "hyp", (2, 0): "left"},
    )
    return subdivide(mesh)


def edge_between(mesh, a, b):
    return next(
        e for e in range(mesh.num_edges) if set(mesh.edges[e]) == {a, b}
    )


def random_quality_triangle(rng):
    while True:
        verts = rng.uniform(-2.0, 2.0, (3, 2))
        twoA = np.cross(
            np.r_[verts[1] - verts[0], 0.0], np.r_[verts[2] - verts[0], 0.0]
        )[2]
        if twoA < 0:
            verts = verts[[0, 2, 1]]
            twoA = -twoA
        longest = max(
            np.linalg.norm(verts[(i + 2) % 3] - verts[(i + 1) % 3])
            for i in range(3)
        )
        if 0.5 * twoA > 0.08 * longest**2:
            return verts


def p1_divergences(corners, values):
    """Oracle: divergence of the P1 field with given corner values."""
    p0, p1, p2 = corners
    twoA = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
    g = np.array(
        [
            [p1[1] - p2[1], p2[0] - p1[0]],
            [p2[1] - p0[1], p0[0] - p2[0]],
            [p0[1] - p1[1], p1[0] - p0[0]],
        ]
    ) / twoA
    return sum(values[c] @ g[c] for c in range(3))


def local_edge(mesh, t, e):
    return list(mesh.tri_edges[t]).index(e)


def per_edge_bubble(subdiv, edge, t):
    """Oracle: the bubble of `edge` on triangle t, one 2x2 solve of the two
    equal-divergence conditions. Returns (centroid value u_m, divergence)."""
    mesh = subdiv.mesh
    verts = mesh.vertices[mesh.triangles[t]]
    iedge = local_edge(mesh, t, edge)
    nu = subdiv.edge_nu[edge]
    d = np.array([verts[(i + 2) % 3] - verts[(i + 1) % 3] for i in range(3)])
    N = np.column_stack([d[:, 1], -d[:, 0]])  # outward, |N_i| = |E_i|
    twoA = (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1]) - (
        verts[1, 1] - verts[0, 1]) * (verts[2, 0] - verts[0, 0])
    beta = float(nu @ N[iedge])
    M = N[[j for j in range(3) if j != iedge]]
    um = np.linalg.solve(M, [-beta / 3.0, -beta / 3.0])
    return um, beta / twoA


def closed_form_bubble(subdiv, edge, t):
    """Oracle: centroid value d * (centroid - opposite vertex)."""
    mesh = subdiv.mesh
    verts = mesh.vertices[mesh.triangles[t]]
    loc = local_edge(mesh, t, edge)
    e = verts[(loc + 2) % 3] - verts[(loc + 1) % 3]
    twoA = (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1]) - (
        verts[1, 1] - verts[0, 1]) * (verts[2, 0] - verts[0, 0])
    d = float(subdiv.edge_nu[edge] @ np.array([e[1], -e[0]])) / twoA
    return d * (subdiv.centroids[t] - verts[loc])


class TestBubble:
    def test_reference_triangle_oracle(self):
        # independent oracle: build and solve the 2x2 equal-divergence
        # system from raw geometry
        sub = reference_subdiv()
        e = edge_between(sub.mesh, 0, 1)
        loc = local_edge(sub.mesh, 0, e)
        tables = ElementTables(sub)
        nu = sub.edge_nu[e]
        np.testing.assert_allclose(nu, [0.0, -1.0], atol=1e-15)

        area = 0.5
        n_hyp_in = -np.array([1.0, 1.0]) / np.sqrt(2.0)
        h_hyp = (1.0 / 3.0) / np.sqrt(2.0)
        n_left_in = np.array([1.0, 0.0])
        h_left = 1.0 / 3.0
        d = 1.0 * (nu @ np.array([0.0, -1.0])) / (2 * area)
        M = np.array([n_hyp_in / h_hyp, n_left_in / h_left])
        um_oracle = np.linalg.solve(M, [d, d])

        np.testing.assert_allclose(um_oracle, [1 / 3, -2 / 3], rtol=1e-13)
        np.testing.assert_allclose(tables.bubble_um[0, loc], um_oracle,
                                   rtol=1e-13)
        assert tables.bubble_div[0, loc] == pytest.approx(1.0, rel=1e-13)

    def test_sign_flip_negates(self):
        sub = reference_subdiv()
        e = edge_between(sub.mesh, 0, 1)
        loc = local_edge(sub.mesh, 0, e)
        flipped = type(sub)(
            mesh=sub.mesh,
            centroids=sub.centroids,
            edge_splits=sub.edge_splits,
            edge_nu=-sub.edge_nu,
        )
        b0 = ElementTables(sub)
        b1 = ElementTables(flipped)
        np.testing.assert_allclose(
            b1.bubble_um[0, loc], -b0.bubble_um[0, loc], rtol=1e-13
        )
        assert b1.bubble_div[0, loc] == pytest.approx(-1.0, rel=1e-13)

    def test_divergence_theorem_flux(self):
        # area * div equals the boundary flux int_E hat * (nu . n) = |E|/2 * nu.n
        sub = reference_subdiv()
        mesh = sub.mesh
        tables = ElementTables(sub)
        for a, b, n in [((0, 1), None, [0, -1]), ((2, 0), None, [-1, 0])]:
            e = edge_between(mesh, *a)
            length = np.linalg.norm(
                mesh.vertices[mesh.edges[e, 1]] - mesh.vertices[mesh.edges[e, 0]]
            )
            flux = 0.5 * length * (sub.edge_nu[e] @ np.asarray(n, dtype=float))
            div = tables.bubble_div[0, local_edge(mesh, 0, e)]
            assert 0.5 * div == pytest.approx(flux, rel=1e-12)

    def test_equal_divergence_on_random_triangles(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(100):
            verts = random_quality_triangle(rng)
            mesh = build_mesh(verts, [[0, 1, 2]])
            sub = subdivide(mesh, boundary_split="midpoint")
            tables = ElementTables(sub)
            tables_nodes = sub.all_local_nodes()[0]
            for e in range(3):
                vals = np.zeros((7, 2))
                loc = local_edge(mesh, 0, e)
                vals[3 + loc] = sub.edge_nu[e]
                vals[6] = tables.bubble_um[0, loc]
                divs = [
                    p1_divergences(tables_nodes[ids], vals[ids])
                    for ids in sub.SUBTRIANGLES
                ]
                d = tables.bubble_div[0, loc]
                worst = max(worst, np.abs(np.asarray(divs) - d).max() / abs(d))
        assert worst < 1e-10

    def test_closed_form_matches_system(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            verts = random_quality_triangle(rng)
            mesh = build_mesh(verts, [[0, 1, 2]])
            sub = subdivide(mesh, boundary_split="midpoint")
            tables = ElementTables(sub)
            for e in range(3):
                cf = closed_form_bubble(sub, e, 0)
                np.testing.assert_allclose(
                    cf, tables.bubble_um[0, local_edge(mesh, 0, e)],
                    rtol=1e-11, atol=1e-13,
                )

    def test_trace_vanishes_off_own_edge(self):
        # along each macro edge the bubble trace is zero except on its own
        # edge, where it is the scalar hat at the split node times nu
        sub = subdivide(generate_unit_square_mesh(2))
        mesh = sub.mesh
        space = build_space(sub, "free")
        nv = mesh.num_vertices
        rng = np.random.default_rng(13)
        for e in range(mesh.num_edges):
            coeffs = np.zeros(space.n_velocity)
            coeffs[2 * nv + e] = 1.0
            t = mesh.edge_tris[e, 0]
            for other in mesh.tri_edges[t]:
                a, b = mesh.vertices[mesh.edges[other]]
                xm = sub.edge_splits[other]
                sa = np.linalg.norm(xm - a)
                length = np.linalg.norm(b - a)
                for _ in range(5):
                    s = rng.uniform(0.02, 0.98)
                    pt = a + s * (b - a)
                    val = eval_velocity(space, coeffs, t, pt)
                    if other == e:
                        # piecewise-linear hat: 1 at xm, 0 at the endpoints
                        d = s * length
                        hat = d / sa if d <= sa else (length - d) / (length - sa)
                        np.testing.assert_allclose(
                            val, hat * sub.edge_nu[e], atol=1e-12
                        )
                    else:
                        np.testing.assert_allclose(val, 0.0, atol=1e-12)

    def test_batched_tables_match_per_edge_solve(self):
        # ElementTables solves the centroid values in a vectorized sweep;
        # it must agree with the per-edge construction everywhere
        mesh = generate_unit_square_mesh(3)
        sub = subdivide(mesh)
        tables = ElementTables(sub)
        for t in range(mesh.num_triangles):
            for loc, e in enumerate(mesh.tri_edges[t]):
                um, div = per_edge_bubble(sub, e, t)
                np.testing.assert_allclose(
                    tables.bubble_um[t, loc], um, rtol=1e-13, atol=1e-15,
                )
                assert tables.bubble_div[t, loc] == pytest.approx(div, rel=1e-13)

    def test_interior_edge_tables_on_both_sides(self):
        mesh = build_mesh(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            [[0, 1, 2], [0, 2, 3]],
        )
        sub = subdivide(mesh)
        e = edge_between(mesh, 0, 2)
        assert set(mesh.edge_tris[e]) == {0, 1}
        tables = ElementTables(sub)
        loc0, loc1 = local_edge(mesh, 0, e), local_edge(mesh, 1, e)
        # opposite outward normals: divergence constants have opposite signs
        assert tables.bubble_div[0, loc0] * tables.bubble_div[1, loc1] < 0
        t0 = tables.basis_node_values[0, 6 + loc0]
        np.testing.assert_allclose(t0[:3], 0.0, atol=1e-15)


class TestEvaluation:
    def test_partition_of_unity(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "free")
        coeffs = np.zeros(space.n_velocity)
        nv = sub.mesh.num_vertices
        coeffs[0 : 2 * nv : 2] = 1.0
        coeffs[1 : 2 * nv : 2] = 2.0
        rng = np.random.default_rng(3)
        for t in range(sub.mesh.num_triangles):
            lam = rng.dirichlet([1, 1, 1])
            pt = lam @ sub.mesh.vertices[sub.mesh.triangles[t]]
            np.testing.assert_allclose(
                eval_velocity(space, coeffs, t, pt), [1.0, 2.0], atol=1e-13
            )
            np.testing.assert_allclose(
                velocity_gradient(space, coeffs, t, pt), 0.0, atol=1e-13
            )

    def test_bubble_nodal_value(self):
        sub = subdivide(generate_unit_square_mesh(1))
        space = build_space(sub, "free")
        mesh = sub.mesh
        nv = mesh.num_vertices
        for e in range(mesh.num_edges):
            coeffs = np.zeros(space.n_velocity)
            coeffs[2 * nv + e] = 1.0
            t = mesh.edge_tris[e, 0]
            np.testing.assert_allclose(
                eval_velocity(space, coeffs, t, sub.edge_splits[e]),
                sub.edge_nu[e],
                atol=1e-13,
            )

    def test_linear_field_reproduced(self):
        u = lambda p: np.column_stack([p[:, 0], -p[:, 1]])
        sub = subdivide(generate_unit_square_mesh(3))
        space = build_space(sub, "free")
        coeffs = fortin_interpolate(u, space)
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = rng.integers(0, sub.mesh.num_triangles)
            lam = rng.dirichlet([1, 1, 1])
            pt = lam @ sub.mesh.vertices[sub.mesh.triangles[t]]
            np.testing.assert_allclose(
                eval_velocity(space, coeffs, t, pt), u(pt[None])[0], atol=1e-12
            )

    def test_point_outside_rejected(self):
        sub = subdivide(generate_unit_square_mesh(1))
        space = build_space(sub, "free")
        with pytest.raises(GeometryError):
            eval_velocity(space, np.zeros(space.n_velocity), 0, [2.0, 2.0])


class TestMacroDivergence:
    def test_linear_expansion_field(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "free")
        coeffs = fortin_interpolate(lambda p: p, space)
        div = macro_divergence(space, coeffs)
        np.testing.assert_allclose(div, 2.0, rtol=1e-12)

    def test_divergence_free_interpolant(self):
        u = lambda p: np.column_stack(
            [20 * p[:, 0] * p[:, 1] ** 3, 5 * p[:, 0] ** 4 - 5 * p[:, 1] ** 4]
        )
        sub = subdivide(generate_unit_square_mesh(4))
        space = build_space(sub, "free")
        coeffs = fortin_interpolate(u, space)
        assert np.abs(macro_divergence(space, coeffs)).max() < 1e-10

    def test_random_coefficients_constancy(self):
        sub = subdivide(generate_unit_square_mesh(3))
        space = build_space(sub, "free")
        rng = np.random.default_rng(19)
        for _ in range(100):
            coeffs = rng.standard_normal(space.n_velocity)
            macro_divergence(space, coeffs)  # raises if not constant
            dev = divergence_deviation(space, coeffs).max()
            assert dev < 1e-9 * np.linalg.norm(coeffs)


class TestProjection:
    def test_constant(self):
        sub = subdivide(generate_unit_square_mesh(2))
        vals = project_p0(lambda p: np.full(len(p), 3.5), sub)
        np.testing.assert_allclose(vals, 3.5, rtol=1e-13)

    def test_linear_on_reference_cell(self):
        mesh = build_mesh(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            [[0, 1, 2], [0, 2, 3]],
        )
        sub = subdivide(mesh)
        vals = project_p0(lambda p: p[:, 0], sub)
        # triangle (0,0),(1,0),(1,1): mean of x is the centroid's x = 2/3
        assert vals[0] == pytest.approx(2 / 3, rel=1e-13)
        assert vals[1] == pytest.approx(1 / 3, rel=1e-13)

    def test_orthogonality_to_constants(self):
        sub = subdivide(generate_unit_square_mesh(3))
        f = lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2
        vals = project_p0(f, sub)
        from mce.space import ElementTables

        tables = ElementTables(sub)
        bary, wts = triangle_barycentric(6)
        corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
        pts = np.einsum("qc,tsci->tsqi", bary, corners)
        fv = f(pts.reshape(-1, 2)).reshape(pts.shape[:3])
        int_f = 2.0 * np.einsum("q,tsq,ts->", wts, fv, tables.sub_areas)
        int_pf = np.sum(vals * tables.areas)
        assert int_f == pytest.approx(int_pf, rel=1e-12)

    def test_projection_is_stable(self):
        # discrete L2 stability: ||pi0 f|| <= ||f||
        sub = subdivide(generate_unit_square_mesh(3))
        from mce.space import ElementTables

        tables = ElementTables(sub)
        f = lambda p: np.sin(4 * p[:, 0]) * np.exp(p[:, 1])
        vals = project_p0(f, sub)
        norm_proj = np.sqrt(np.sum(vals**2 * tables.areas))
        bary, wts = triangle_barycentric(6)
        corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
        pts = np.einsum("qc,tsci->tsqi", bary, corners)
        fv = f(pts.reshape(-1, 2)).reshape(pts.shape[:3])
        norm_f = np.sqrt(
            2.0 * np.einsum("q,tsq,ts->", wts, fv**2, tables.sub_areas)
        )
        assert norm_proj <= norm_f + 1e-14

    def test_projection_idempotent(self):
        sub = subdivide(generate_unit_square_mesh(2))
        f = lambda p: np.cos(p[:, 0] * p[:, 1])
        once = project_p0(f, sub)
        mesh = sub.mesh

        def piecewise(p):
            # reconstruct the P0 field by locating the macro cell
            n = 2
            i = np.clip((p[:, 0] * n).astype(int), 0, n - 1)
            j = np.clip((p[:, 1] * n).astype(int), 0, n - 1)
            frac_x = p[:, 0] * n - i
            frac_y = p[:, 1] * n - j
            lower = frac_y <= frac_x  # below the ll-ur diagonal
            return once[2 * (j * n + i) + np.where(lower, 0, 1)]

        twice = project_p0(piecewise, sub)
        np.testing.assert_allclose(twice, once, rtol=1e-12)


class TestFortin:
    def test_constant_field_zero_bubbles(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "free")
        coeffs = fortin_interpolate((2.0, -1.0), space)
        nv = sub.mesh.num_vertices
        np.testing.assert_allclose(coeffs[2 * nv :], 0.0, atol=1e-13)

    def test_commuting_property_random_polynomials(self):
        # per-triangle integral of div(pi_h u) equals integral of div u,
        # with the oracle side computed by bulk quadrature
        rng = np.random.default_rng(23)
        sub = subdivide(generate_unit_square_mesh(4))
        space = build_space(sub, "free")
        from mce.space import ElementTables

        tables = space.tables
        bary, wts = triangle_barycentric(6)
        corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
        pts = np.einsum("qc,tsci->tsqi", bary, corners)
        flat = pts.reshape(-1, 2)
        for _ in range(20):
            cx = rng.uniform(-1, 1, (5, 5))
            cy = rng.uniform(-1, 1, (5, 5))
            for c in (cx, cy):  # keep total degree <= 4
                for i in range(5):
                    for j in range(5):
                        if i + j > 4:
                            c[i, j] = 0.0

            def u(p):
                return np.column_stack(
                    [
                        np.polynomial.polynomial.polyval2d(p[:, 0], p[:, 1], cx),
                        np.polynomial.polynomial.polyval2d(p[:, 0], p[:, 1], cy),
                    ]
                )

            dcx = np.polynomial.polynomial.polyder(cx, axis=0)
            dcy = np.polynomial.polynomial.polyder(cy, axis=1)

            def div_u(p):
                return np.polynomial.polynomial.polyval2d(
                    p[:, 0], p[:, 1], dcx
                ) + np.polynomial.polynomial.polyval2d(p[:, 0], p[:, 1], dcy)

            coeffs = fortin_interpolate(u, space)
            lhs = macro_divergence(space, coeffs) * tables.areas
            dv = div_u(flat).reshape(pts.shape[:3])
            rhs = 2.0 * np.einsum("q,tsq,ts->t", wts, dv, tables.sub_areas)
            scale = np.maximum(np.abs(rhs).max(), 1e-3)
            assert np.abs(lhs - rhs).max() < 1e-10 * scale

    def test_interpolation_error_rate(self):
        u = lambda p: np.column_stack(
            [20 * p[:, 0] * p[:, 1] ** 3, 5 * p[:, 0] ** 4 - 5 * p[:, 1] ** 4]
        )
        errs = []
        for n in (4, 8):
            sub = subdivide(generate_unit_square_mesh(n))
            space = build_space(sub, "free")
            coeffs = fortin_interpolate(u, space)
            tables = space.tables
            bary, wts = triangle_barycentric(6)
            corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
            pts = np.einsum("qc,tsci->tsqi", bary, corners)
            uex = u(pts.reshape(-1, 2)).reshape(pts.shape[:3] + (2,))
            corner_vals = np.einsum(
                "tk,tksci->tsci", tables.local_coeffs(coeffs),
                tables.basis_node_values[:, :, sub.SUBTRIANGLES],
            )
            uh = np.einsum("qc,tsci->tsqi", bary, corner_vals)
            err2 = 2.0 * np.einsum(
                "q,tsq,ts->", wts, ((uex - uh) ** 2).sum(axis=-1), tables.sub_areas
            )
            errs.append(np.sqrt(err2))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


class TestFieldSolution:
    def test_evaluators(self):
        from mce.space import FieldSolution

        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "free")
        A = np.array([[1.0, 2.0], [0.5, -0.25]])
        coeffs = fortin_interpolate(lambda p: p @ A.T, space)
        sol = FieldSolution(
            space, coeffs, pressure=np.arange(space.n_pressure, dtype=float)
        )
        pt = np.array([0.3, 0.2])
        t = 0  # triangle containing (0.3, 0.2) in the n=2 grid
        np.testing.assert_allclose(eval_velocity(space, sol.velocity, t, pt),
                                   A @ pt, atol=1e-13)
        np.testing.assert_allclose(
            velocity_gradient(space, sol.velocity, t, pt), A, atol=1e-13)
        np.testing.assert_allclose(sol.divergence(), np.trace(A), rtol=1e-12)
        verts = sol.vertex_velocities()
        np.testing.assert_allclose(
            verts, sub.mesh.vertices @ A.T, atol=1e-13
        )


def loop_edge_normals(mesh):
    """Unit outward normals of the boundary edges, one edge at a time: the
    loop build_space ran before it was batched, kept as the oracle."""
    normals = np.zeros((mesh.num_edges, 2))
    for e in mesh.boundary_edges:
        va, vb = mesh.edges[e]
        d = mesh.vertices[vb] - mesh.vertices[va]
        normals[e] = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    return normals


def rotated_jittered_square(n, seed, angle=0.3):
    mesh = generate_unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    vertices = mesh.vertices + rng.uniform(-0.2 / n, 0.2 / n,
                                           mesh.vertices.shape)
    c, s = np.cos(angle), np.sin(angle)
    return mesh.with_vertices(vertices @ np.array([[c, s], [-s, c]]))


NORMAL_ORACLE_MESHES = {
    "square-3": lambda: generate_unit_square_mesh(3),
    "rotated-jittered-7": lambda: rotated_jittered_square(7, seed=3),
    "cook-9": lambda: generate_cook_mesh(9),
}


class TestBuildSpace:
    @pytest.mark.parametrize("constraint", ["free", "normal"])
    @pytest.mark.parametrize("name", sorted(NORMAL_ORACLE_MESHES))
    def test_edge_normals_match_loop(self, name, constraint):
        sub = subdivide(NORMAL_ORACLE_MESHES[name](), boundary_split="midpoint")
        space = build_space(sub, constraint)
        oracle = loop_edge_normals(sub.mesh)
        assert space.edge_outward_normal.tobytes() == oracle.tobytes()

    def test_unit_square_n1_dirichlet(self):
        sub = subdivide(generate_unit_square_mesh(1))
        space = build_space(sub, "dirichlet")
        assert space.n_free_velocity == 1  # interior diagonal bubble only
        assert space.n_pressure == 2

    def test_unit_square_n2_unconstrained(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "free")
        assert space.n_velocity == 2 * 9 + 16 == 34
        assert space.n_free_velocity == 34
        assert space.n_pressure == 8

    def test_normal_mode_fixes_corners(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "normal")
        mesh = sub.mesh
        for v in range(mesh.num_vertices):
            x, y = mesh.vertices[v]
            on_x = x in (0.0, 1.0)
            on_y = y in (0.0, 1.0)
            if on_x and on_y:
                assert space.vertex_mode[v] == V_FIXED
            elif on_x or on_y:
                assert space.vertex_mode[v] == V_NORMAL
            else:
                assert space.vertex_mode[v] == V_FREE
        assert np.all(space.bubble_fixed[mesh.boundary_edges])

    def test_mixed_tags(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(
            sub,
            {
                "left": NormalZero(),
                "right": Dirichlet((0.0, 0.0)),
                "top": Free(),
                "bottom": Free(),
            },
        )
        mesh = sub.mesh
        corner_ll = int(np.argmin(mesh.vertices.sum(axis=1)))
        assert space.vertex_mode[corner_ll] == V_NORMAL
        free_bubbles = ~space.bubble_fixed
        for e in mesh.boundary_edges:
            tag = mesh.boundary_tags[e]
            assert free_bubbles[e] == (tag in ("top", "bottom"))

    def test_inhomogeneous_dirichlet_flux_match(self):
        u = lambda p: np.column_stack(
            [20 * p[:, 0] * p[:, 1] ** 3, 5 * p[:, 0] ** 4 - 5 * p[:, 1] ** 4]
        )
        sub = subdivide(generate_unit_square_mesh(3))
        space = build_space(sub, {tag: Dirichlet(u) for tag in
                                 ("bottom", "left", "right", "top")})
        interp = fortin_interpolate(u, space)
        # the lift agrees with the Fortin interpolant on all fixed dofs
        fixed = np.asarray(space.constraint.sum(axis=1)).ravel() == 0
        np.testing.assert_allclose(
            space.lift[fixed], interp[fixed], rtol=1e-12, atol=1e-12
        )

    def test_affine_reproduction_in_space(self):
        # every affine field lies in the space: interpolation is exact
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "free")
        A = np.array([[1.2, -0.3], [0.7, 2.0]])
        b = np.array([0.4, -1.1])
        u = lambda p: p @ A.T + b
        coeffs = fortin_interpolate(u, space)
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = rng.integers(0, sub.mesh.num_triangles)
            lam = rng.dirichlet([1, 1, 1])
            pt = lam @ sub.mesh.vertices[sub.mesh.triangles[t]]
            np.testing.assert_allclose(
                eval_velocity(space, coeffs, t, pt), u(pt[None])[0], atol=1e-12
            )
            np.testing.assert_allclose(
                velocity_gradient(space, coeffs, t, pt), A, atol=1e-12
            )


def loop_build_space(subdiv, constraint):
    """build_space as it was written before it was put in array form: one
    Python loop over the tagged edges, the vertices and the dofs. Kept as
    the oracle of the array form; returns (constraint, lift, vertex_mode,
    bubble_fixed, edge_outward_normal)."""
    mesh = subdiv.mesh
    tags = sorted({t for t in mesh.boundary_tags if t})
    if isinstance(constraint, str):
        bc = {tag: _MODE_ALIASES[constraint] for tag in tags}
    else:
        bc = {tag: constraint.get(tag, Free()) for tag in tags}
    nv, ne = mesh.num_vertices, mesh.num_edges
    n_velocity = 2 * nv + ne
    vertex_mode = np.full(nv, V_FREE, dtype=np.int8)
    vertex_value = np.zeros((nv, 2))
    vertex_normals = [[] for _ in range(nv)]
    bubble_fixed = np.zeros(ne, dtype=bool)
    bubble_value = np.zeros(ne)
    edge_normal = np.zeros((ne, 2))
    bverts = mesh.vertices
    ends = mesh.edges[mesh.boundary_edges]
    d = bverts[ends[:, 1]] - bverts[ends[:, 0]]
    edge_normal[mesh.boundary_edges] = _perp_out(d) / _norm(d)[:, None]
    for tag in tags:
        spec = bc[tag]
        tag_edges = [
            e for e in mesh.boundary_edges if mesh.boundary_tags[e] == tag
        ]
        if isinstance(spec, Dirichlet):
            for e in tag_edges:
                for v in mesh.edges[e]:
                    vertex_mode[v] = V_FIXED
                    vertex_value[v] = _eval_vec(spec.value, bverts[v])[0]
            bubble_fixed[tag_edges] = True
            bubble_value[tag_edges] = boundary_flux_amplitudes(
                subdiv, spec.value, tag_edges
            )
        elif isinstance(spec, NormalZero):
            for e in tag_edges:
                for v in mesh.edges[e]:
                    vertex_normals[v].append(edge_normal[e])
            bubble_fixed[tag_edges] = True
    vertex_tangent = np.zeros((nv, 2))
    for v in range(nv):
        if vertex_mode[v] == V_FIXED or not vertex_normals[v]:
            continue
        normals = vertex_normals[v]
        n0 = normals[0]
        distinct = any(
            1.0 - abs(float(n0 @ n)) > _NORMAL_ANGLE_TOL for n in normals[1:]
        )
        if distinct:
            vertex_mode[v] = V_FIXED
        else:
            vertex_mode[v] = V_NORMAL
            vertex_tangent[v] = np.array([-n0[1], n0[0]])
    rows, cols, data = [], [], []
    lift = np.zeros(n_velocity)
    nfree = 0
    for v in range(nv):
        if vertex_mode[v] == V_FREE:
            for c in range(2):
                rows.append(2 * v + c)
                cols.append(nfree)
                data.append(1.0)
                nfree += 1
        elif vertex_mode[v] == V_NORMAL:
            t = vertex_tangent[v]
            rows += [2 * v, 2 * v + 1]
            cols += [nfree, nfree]
            data += [t[0], t[1]]
            nfree += 1
        else:
            lift[2 * v : 2 * v + 2] = vertex_value[v]
    for e in range(ne):
        dof = 2 * nv + e
        if bubble_fixed[e]:
            lift[dof] = bubble_value[e]
        else:
            rows.append(dof)
            cols.append(nfree)
            data.append(1.0)
            nfree += 1
    C = sparse.csr_matrix((data, (rows, cols)), shape=(n_velocity, nfree))
    return C, lift, vertex_mode, bubble_fixed, edge_normal


def split_bottom_square(n):
    """Unit-square grid whose bottom side is two tags, split at x = 1/2."""
    mesh = generate_unit_square_mesh(n)
    tags = {}
    for e in mesh.boundary_edges:
        a, b = mesh.edges[e]
        tag = mesh.boundary_tags[e]
        if tag == "bottom":
            mid = 0.5 * (mesh.vertices[a, 0] + mesh.vertices[b, 0])
            tag = "bottom-a" if mid < 0.5 else "bottom-b"
        tags[(int(a), int(b))] = tag
    return build_mesh(mesh.vertices, mesh.triangles, tags)


DARCY_VELOCITY = bench.case_darcy().velocity
SPACE_ORACLE_MESHES = {
    **NORMAL_ORACLE_MESHES,
    "square-16": lambda: generate_unit_square_mesh(16),
    "square2-40": lambda: bench._square2_mesh(40),
    "split-bottom-4": lambda: split_bottom_square(4),
}
SPACE_ORACLE_CASES = [
    (name, mode)
    for name in sorted(SPACE_ORACLE_MESHES)
    for mode in ("dirichlet", "normal", "free")
] + [
    ("square-3", {"left": Dirichlet(DARCY_VELOCITY), "bottom": NormalZero(),
                  "right": NormalZero()}),
    ("square-16", {"left": NormalZero(), "bottom": NormalZero(),
                   "top": Dirichlet((0.5, -0.25))}),
    ("rotated-jittered-7", {tag: Dirichlet(DARCY_VELOCITY)
                            for tag in ("bottom", "left", "right", "top")}),
    ("square2-40", bench._coupling_boundary("normal")),
    ("square2-40", bench._coupling_boundary("tangential")),
    ("split-bottom-4", {"bottom-a": NormalZero(), "bottom-b": NormalZero()}),
    ("split-bottom-4", {"bottom-a": NormalZero(), "bottom-b": NormalZero(),
                        "left": NormalZero(), "top": Dirichlet(DARCY_VELOCITY)}),
]


class TestBuildSpaceOracle:
    @pytest.mark.parametrize(
        "name, constraint", SPACE_ORACLE_CASES,
        ids=[f"{name}-{c if isinstance(c, str) else i}"
             for i, (name, c) in enumerate(SPACE_ORACLE_CASES)],
    )
    def test_bitwise_equal_to_loop(self, name, constraint):
        sub = subdivide(SPACE_ORACLE_MESHES[name](), boundary_split="midpoint")
        space = build_space(sub, constraint)
        C, lift, mode, fixed, normal = loop_build_space(sub, constraint)
        assert space.constraint.shape == C.shape
        for key in ("data", "indices", "indptr"):
            got, want = getattr(space.constraint, key), getattr(C, key)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for got, want in [(space.lift, lift), (space.vertex_mode, mode),
                          (space.bubble_fixed, fixed),
                          (space.edge_outward_normal, normal)]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_split_straight_side_junction_slides(self):
        mesh = split_bottom_square(4)
        space = build_space(subdivide(mesh), {"bottom-a": NormalZero(),
                                              "bottom-b": NormalZero()})
        x, y = mesh.vertices.T
        junction = int(np.flatnonzero((x == 0.5) & (y == 0.0))[0])
        corners = np.flatnonzero((y == 0.0) & ((x == 0.0) | (x == 1.0)))
        assert space.vertex_mode[junction] == V_NORMAL
        assert np.all(space.vertex_mode[corners] == V_NORMAL)

    def test_unknown_condition_rejected(self):
        sub = subdivide(generate_unit_square_mesh(2))
        with pytest.raises(TypeError, match="unsupported boundary condition"):
            build_space(sub, {"left": "clamped"})


class TestElementTablesFootprint:
    """The tables hold the basis in patch form: 1,632 B per macro triangle
    (3,840 while the per-subtriangle basis gradients were stored)."""

    def test_ndarray_bytes_per_macro_triangle(self):
        sub = subdivide(generate_unit_square_mesh(8))
        tables = ElementTables(sub)
        nbytes = sum(value.nbytes for value in vars(tables).values()
                     if isinstance(value, np.ndarray))
        assert nbytes / sub.mesh.num_triangles <= 1800
        assert not {"basis_grads", "basis_div_sub"} & set(vars(tables))
