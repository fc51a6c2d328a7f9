import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from mce import bench, forms, space as space_module
from mce.bench import (
    ErrorRecord,
    ManufacturedCase,
    case_cooks,
    case_darcy,
    case_elasticity,
    case_stokes,
    error_norms,
    run_brinkman_scenarios,
    run_convergence,
    run_locking_study,
    second_difference_sign_changes,
    solve_case,
    velocity_profile,
)
from mce.forms import (
    ConfigurationError,
    ProblemCoefficients,
    assemble_brinkman,
    assemble_elasticity,
)
from mce.mesh import (
    SubdividedMesh,
    generate_cook_mesh,
    generate_unit_square_mesh,
    subdivide,
)
from mce.quadrature import triangle_barycentric
from mce.space import (
    Dirichlet,
    V_FREE,
    FieldSolution,
    _hat_gradients,
    build_space,
    cell_integrals,
    fortin_interpolate,
    project_p0,
)

from face_loops import reference_boundary_normal_norm


class TestStokesCase:
    def test_consistency_100_points(self):
        assert case_stokes().check_consistency() < 1e-8

    def test_load_is_absent(self):
        case = case_stokes()
        assert case.coefficients.f is None
        assert case.check_consistency() < 1e-8

    def test_divergence_free_pointwise(self):
        case = case_stokes()
        g = case.velocity_grad(np.array([[0.3, 0.7]]))[0]
        assert g[0, 0] + g[1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_value_at_corner(self):
        u = case_stokes().velocity(np.array([[1.0, 1.0]]))[0]
        np.testing.assert_allclose(u, [20.0, 0.0], atol=1e-13)

    def test_pressure_mean_zero(self):
        case = case_stokes()
        sub = subdivide(generate_unit_square_mesh(6))
        from mce.space import project_p0

        p0 = project_p0(case.pressure, sub)
        areas = np.full(len(p0), 1.0 / 72.0)
        assert abs(np.sum(p0 * areas)) < 1e-12


class TestDarcyCase:
    def test_consistency(self):
        assert case_darcy().check_consistency() < 1e-8

    def test_divergence_free(self):
        case = case_darcy()
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (50, 2))
        g = case.velocity_grad(pts)
        np.testing.assert_allclose(g[:, 0, 0] + g[:, 1, 1], 0.0, atol=1e-12)

    def test_momentum_at_quarter_point(self):
        case = case_darcy()
        mom, _ = case.strong_residual(np.array([[0.25, 0.25]]))
        np.testing.assert_allclose(mom, 0.0, atol=1e-13)

    def test_no_penetration_on_left_edge(self):
        case = case_darcy()
        ys = np.linspace(0, 1, 13)
        pts = np.column_stack([np.zeros_like(ys), ys])
        u = case.velocity(pts)
        np.testing.assert_allclose(u[:, 0], 0.0, atol=1e-13)

    def test_brinkman_variant_consistent(self):
        assert case_darcy(mu=1e-3).check_consistency() < 1e-8

    @pytest.mark.parametrize("case, n", [(case_darcy(), 4),
                                         (case_darcy(mu=0.1), 8)],
                             ids=["mu0-n4", "mu0.1-n8"])
    def test_solved_normal_trace_is_exactly_zero(self, case, n):
        # the rotated-frame constraint kills the normal component pointwise,
        # also where tangential Nitsche faces act (mu > 0)
        sol, space, _, _ = solve_case(case, n)
        assert reference_boundary_normal_norm(space, sol.velocity) == 0.0


class TestCooksCase:
    def test_plane_strain_conversion(self):
        p = case_cooks(0.25)
        assert p.mu == pytest.approx(80.0)
        assert p.lam == pytest.approx(80.0)

    def test_lambda_blows_up(self):
        lams = [case_cooks(nu).lam for nu in (0.3, 0.4, 0.49, 0.4999)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            case_cooks(0.5)
        with pytest.raises(ValueError):
            case_cooks(-0.1)

    def test_study_parameters_are_configuration_errors(self):
        # the library is the one place these are checked; the CLI maps a
        # ConfigurationError to exit code 1
        with pytest.raises(ConfigurationError, match="at least 3 levels"):
            run_convergence(case_stokes(), [4, 8])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            run_convergence(case_stokes(), [4, 4, 8])
        with pytest.raises(ConfigurationError, match="0.7 is not in"):
            run_locking_study([0.3, 0.7], n=2)

    def test_load_resultant(self):
        # traction (0,1) on the x=48 edge of length 16: resultant (0, 16)
        mesh = generate_cook_mesh(4)
        sub = subdivide(mesh)
        space = build_space(sub, {"clamped": Dirichlet((0.0, 0.0))})
        problem = case_cooks(0.3)
        co = ProblemCoefficients(mu=problem.mu, lam=problem.lam)
        system = assemble_elasticity(
            space, co, tractions={"loaded": (0.0, 1.0)}
        )
        # pair the load with the constant field (0,1) and with (1,0)
        for direction, expected in (((0.0, 1.0), 16.0), ((1.0, 0.0), 0.0)):
            v = fortin_interpolate(direction, space)
            v_red = np.zeros(system.size)
            nfree = space.n_free_velocity
            v_red[:nfree] = space.constraint.T @ v  # unit columns: restriction
            assert system.rhs @ v_red == pytest.approx(expected, abs=1e-10)


class TestErrorNorms:
    def test_affine_exact_elasticity(self):
        A = np.array([[0.5, 1.0], [-0.25, 2.0]])
        b = np.array([1.0, -2.0])
        u = lambda p: p @ A.T + b
        grad = lambda p: np.broadcast_to(A, (len(p), 2, 2)).copy()
        zero2 = lambda p: np.zeros((len(np.atleast_2d(p)), 2))
        case = ManufacturedCase(
            coefficients=ProblemCoefficients(mu=1.0, lam=3.0, f=zero2),
            boundary={t: Dirichlet(u) for t in ("left", "right", "top", "bottom")},
            velocity=u,
            velocity_grad=grad,
            laplacian=zero2,
        )
        sol, _, _, _ = solve_case(case, 3)
        err = error_norms(sol, case)
        assert err.l2_u < 1e-10
        assert err.h1_u < 1e-10
        assert err.triple_e < 1e-10

    def test_zero_solution_gives_exact_norm(self):
        # quadrature result cross-checked against a dense midpoint sampling
        case = case_stokes()
        sub = subdivide(generate_unit_square_mesh(4))
        space = build_space(sub, "free")
        sol = FieldSolution(
            space, np.zeros(space.n_velocity), np.zeros(space.n_pressure)
        )
        err = error_norms(sol, case)
        m = 1200
        xs = (np.arange(m) + 0.5) / m
        X, Y = np.meshgrid(xs, xs)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        u = case.velocity(pts)
        brute = np.sqrt(np.sum(u**2) / m**2)
        assert err.l2_u == pytest.approx(brute, rel=1e-6)
        # and against the closed form ||u||^2 = 1424/63 (degree-6 rule on a
        # degree-8 integrand: tiny quadrature defect at this mesh size)
        assert err.l2_u == pytest.approx(np.sqrt(1424.0 / 63.0), rel=1e-9)

    def test_triple_b_reduction(self):
        # mu=1, sigma=0, pressure error zero: |||.|||_B = sqrt(h1^2 + div^2)
        case = case_stokes()
        sub = subdivide(generate_unit_square_mesh(3))
        space = build_space(sub, "free")
        from mce.space import project_p0

        sol = FieldSolution(
            space,
            np.zeros(space.n_velocity),
            project_p0(case.pressure, sub),
        )
        err = error_norms(sol, case)
        assert err.p0p < 1e-12
        assert err.triple_b == pytest.approx(
            np.sqrt(err.h1_u**2 + err.div**2), rel=1e-12
        )


    def test_element_tables_built_once(self, monkeypatch):
        from mce.space import ElementTables

        builds = []
        real_init = ElementTables.__init__

        def counting_init(self, subdiv):
            builds.append(subdiv)
            real_init(self, subdiv)

        monkeypatch.setattr(ElementTables, "__init__", counting_init)
        case = case_stokes()
        solution, _, _, _ = solve_case(case, 4)
        record = error_norms(solution, case)
        assert len(builds) == 1
        assert np.isfinite(record.p0p)


class TestElasticityCase:
    def test_consistency(self):
        assert case_elasticity(1.0).check_consistency() < 1e-8
        assert case_elasticity(1e6).check_consistency() < 1e-8

    def test_same_solution_for_all_lambda(self):
        # f is independent of lambda because the displacement is solenoidal
        a = case_elasticity(1.0)
        b = case_elasticity(1e6)
        pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
        np.testing.assert_allclose(
            a.coefficients.f(pts), b.coefficients.f(pts), rtol=0, atol=0
        )


class TestConvergenceRunner:
    def test_zero_case_zero_errors(self):
        zero2 = lambda p: np.zeros((len(np.atleast_2d(p)), 2))
        case = ManufacturedCase(
            coefficients=ProblemCoefficients(mu=1.0, sigma=0.0, f=zero2),
            boundary={t: Dirichlet((0.0, 0.0))
                      for t in ("left", "right", "top", "bottom")},
            velocity=zero2,
            velocity_grad=lambda p: np.zeros((len(p), 2, 2)),
            pressure=lambda p: np.zeros(len(p)),
            pressure_grad=zero2,
        )
        record = run_convergence(case, [1, 2, 4])
        for row in record.rows:
            assert row["err_l2_u"] < 1e-12
            assert row["err_l2_p"] < 1e-12

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            run_convergence(case_stokes(), [4, 8])
        with pytest.raises(ValueError):
            run_convergence(case_stokes(), [8, 4, 2])

    def test_one_level_alive(self, monkeypatch):
        # each level's solution, space and system are dropped before the
        # next level is solved; only the finest stays, in the record
        real_solve_case = bench.solve_case
        spaces = []

        def watched_solve_case(case, n):
            alive = [ref for ref in spaces if ref() is not None]
            assert not alive, f"{len(alive)} earlier level(s) alive at n={n}"
            result = real_solve_case(case, n)
            spaces.append(weakref.ref(result[1]))
            return result

        monkeypatch.setattr(bench, "solve_case", watched_solve_case)
        record = run_convergence(case_stokes(), [2, 3, 4])
        assert len(spaces) == 3
        assert record.finest.space is spaces[-1]()

    def test_h_column_definition(self):
        # h is the largest macro edge: the diagonal of a grid cell
        record = run_convergence(case_stokes(), [2, 3, 4])
        for row in record.rows:
            assert row["h"] == pytest.approx(np.sqrt(2.0) / row["n"])
            assert row["NNO"] == (row["n"] + 1) ** 2

    def test_csv_roundtrip(self, tmp_path):
        record = run_convergence(case_stokes(), [2, 3, 4])
        path = tmp_path / "conv.csv"
        record.to_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["level", "n", "NNO", "h"]
        assert "err_l2_u" in header and "slope_l2_u" in header
        assert len(lines) == 4
        # full-precision floats parse back exactly
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["err_l2_u"]) == record.rows[0]["err_l2_u"]


FLOW_CASES = {
    "stokes": case_stokes,
    "darcy": case_darcy,
    "darcy-mu0.1": lambda: case_darcy(mu=0.1),
}


class TestBoundaryModes:
    """Every flow case converges at the velocity rate with its boundary
    imposed strongly."""

    @pytest.mark.parametrize("name", sorted(FLOW_CASES))
    def test_flow_case_converges(self, name):
        record = run_convergence(FLOW_CASES[name](), [4, 8, 16])
        assert record.slopes["slope_l2_u"] >= 1.8

    def test_inviscid_clamped_case_refused(self):
        # the strong mode constrains u.t where the case says Dirichlet:
        # with mu = 0 that is ill-posed, as assemble_brinkman reports it
        darcy = case_darcy()
        case = replace(darcy, boundary={t: Dirichlet(darcy.velocity)
                                        for t in darcy.boundary})
        with pytest.raises(ConfigurationError, match="mu = 0"):
            solve_case(case, 4)


def one_shot_cell_integrals(f, tables, degree=6):
    """`cell_integrals` as it was before the blockwise loop: every
    quadrature point of the mesh in one call of f. The oracle of the
    blockwise form."""
    bary, wts = triangle_barycentric(degree)
    corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
    pts = np.einsum("qc,tsci->tsqi", bary, corners)
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(
        pts.shape[:3]
    )
    return 2.0 * np.einsum("q,tsq,ts->t", wts, vals, tables.sub_areas)


def one_shot_error_norms(solution, case, degree=6):
    """`error_norms` as it was before the blockwise loop: the exact fields
    at every quadrature point of the mesh at once, with the per-point
    arithmetic of the blockwise form (squared differences component by
    component, contracted with twice the weights, then with the
    subtriangle areas). The oracle of the blockwise form."""
    space = solution.space
    tables = space.tables
    nt = space.mesh.num_triangles
    co = case.coefficients
    mu = np.broadcast_to(np.asarray(co.mu, dtype=float), (nt,)) \
        if np.ndim(co.mu) == 0 else np.asarray(co.mu, dtype=float)
    sigma = np.broadcast_to(np.asarray(co.sigma, dtype=float), (nt,)) \
        if np.ndim(co.sigma) == 0 else np.asarray(co.sigma, dtype=float)

    bary, wts = triangle_barycentric(degree)
    corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
    pts = np.einsum("qc,tsci->tsqi", bary, corners)
    flat = pts.reshape(-1, 2)
    shape = pts.shape[:3]
    u_ex = np.moveaxis(case.velocity(flat), 1, 0).reshape((2,) + shape)
    gu_ex = np.moveaxis(case.velocity_grad(flat), 0, -1).reshape(
        (2, 2) + shape)
    corner_vals = np.ascontiguousarray(tables.field_node_values(
        solution.velocity)[:, SubdividedMesh.SUBTRIANGLES].transpose(
            2, 3, 0, 1))
    grads = np.ascontiguousarray(tables.hat_grads.transpose(2, 3, 0, 1))
    du = u_ex - np.einsum("qc,cits->itsq", bary, corner_vals)
    dg = gu_ex - np.einsum("cits,cjts->ijts", corner_vals, grads)[..., None]

    def cell_int(values):
        return np.einsum("ts,ts->t", np.einsum("tsq,q->ts", values, 2.0 * wts),
                         tables.sub_areas)

    l2_u_t = cell_int(du[0] ** 2 + du[1] ** 2)
    h1_u_t = cell_int(dg[0, 0] ** 2 + dg[0, 1] ** 2
                      + dg[1, 0] ** 2 + dg[1, 1] ** 2)
    div_h = solution.divergence()
    div_t = cell_int((gu_ex[0, 0] + gu_ex[1, 1] - div_h[:, None, None]) ** 2)
    eps_t = cell_int(dg[0, 0] ** 2 + dg[1, 1] ** 2
                     + 0.5 * (dg[0, 1] + dg[1, 0]) ** 2)
    record = ErrorRecord(
        l2_u=float(np.sqrt(l2_u_t.sum())),
        h1_u=float(np.sqrt(h1_u_t.sum())),
        div=float(np.sqrt(div_t.sum())),
    )
    if co.lam is not None:
        record.triple_e = float(
            np.sqrt(np.sum(2.0 * mu * eps_t) + co.lam * div_t.sum())
        )
    if case.pressure is not None and solution.pressure is not None:
        p_ex = case.pressure(flat).reshape(shape)
        ph = solution.pressure
        l2_p_t = cell_int((p_ex - ph[:, None, None]) ** 2)
        p0 = one_shot_cell_integrals(case.pressure, tables) / tables.areas
        p0p_t = tables.areas * (p0 - ph) ** 2
        record.l2_p = float(np.sqrt(l2_p_t.sum()))
        record.p0p = float(np.sqrt(p0p_t.sum()))
        record.triple_b = float(np.sqrt(
            np.sum(mu * h1_u_t) + np.sum(sigma * l2_u_t) + div_t.sum()
            + np.sum(p0p_t / (mu + sigma))
        ))
    return record


def _load(p):
    return np.column_stack([np.sin(3.0 * p[:, 0]), p[:, 0] * p[:, 1]])


def _block_outputs():
    """Every value that the block loop of `mce.space` produces, on meshes
    of 338 macro triangles: the Brinkman matrix and load (Darcy with
    mu = 1e-3), the elastic matrix and load on Cook's membrane (body load
    and traction), `cell_integrals` and `error_norms`."""
    darcy = case_darcy(mu=1e-3)
    space = build_space(subdivide(generate_unit_square_mesh(13)),
                        darcy.boundary)
    brinkman = assemble_brinkman(space, darcy.coefficients)
    cook = bench._cooks_space(13)
    elastic = assemble_elasticity(
        cook, ProblemCoefficients(mu=80.0, lam=1e4, f=_load),
        tractions={"loaded": (0.0, 6.25)})
    solution = FieldSolution(
        space, fortin_interpolate(darcy.velocity, space),
        pressure=project_p0(darcy.pressure, space.tables))
    return [
        brinkman.matrix.data, brinkman.rhs, elastic.matrix.data, elastic.rhs,
        cell_integrals(darcy.pressure, cook.tables),
        np.array(list(vars(error_norms(solution, darcy)).values())),
    ]


class TestBlockwiseQuadrature:
    """`cell_integrals` and `error_norms` evaluate the subtriangle rule one
    block of macro triangles at a time; every value is bitwise the one of
    the whole mesh at once. n = 2 has fewer triangles than one block,
    n = 13 (338) one full block and a partial one."""

    LEVELS = (2, 13)
    # the norms each case must produce (the others are NaN)
    CASES = {
        "stokes": (case_stokes, {"l2_p", "p0p", "triple_b"}),
        "darcy": (case_darcy, {"l2_p", "p0p", "triple_b"}),
        "elasticity": (lambda: case_elasticity(1e3), {"triple_e"}),
    }

    def test_levels_cover_partial_blocks(self):
        block = space_module._BLOCK
        counts = [2 * n * n for n in self.LEVELS]
        assert counts[0] < block < counts[1] and counts[1] % block

    @pytest.mark.parametrize("n", LEVELS)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_error_norms_bitwise(self, name, n):
        make_case, extra = self.CASES[name]
        case = make_case()
        solution = solve_case(case, n)[0]
        record = vars(error_norms(solution, case))
        reference = vars(one_shot_error_norms(solution, case))
        finite = {"l2_u", "h1_u", "div"} | extra
        assert {k for k, v in reference.items() if not math.isnan(v)} \
            == finite
        for key, value in reference.items():
            if key in finite:
                assert record[key] == value, key
            else:
                assert math.isnan(record[key]), key

    @pytest.mark.parametrize("n", LEVELS)
    def test_cell_integrals_bitwise(self, n):
        tables = build_space(subdivide(generate_unit_square_mesh(n)),
                             "free").tables
        nq = len(triangle_barycentric(6)[1])
        calls = []

        def f(p):
            calls.append(len(p))
            return np.sin(3.0 * p[:, 0]) * np.exp(p[:, 1])

        values = cell_integrals(f, tables)
        assert max(calls) <= space_module._BLOCK * 6 * nq
        assert sum(calls) == len(tables.areas) * 6 * nq
        assert np.array_equal(values, one_shot_cell_integrals(f, tables))
        pressure = case_stokes().pressure
        assert np.array_equal(project_p0(pressure, tables),
                              one_shot_cell_integrals(pressure, tables)
                              / tables.areas)

    @pytest.mark.parametrize("n", LEVELS)
    def test_body_load_calls_bounded(self, n):
        """The body load calls f once per block, on the degree-4 points
        of the whole mesh in triangle order."""
        tables = build_space(subdivide(generate_unit_square_mesh(n)),
                             "free").tables
        bary, _ = triangle_barycentric(4)
        points = []

        def f(p):
            points.append(p.copy())
            return _load(p)

        builder = forms._Builder(tables.loc2glob.max() + 1)
        forms._body_force_rhs(builder, tables, f)
        assert max(map(len, points)) <= space_module._BLOCK * 6 * len(bary)
        corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
        whole = np.einsum("qc,tsci->tsqi", bary, corners).reshape(-1, 2)
        assert np.array_equal(np.concatenate(points), whole)

    @pytest.mark.parametrize("block", [7, 10**6])
    def test_block_size_changes_no_value(self, monkeypatch, block):
        """Blocks of 7 triangles (the last one partial) and one block
        larger than the mesh give every value bit for bit."""
        reference = _block_outputs()
        monkeypatch.setattr(space_module, "_BLOCK", block)
        for got, want in zip(_block_outputs(), reference, strict=True):
            assert got.tobytes() == want.tobytes()


class TestErrorNormsMemory:
    """The traced peak of `error_norms` stays that of one block of macro
    triangles: on Stokes it was 35.9 MB at n = 32 and 143.6 MB at n = 64
    with the whole mesh at once, and is about 4.4 and 4.7 MB blockwise.
    What still grows is the (nt,) per-triangle arrays, about 50 B a
    triangle."""

    MARGIN_MB = 0.5

    def test_peak_does_not_grow_with_n(self, peak_traced_mb):
        case = case_stokes()
        peaks = []
        for n in (32, 64):
            sub = subdivide(generate_unit_square_mesh(n))
            space = build_space(sub, case.boundary)
            solution = FieldSolution(
                space, fortin_interpolate(case.velocity, space),
                pressure=project_p0(case.pressure, space.tables))
            peaks.append(peak_traced_mb(error_norms, solution, case))
        assert peaks[1] <= peaks[0] + self.MARGIN_MB, peaks


class TestBodyLoadMemory:
    """The traced peak of the body load stays that of one block of macro
    triangles: on Darcy it was 5.6 MB at n = 32 and 22.5 MB at n = 64 with
    every quadrature point of the mesh at once, and is about 1 MB at
    both blockwise."""

    MARGIN_MB = 0.5

    def test_peak_does_not_grow_with_n(self, peak_traced_mb):
        case = case_darcy()
        peaks = []
        for n in (32, 64):
            space = build_space(subdivide(generate_unit_square_mesh(n)),
                                case.boundary)
            builder = forms._Builder(space.n_velocity)
            peaks.append(peak_traced_mb(forms._body_force_rhs, builder,
                                        space.tables, case.coefficients.f))
        assert peaks[1] <= peaks[0] + self.MARGIN_MB, peaks


class TestBrinkmanMatrixMemory:
    """The Brinkman element kernel runs over the blocks of macro triangles:
    its traced peak grows by the (nt, 9, 9) result, 648 B a triangle, and
    the block temporaries stay the same. With the whole mesh at once it
    grew by 3,128 B a triangle."""

    MARGIN_MB = 0.5

    def test_peak_grows_by_the_result_only(self, peak_traced_mb):
        case = case_darcy(mu=1e-3)
        overheads = []
        for n in (32, 64):
            space = build_space(subdivide(generate_unit_square_mesh(n)),
                                case.boundary)
            nt = space.mesh.num_triangles
            mu, sigma = case.coefficients.fields(nt)
            peak = peak_traced_mb(forms._brinkman_matrix, space.tables, mu,
                                  sigma)
            overheads.append(peak - nt * 81 * 8 / 2**20)
        assert overheads[1] <= overheads[0] + self.MARGIN_MB, overheads


def _separate_coupling(scenario, mu_value, n):
    """One coupling run assembled by `assemble_brinkman` and solved on its
    own: the reference of the viscosity sweep."""
    sub = subdivide(bench._square2_mesh(n))
    space = build_space(sub, bench._coupling_boundary(scenario))
    co = bench._coupling_coefficients(scenario, mu_value, sub.centroids)
    return bench._field(assemble_brinkman(space, co))[0]


class TestCoupling:
    def test_velocity_profile_shape(self):
        sol = next(run_brinkman_scenarios(("tangential",), (1.0,),
                                         n=8)).solutions[1.0]
        xs, vals = velocity_profile(sol)
        assert len(xs) == 9
        assert np.all(np.diff(xs) > 0)
        assert vals.shape == (9, 2)

    def test_normal_scenario_divergence_free(self):
        from mce.space import macro_divergence

        sol = next(run_brinkman_scenarios(("normal",), (1e-2,),
                                         n=10)).solutions[1e-2]
        div = macro_divergence(sol.space, sol.velocity)
        scale = max(1.0, np.abs(sol.velocity).max())
        assert np.abs(div).max() < 1e-9 * scale

    def test_flux_balance(self):
        # net outflow equals the total mass source (zero) by the divergence
        # theorem; computed from the boundary traces, not from div
        sol = next(run_brinkman_scenarios(("normal",), (1.0,),
                                         n=10)).solutions[1.0]
        mesh = sol.space.mesh
        tables = sol.space.tables
        node_vals = tables.field_node_values(sol.velocity)
        net = 0.0
        for e in mesh.boundary_edges:
            t = int(mesh.edge_tris[e, 0])
            loc = int(np.flatnonzero(mesh.tri_edges[t] == e)[0])
            va, vb = (loc + 1) % 3, (loc + 2) % 3
            a = tables.nodes[t, va]
            b = tables.nodes[t, vb]
            n = np.array([(b - a)[1], -(b - a)[0]])
            n /= np.linalg.norm(n)
            for s0, s1 in ((va, 3 + loc), (3 + loc, vb)):
                seg = np.linalg.norm(tables.nodes[t, s1] - tables.nodes[t, s0])
                avg = 0.5 * (node_vals[t, s0] + node_vals[t, s1])
                net += seg * float(avg @ n)
        scale = max(1.0, np.abs(sol.velocity).max())
        assert abs(net) < 1e-9 * scale

    def test_coupling_load_is_a_constant(self):
        for scenario in bench.SCENARIOS:
            co = bench._coupling_coefficients(scenario, 1.0, np.ones((4, 2)))
            assert co.f == (0.0, 100.0)

    def test_oscillation_counter_without_points_in_the_window(self):
        xs = np.linspace(0.0, 0.5, 11)
        assert second_difference_sign_changes(xs, np.sin(18.0 * xs)) == 0

    def test_oscillation_counter_synthetic(self):
        xs = np.linspace(0.5, 1.5, 21)
        smooth = -((xs - 1.0) ** 2)
        assert second_difference_sign_changes(xs, smooth) == 0
        wiggly = np.sin(18.0 * xs)
        assert second_difference_sign_changes(xs, wiggly) >= 2

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            next(run_brinkman_scenarios(("sideways",), (1.0,), n=4))

    @pytest.mark.parametrize("scenario", ["normal", "tangential"])
    def test_space_built_once(self, monkeypatch, scenario):
        # only mu and sigma change with the viscosity: one mesh, subdivision
        # and space serve the scenario; the sweep's systems are sums of two
        # assembled parts, so its fields agree with those of separate
        # assemblies and solves to rounding
        from mce import bench

        spaces = []

        def counting_build_space(*args, **kwargs):
            spaces.append(build_space(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(bench, "build_space", counting_build_space)
        [result] = run_brinkman_scenarios((scenario,), (1.0, 1e-2), n=4)
        assert len(spaces) == 1
        monkeypatch.undo()
        for mu_value, solution in result.solutions.items():
            assert solution.space is spaces[0]
            separate = _separate_coupling(scenario, mu_value, n=4)
            for got, want in ((solution.velocity, separate.velocity),
                              (solution.pressure, separate.pressure)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("scenario", ["normal", "tangential"])
    def test_assembled_once_per_scenario(self, monkeypatch, scenario):
        # the element kernel runs for the two parts of the sweep, not once
        # per viscosity value, and no value goes through assemble_brinkman
        kernels, assemblies = [], []
        real_kernel = forms._brinkman_matrix

        def counting_kernel(*args):
            kernels.append(args)
            return real_kernel(*args)

        def no_assembly(*args, **kwargs):
            assemblies.append(args)

        monkeypatch.setattr(forms, "_brinkman_matrix", counting_kernel)
        monkeypatch.setattr(forms, "assemble_brinkman", no_assembly)
        [result] = run_brinkman_scenarios((scenario,), (1.0, 1e-2, 1e-3),
                                          n=4)
        assert len(result.solutions) == 3
        assert len(kernels) == 2
        assert not assemblies

    def test_sweep_value_checked_as_assembly_checks_it(self):
        # mu = 0 in the upper half of the normal scenario meets the
        # clamped sides: ill-posed, with the error assemble_brinkman raises
        with pytest.raises(forms.ConfigurationError, match="mu = 0"):
            next(run_brinkman_scenarios(("normal",), (0.0,), n=4))
        with pytest.raises(forms.ConfigurationError, match="finite"):
            next(run_brinkman_scenarios(("tangential",), (math.inf,), n=4))


def _p1_reference_tip(problem, n):
    """Tip vertical displacement of plain vector P1 on Cook's type-I mesh,
    assembled and solved on its own: element matrices from the hat
    gradients, trapezoid traction on the loaded edges, clamped vertices
    removed, one sparse direct solve. The reference for the library's
    plain-P1 locking reference."""
    mesh = generate_cook_mesh(n)
    verts = mesh.vertices
    tris = mesh.triangles
    ndof = 2 * len(verts)

    g, areas = _hat_gradients(verts[tris])
    G = np.zeros((len(tris), 6, 2, 2))  # local dof (vertex a, component c)
    for a in range(3):
        for c in range(2):
            G[:, 2 * a + c, c, :] = g[:, a]
    E = 0.5 * (G + np.swapaxes(G, 2, 3))
    K = 2.0 * problem.mu * np.einsum(
        "tkij,tlij,t->tkl", E, E, areas, optimize=True
    )
    D = np.trace(G, axis1=2, axis2=3)
    K += problem.lam * np.einsum("t,tk,tl->tkl", areas, D, D)

    l2g = np.empty((len(tris), 6), dtype=np.int64)
    l2g[:, 0:6:2] = 2 * tris
    l2g[:, 1:6:2] = 2 * tris + 1
    rows = np.repeat(l2g[:, :, None], 6, axis=2).ravel()
    cols = np.repeat(l2g[:, None, :], 6, axis=1).ravel()
    A = sparse.coo_matrix((K.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()

    rhs = np.zeros(ndof)
    tr = np.asarray(bench.COOK_TRACTION, dtype=float)
    for e in mesh.boundary_edges:
        if mesh.boundary_tags[e] != "loaded":
            continue
        a, b = mesh.edges[e]
        length = np.linalg.norm(verts[b] - verts[a])
        for v in (a, b):  # trapezoid on the linear trace
            rhs[2 * v : 2 * v + 2] += 0.5 * length * tr

    fixed = np.zeros(ndof, dtype=bool)
    for e in mesh.boundary_edges:
        if mesh.boundary_tags[e] == "clamped":
            for v in mesh.edges[e]:
                fixed[2 * v : 2 * v + 2] = True
    keep = ~fixed
    x = np.zeros(ndof)
    x[keep] = spsolve(A[keep][:, keep].tocsc(), rhs[keep])
    tip = int(np.argmin(np.linalg.norm(verts - np.asarray(bench.COOK_TIP),
                                      axis=1)))
    return float(x[2 * tip + 1])


class TestPlainAffineReference:
    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("nu", [0.3, 0.4999, 0.49999])
    def test_tip_matches_standalone_p1(self, nu, n):
        from mce.bench import solve_cooks_affine

        problem = case_cooks(nu)
        expected = _p1_reference_tip(problem, n)
        assert solve_cooks_affine(problem, n=n) == pytest.approx(
            expected, rel=1e-8
        )

    def test_no_vertex_at_the_point(self):
        mesh = generate_cook_mesh(2)
        with pytest.raises(ValueError, match=r"no mesh vertex at \(47\.0"):
            bench._vertex_at(mesh, (47.0, 60.0))

    def test_bubbles_zero_and_solve_certified(self):
        from mce import bench

        space = bench._cooks_space(4)
        lift = space.lift.copy()
        affine = bench._plain_affine(space)
        nv = space.mesh.num_vertices
        # the compatible space is left as it was
        assert space.n_free_velocity > affine.n_free_velocity
        assert np.array_equal(space.lift, lift)
        assert affine.bubble_fixed.all()
        free_vertices = np.count_nonzero(space.vertex_mode == V_FREE)
        assert affine.n_free_velocity == 2 * free_vertices

        problem = case_cooks(0.49999)
        system = assemble_elasticity(
            affine, ProblemCoefficients(mu=problem.mu, lam=problem.lam),
            tractions={"loaded": bench.COOK_TRACTION},
        )
        solution, report = bench._field(system)
        assert np.all(solution.velocity[2 * nv :] == 0.0)
        assert np.abs(solution.velocity[: 2 * nv]).max() > 0.0
        assert min(report.residual, report.backward_error) < 1e-9


class TestAffineSlice:
    @pytest.mark.parametrize("n", [4, 16])
    def test_slice_is_the_affine_assembly(self, n):
        # the plain-P1 system is the vertex-column slice of the compatible
        # one, bit for bit: values, pattern and load
        space = bench._cooks_space(n)
        affine = bench._plain_affine(space)
        problem = case_cooks(0.49999)
        sliced = bench._affine_slice(bench._cooks_system(space, problem),
                                     affine)
        direct = bench._cooks_system(affine, problem)
        assert sliced.space is affine
        for name in ("data", "indices", "indptr"):
            got, want = (getattr(m.matrix, name) for m in (sliced, direct))
            assert got.tobytes() == want.tobytes(), name
        assert sliced.rhs.tobytes() == direct.rhs.tobytes()


class TestLockingStudy:
    def test_compressible_regime_agreement(self):
        # plain P1 on n=16 is still ~9% stiffer than the compatible element
        # at nu = 0.3; the compressible-regime sanity window is 10%
        from mce.bench import run_locking_study

        record = run_locking_study([0.3], n=16)
        row = record.rows[0]
        gap = abs(row["tip_affine"] - row["tip_compatible"]) / abs(
            row["tip_compatible"]
        )
        assert gap < 0.10

    def test_frozen_locking_ratio(self):
        # regression value from the first oracle run (nu = 0.49999, n = 16)
        from mce.bench import run_locking_study

        record = run_locking_study([0.49999], n=16)
        row = record.rows[0]
        ratio = row["tip_affine"] / row["tip_compatible"]
        assert ratio == pytest.approx(0.27986310, rel=1e-5)

    def test_csv(self, tmp_path):
        from mce.bench import run_locking_study

        record = run_locking_study([0.3, 0.4], n=2)
        path = tmp_path / "tips.csv"
        record.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "nu,tip_compatible,tip_affine"
        assert len(lines) == 3

    def test_space_built_once(self, monkeypatch):
        # only the Lame coefficients change with nu: one mesh, subdivision
        # and space serve the whole study, with the tips of separate solves
        from mce import bench

        spaces = []

        def counting_build_space(*args, **kwargs):
            spaces.append(build_space(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(bench, "build_space", counting_build_space)
        record = bench.run_locking_study([0.3, 0.4], n=2)
        assert len(spaces) == 1
        assert record.last.space is spaces[0]
        monkeypatch.undo()
        for row in record.rows:
            problem = case_cooks(row["nu"])
            system = bench._cooks_system(bench._cooks_space(2), problem)
            assert row["tip_compatible"] == bench._cooks_tip(system)[0]

    def test_assembled_once_per_nu(self, monkeypatch):
        # one unit-mu operator serves the three nu, each the sum mu A_1 +
        # lambda B^T W^-1 B; the plain-P1 reference is sliced out of the
        # compatible system, with the tips of separate assemblies and
        # solves
        from mce import forms

        sweeps, operators = [], []
        real_sweep, real_elastic = bench._lame_sweep, forms._elastic_matrix

        def counting_sweep(space, *args, **kwargs):
            sweeps.append(space)
            return real_sweep(space, *args, **kwargs)

        def counting_elastic(tables, mu):
            operators.append(mu)
            return real_elastic(tables, mu)

        monkeypatch.setattr(bench, "_lame_sweep", counting_sweep)
        monkeypatch.setattr(forms, "_elastic_matrix", counting_elastic)
        record = bench.run_locking_study([0.3, 0.4, 0.49999], n=4)
        assert len(record.rows) == 3
        assert len(sweeps) == 1 and sweeps[0] is record.last.space
        assert len(operators) == 1 and np.all(operators[0] == 1.0)
        monkeypatch.undo()
        for row in record.rows:
            problem = case_cooks(row["nu"])
            assert row["tip_affine"] == bench.solve_cooks_affine(problem, n=4)


class TestRobustnessSweeps:
    def test_lambda_sweep_small(self):
        errs = []
        for lam in (1.0, 1e3, 1e6):
            case = case_elasticity(lam)
            sol, _, _, _ = solve_case(case, 4)
            errs.append(error_norms(sol, case).triple_e)
        spread = (max(errs) - min(errs)) / min(errs)
        assert spread < 0.10

    def test_viscosity_sweep_small(self):
        errs = []
        for mu in (0.0, 1e-6, 1e-3):
            case = case_darcy(mu)
            sol, _, _, _ = solve_case(case, 4)
            errs.append(error_norms(sol, case).l2_u)
        spread = (max(errs) - min(errs)) / min(errs)
        assert spread < 0.10
