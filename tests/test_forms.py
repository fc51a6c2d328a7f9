import numpy as np
import pytest
from scipy import io as scipy_io
from scipy import sparse
from scipy.sparse.linalg import splu

from mce import bench, forms
from mce.forms import (
    ConfigurationError,
    ProblemCoefficients,
    SaddleSystem,
    assemble_brinkman,
    assemble_elasticity,
    assemble_nitsche_brinkman_tangential,
)
from mce.mesh import (
    SubdividedMesh,
    generate_cook_mesh,
    generate_unit_square_mesh,
    subdivide,
)
from mce.quadrature import edge_rule, triangle_barycentric
from mce.solve import solve
from mce.space import (
    Dirichlet,
    Free,
    NormalZero,
    build_space,
    fortin_interpolate,
    macro_divergence,
    project_p0,
)

from face_loops import (
    boundary_faces,
    reference_basis_grads,
    reference_boundary_normal_norm,
)
from split_meshes import jittered_square


def sym_defect(A):
    d = abs(A - A.T)
    return d.max() / max(abs(A).max(), 1e-300)


@pytest.fixture(scope="module")
def sub3():
    return subdivide(generate_unit_square_mesh(3))


@pytest.fixture(scope="module")
def free3(sub3):
    return build_space(sub3, "free")


class TestElasticity:
    def test_translation_zero_energy(self, free3):
        coeffs = ProblemCoefficients(mu=1.0, lam=2.0)
        system = assemble_elasticity(free3, coeffs)
        v = fortin_interpolate((1.0, 2.0), free3)
        energy = v @ (system.matrix @ v)
        scale = abs(system.matrix).max() * (v @ v)
        assert abs(energy) < 1e-12 * scale

    def test_rotation_zero_energy(self, free3):
        coeffs = ProblemCoefficients(mu=1.0, lam=2.0)
        system = assemble_elasticity(free3, coeffs)
        v = fortin_interpolate(
            lambda p: np.column_stack([-p[:, 1], p[:, 0]]), free3
        )
        energy = v @ (system.matrix @ v)
        scale = abs(system.matrix).max() * (v @ v)
        assert abs(energy) < 1e-12 * scale

    def test_symmetry(self, free3):
        coeffs = ProblemCoefficients(mu=3.0, lam=17.0)
        system = assemble_elasticity(free3, coeffs)
        assert sym_defect(system.matrix) < 1e-12

    def test_invalid_coefficients(self, free3):
        with pytest.raises(ConfigurationError):
            assemble_elasticity(free3, ProblemCoefficients(mu=1.0, lam=None))
        with pytest.raises(ConfigurationError):
            assemble_elasticity(free3, ProblemCoefficients(mu=0.0, lam=1.0))


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in ("mu", "lam", "sigma", "gamma")
      for value in (np.nan, np.inf, -np.inf)),
    ("mu", np.array([1.0, np.nan])),
    ("sigma", np.array([np.inf, 1.0])),
])
def test_non_finite_coefficient_rejected(name, value):
    kwargs = {"mu": 1.0, "lam": 1.0, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        ProblemCoefficients(**kwargs)


class TestCoefficientChecks:
    """Each model's coefficients are checked where its interior is
    assembled, with the messages below."""

    def test_non_positive_gamma(self):
        with pytest.raises(ConfigurationError, match="gamma must be positive"):
            ProblemCoefficients(mu=1.0, gamma=0)

    def test_per_triangle_mu_of_the_wrong_length(self, free3):
        mu = np.ones(free3.mesh.num_triangles + 1)
        with pytest.raises(ConfigurationError,
                           match="mu must be a scalar or one value per"):
            assemble_brinkman(free3, ProblemCoefficients(mu=mu))

    def test_negative_sigma(self, free3):
        with pytest.raises(ConfigurationError, match=r"sigma must be >= 0\.0"):
            assemble_brinkman(free3, ProblemCoefficients(mu=1.0, sigma=-1.0))

    @pytest.mark.parametrize("assemble, kwargs, message", [
        (assemble_elasticity, {"mu": 1.0}, "elasticity requires lambda > 0"),
        (assemble_elasticity, {"mu": 1.0, "lam": -1.0},
         "elasticity requires lambda > 0"),
        (assemble_elasticity, {"mu": 0.0, "lam": 1.0},
         "elasticity requires mu > 0"),
        (assemble_brinkman, {"mu": 0.0, "sigma": 0.0},
         r"Brinkman requires mu \+ sigma > 0"),
        (assemble_nitsche_brinkman_tangential, {"mu": 0.0, "sigma": 0.0},
         r"Brinkman requires mu \+ sigma > 0"),
    ])
    def test_model_bounds(self, free3, assemble, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            assemble(free3, ProblemCoefficients(**kwargs))


class TestLoadForms:
    """An absent load is None and a constant load a constant pair: each
    assembles to the right-hand side of the callable it stands for, bit
    for bit."""

    @pytest.mark.parametrize("load, callable_load", [
        (None, lambda p: np.zeros((len(p), 2))),
        ((0.5, -2.0), lambda p: np.tile([0.5, -2.0], (len(p), 1))),
    ], ids=["none", "constant"])
    @pytest.mark.parametrize("assemble, kwargs", [
        (assemble_brinkman, {"mu": 1.0, "sigma": 0.5}),
        (assemble_elasticity, {"mu": 1.0, "lam": 2.0}),
    ], ids=["brinkman", "elasticity"])
    def test_same_system_as_the_callable(self, free3, load, callable_load,
                                         assemble, kwargs):
        got = assemble(free3, ProblemCoefficients(**kwargs, f=load))
        want = assemble(free3, ProblemCoefficients(**kwargs, f=callable_load))
        assert np.array_equal(got.rhs, want.rhs)
        assert (got.matrix != want.matrix).nnz == 0

    def test_absent_load_skips_the_load_pass(self, free3, monkeypatch):
        evaluated = []
        real = forms._eval_vec
        monkeypatch.setattr(forms, "_eval_vec",
                            lambda *args: evaluated.append(args) or real(*args))
        assemble_brinkman(free3, ProblemCoefficients(mu=1.0))
        assert not evaluated
        assemble_brinkman(free3, ProblemCoefficients(mu=1.0, f=(0.0, 1.0)))
        assert evaluated


class TestBrinkman:
    def test_zero_data_zero_solution(self):
        sub = subdivide(generate_unit_square_mesh(1))
        space = build_space(sub, "dirichlet")
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0)
        system = assemble_brinkman(space, coeffs)
        report = solve(system)
        u, p, _ = system.expand(report.solution)
        assert np.abs(u).max() < 1e-12
        assert np.abs(p).max() < 1e-12

    def test_symmetry(self, free3):
        coeffs = ProblemCoefficients(mu=2.0, sigma=0.5)
        system = assemble_brinkman(free3, coeffs)
        assert sym_defect(system.matrix) < 1e-12

    def test_coupling_row_is_divergence(self, sub3, free3):
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0)
        system = assemble_brinkman(free3, coeffs)
        v = fortin_interpolate(lambda p: p, free3)  # div = 2
        usl = system.blocks["velocity"]
        psl = system.blocks["pressure"]
        brow = system.matrix[psl, usl] @ v
        areas = free3.tables.areas
        np.testing.assert_allclose(-brow, 2.0 * areas, rtol=1e-12)

    def test_pressure_column_sums_to_zero_on_constrained_space(self, sub3):
        space = build_space(sub3, "dirichlet")
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0)
        system = assemble_brinkman(space, coeffs)
        rng = np.random.default_rng(4)
        usl = system.blocks["velocity"]
        psl = system.blocks["pressure"]
        B = system.matrix[psl, usl]
        for _ in range(5):
            xv = rng.standard_normal(B.shape[1])
            total = np.sum(B @ xv)  # c * total flux with zero trace
            assert abs(total) < 1e-12 * max(1.0, np.abs(B @ xv).max())

    def test_velocity_block_psd(self, free3):
        coeffs = ProblemCoefficients(mu=1.5, sigma=0.7)
        system = assemble_brinkman(free3, coeffs)
        usl = system.blocks["velocity"]
        A = system.matrix[usl, usl]
        scale = abs(A).max()
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.standard_normal(A.shape[0])
            assert v @ (A @ v) >= -1e-10 * scale * (v @ v)

    def test_mu_zero_with_dirichlet_rejected(self, sub3):
        space = build_space(sub3, "dirichlet")
        coeffs = ProblemCoefficients(mu=0.0, sigma=1.0)
        with pytest.raises(ConfigurationError, match="normal-only"):
            assemble_brinkman(space, coeffs)

    def test_mu_sigma_both_zero_rejected(self, free3):
        with pytest.raises(ConfigurationError):
            assemble_brinkman(free3, ProblemCoefficients(mu=0.0, sigma=0.0))

    def test_galerkin_orthogonality(self, sub3):
        space = build_space(sub3, "dirichlet")
        coeffs = ProblemCoefficients(
            mu=1.0, sigma=0.0,
            f=lambda p: np.column_stack([np.sin(p[:, 1]), p[:, 0] ** 2]),
        )
        system = assemble_brinkman(space, coeffs)
        report = solve(system)
        r = system.rhs - system.matrix @ report.solution
        rng = np.random.default_rng(12)
        scale = abs(system.matrix).max() * np.linalg.norm(report.solution)
        for _ in range(20):
            y = rng.standard_normal(len(r))
            assert abs(y @ r) < 1e-9 * scale * np.linalg.norm(y)

    def test_local_conservation(self, sub3):
        from mce.space import macro_divergence, project_p0

        g = lambda p: p[:, 0] - 0.5  # zero mean on the unit square
        space = build_space(sub3, "dirichlet")
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0, g=g)
        system = assemble_brinkman(space, coeffs)
        u, p, _ = system.expand(solve(system).solution)
        div = macro_divergence(space, u)
        pg = project_p0(g, sub3)
        scale = max(1.0, np.abs(pg).max(), np.abs(div).max())
        assert np.abs(div - pg).max() < 1e-9 * scale
        areas = space.tables.areas
        assert abs(areas @ p) <= 1e-12 * (areas @ np.abs(p))


class TestNitscheBrinkmanTangential:
    def test_mu_zero_equals_plain(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "normal")
        coeffs = ProblemCoefficients(mu=0.0, sigma=1.0)
        plain = assemble_brinkman(space, coeffs)
        nit = assemble_nitsche_brinkman_tangential(space, coeffs)
        assert (plain.matrix != nit.matrix).nnz == 0
        np.testing.assert_allclose(plain.rhs, nit.rhs)

    def test_symmetric(self):
        sub = subdivide(generate_unit_square_mesh(2))
        space = build_space(sub, "normal")
        coeffs = ProblemCoefficients(mu=0.3, sigma=1.0, gamma=12.0)
        system = assemble_nitsche_brinkman_tangential(space, coeffs)
        assert sym_defect(system.matrix) < 1e-12

    def test_penalty_confined_to_boundary_triangles(self):
        sub = subdivide(generate_unit_square_mesh(3))
        space = build_space(sub, "normal")
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0, gamma=10.0)
        plain = assemble_brinkman(space, coeffs)
        nit = assemble_nitsche_brinkman_tangential(space, coeffs)
        diff = (nit.matrix - plain.matrix).tocoo()
        mesh = sub.mesh
        # free velocity dofs that belong only to interior entities
        interior_mask = np.zeros(nit.size, dtype=bool)
        C = space.constraint.tocsc()
        boundary_vertices = set(mesh.edges[mesh.boundary_edges].ravel())
        full_interior = np.ones(space.n_velocity, dtype=bool)
        for v in boundary_vertices:
            full_interior[2 * v : 2 * v + 2] = False
        full_interior[2 * mesh.num_vertices + mesh.boundary_edges] = False
        for j in range(C.shape[1]):
            rowset = C.indices[C.indptr[j] : C.indptr[j + 1]]
            interior_mask[j] = bool(np.all(full_interior[rowset]))
        for r, c, v in zip(diff.row, diff.col, diff.data):
            if abs(v) > 1e-14:
                assert not (interior_mask[r] and interior_mask[c])

    def test_gamma_scaling_linear(self, oracle_space):
        # gamma enters linearly, and only on the `NormalZero` sides
        mats = []
        for gamma in (10.0, 20.0, 30.0):
            coeffs = ProblemCoefficients(mu=0.7, sigma=1.0, gamma=gamma)
            mats.append(assemble_nitsche_brinkman_tangential(
                oracle_space, coeffs).matrix)
        d1 = (mats[1] - mats[0]).toarray()
        d2 = (mats[2] - mats[1]).toarray()
        np.testing.assert_allclose(d1, d2, rtol=1e-10, atol=1e-12)
        if any(isinstance(bc, NormalZero) for bc in oracle_space.bc.values()):
            assert abs(d1).max() > 0
        else:
            assert (mats[0] != mats[2]).nnz == 0


class TestExport:
    def test_matrix_market_roundtrip(self, tmp_path, free3):
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0)
        system = assemble_brinkman(free3, coeffs)
        path = tmp_path / "system.mtx"
        scipy_io.mmwrite(str(path), system.matrix.tocoo())
        loaded = scipy_io.mmread(str(path)).tocsr()
        assert (loaded != system.matrix).nnz == 0


# Reference assemblers: the per-face loops of `face_loops.boundary_faces` that
# the batched face table in mce.forms replaced. The interior parts call the
# same private helpers as mce.forms, so these differ from the library only
# in how the boundary terms are formed; the builder receives every triplet
# and every right-hand-side update in the same order, hence the bitwise
# comparisons below.


def _add_element_matrices(builder, tables, K):
    """Scatter (nt, 9, 9) element matrices in triangle order."""
    l2g = tables.loc2glob
    builder.add(np.repeat(l2g[:, :, None], 9, axis=2),
                np.repeat(l2g[:, None, :], 9, axis=1), K)


def _eval_points(fn, points):
    """Values (..., 2) of fn, a callable or a constant pair, at points
    (..., 2), in one call."""
    if not callable(fn):
        return np.broadcast_to(np.asarray(fn, float), points.shape)
    return np.asarray(fn(points.reshape(-1, 2)), float).reshape(points.shape)


def _reference_brinkman_interior(space, coeffs):
    tables = space.tables
    mu, sigma = coeffs.fields(space.mesh.num_triangles)
    builder = forms._Builder(space.n_velocity)
    _add_element_matrices(builder, tables,
                          forms._brinkman_matrix(tables, mu, sigma))
    forms._body_force_rhs(builder, tables, coeffs.f)
    return builder, mu, sigma


def reference_coupling_builder(space):
    """A full-numbering builder holding only the pressure coupling, -B
    and -B^T scattered from each triangle's basis divergences times its
    area, as every Brinkman assembler scattered them before B was built
    once per space."""
    tables = space.tables
    nt = space.mesh.num_triangles
    builder = forms._Builder(space.n_velocity + nt)
    D = tables.basis_div * tables.areas[:, None]
    prows = space.n_velocity + np.repeat(np.arange(nt), 9)
    ucols = tables.loc2glob.ravel()
    builder.add(prows, ucols, -D.ravel())
    builder.add(ucols, prows, -D.ravel())
    return builder


def reference_reduce(space, builder, n_pressure=0):
    """The constraint elimination S^T (K S x + K lift) = S^T b with S =
    diag(C, I) of a full-numbering builder that holds the pressure
    coupling: the reduction every assembler ran before the saddle systems
    were stacked from the space's B."""
    C = space.constraint
    K = builder.matrix()
    b = builder.rhs
    S = sparse.block_diag(
        [C, sparse.identity(n_pressure, format="csr")], format="csr"
    ) if n_pressure else C.tocsr()
    z0 = np.zeros(K.shape[0])
    z0[:space.n_velocity] = space.lift
    if space.lift.any():
        b = b - K @ z0
    return SaddleSystem(space, S.T.tocsr() @ K @ S, S.T @ b, n_pressure)


def reference_assemble_elasticity(space, coeffs, tractions=None):
    """The 2 mu eps:eps block with the tractions of the per-face loops,
    plus the lambda term as `assemble_elasticity` adds it."""
    tables = space.tables
    mu, _ = coeffs.fields(space.mesh.num_triangles)
    lam = float(coeffs.lam)
    builder = forms._Builder(space.n_velocity)
    _add_element_matrices(builder, tables, forms._elastic_matrix(tables, mu))
    forms._body_force_rhs(builder, tables, coeffs.f)
    if tractions:
        qx, qw = edge_rule(3)
        for face in boundary_faces(space):
            spec = tractions.get(face.tag)
            if spec is None:
                continue
            for seg in face.segments:
                pts = seg.points(qx)
                tv = (
                    _eval_points(spec, pts)
                    if callable(spec)
                    else np.broadcast_to(np.asarray(spec, float), (len(qx), 2))
                )
                traces = seg.traces(qx)  # (9, nq, 2)
                vals = seg.length * np.einsum("q,qi,kqi->k", qw, tv, traces)
                np.add.at(builder.rhs, space.tables.loc2glob[face.tri], vals)
    A, b = forms._reduce(space, builder)
    G, lifted = forms._div_div(space)
    return SaddleSystem(space, A + lam * G, b + lam * lifted, 0)


def reference_assemble_nitsche_brinkman_tangential(space, coeffs):
    builder, mu, _ = _reference_brinkman_interior(space, coeffs)
    tables = space.tables
    gamma = coeffs.gamma
    qx, qw = edge_rule(3)
    for face in boundary_faces(space):
        if not isinstance(space.bc.get(face.tag), NormalZero):
            continue
        t = face.tri
        if mu[t] == 0.0:
            continue
        n, tau = face.normal, face.tangent
        h = face.length
        l2g = tables.loc2glob[t]
        rows = np.repeat(l2g, 9)
        cols = np.tile(l2g, 9)
        for seg in face.segments:
            traces = seg.traces(qx)
            G = seg.grads()
            dun_t = mu[t] * np.einsum("i,kij,j->k", tau, G, n)  # t.(mu grad u n)
            tr_t = np.einsum("kqi,i->kq", traces, tau)
            int_trt = seg.length * np.einsum("q,kq->k", qw, tr_t)
            int_trt_trt = seg.length * np.einsum("q,kq,lq->kl", qw, tr_t, tr_t)
            cmat = np.outer(int_trt, dun_t)
            builder.add(rows, cols, -(cmat + cmat.T))
            builder.add(rows, cols, (gamma / h) * mu[t] * int_trt_trt)
    return forms._saddle(space, builder, coeffs.g)


def assert_bitwise(system, reference):
    """Same reduced matrix (data, indices, indptr) and rhs, bit for bit."""
    a, b = system.matrix, reference.matrix
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert system.rhs.tobytes() == reference.rhs.tobytes()


SQUARE_TAGS = ("bottom", "right", "top", "left")
ORACLE_MESHES = {
    "square-3": lambda: generate_unit_square_mesh(3),
    "jittered-6": lambda: jittered_square(6, seed=5),
}


def _load(p):
    return np.column_stack([np.sin(3.0 * p[:, 1]), p[:, 0] ** 2 - p[:, 1]])


@pytest.fixture(scope="module", params=sorted(ORACLE_MESHES))
def oracle_sub(request):
    return subdivide(ORACLE_MESHES[request.param]())


@pytest.fixture(scope="module", params=["free", "normal", "dirichlet"])
def oracle_space(request, oracle_sub):
    return build_space(oracle_sub, request.param)


class TestBoundaryTermsMatchFaceLoops:
    """Every assembler with boundary terms against the per-face loops."""

    def test_tractions(self, oracle_space):
        coeffs = ProblemCoefficients(mu=1.3, lam=7.0, f=_load)
        tractions = {"right": (0.5, -2.0), "top": _load, "left": None}
        assert_bitwise(
            assemble_elasticity(oracle_space, coeffs, tractions=tractions),
            reference_assemble_elasticity(oracle_space, coeffs, tractions),
        )

    @pytest.mark.parametrize("loaded", [SQUARE_TAGS, ("left", "top"), ()],
                             ids=["all", "left-top", "none"])
    @pytest.mark.parametrize("traction", [(0.5, -2.0), _load],
                             ids=["constant", "callable"])
    def test_tractions_on_sides(self, oracle_space, loaded, traction):
        # every side is named, the unloaded ones with None; loads on a
        # strongly constrained side leave only their free rows
        nt = oracle_space.mesh.num_triangles
        mu = 1.0 + 0.5 * np.cos(np.arange(nt))
        coeffs = ProblemCoefficients(mu=mu, lam=40.0, f=_load)
        tractions = {tag: traction if tag in loaded else None
                     for tag in SQUARE_TAGS}
        assert_bitwise(
            assemble_elasticity(oracle_space, coeffs, tractions=tractions),
            reference_assemble_elasticity(oracle_space, coeffs, tractions),
        )

    def test_tangential(self, oracle_space):
        mesh = oracle_space.mesh
        # zero viscosity on every other triangle next to the boundary
        mu = np.full(mesh.num_triangles, 0.7)
        first = mesh.edge_tris[mesh.boundary_edges, 0]
        mu[first[::2]] = 0.0
        coeffs = ProblemCoefficients(mu=mu, sigma=2.0, gamma=9.0, f=_load,
                                     g=lambda p: p[:, 0] - 0.5)
        if any(isinstance(bc, Dirichlet) for bc in oracle_space.bc.values()):
            # mu = 0 with a clamped side is refused; compare at mu > 0
            with pytest.raises(ConfigurationError, match="ill-posed"):
                assemble_nitsche_brinkman_tangential(oracle_space, coeffs)
            coeffs = ProblemCoefficients(mu=0.7, sigma=2.0, gamma=9.0,
                                         f=_load, g=coeffs.g)
        assert_bitwise(
            assemble_nitsche_brinkman_tangential(oracle_space, coeffs),
            reference_assemble_nitsche_brinkman_tangential(oracle_space,
                                                           coeffs),
        )

    @pytest.mark.parametrize("tags", [None, {"top"}, {"left", "bottom"}])
    def test_boundary_normal_norm(self, oracle_space, tags):
        # the face-loop norm reads the flux of a constant field exactly:
        # (1, 0) crosses only the left and right sides, each of length 1
        across = fortin_interpolate(
            lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
            oracle_space)
        crossed = len({"left", "right"} & (tags or set(SQUARE_TAGS)))
        assert reference_boundary_normal_norm(
            oracle_space, across, tags) == pytest.approx(np.sqrt(crossed),
                                                        rel=1e-14, abs=0.0)
        assert reference_boundary_normal_norm(
            oracle_space, across, {"top", "bottom"}) == 0.0
        # the strong constraint leaves no normal trace on a constrained
        # side, whatever the free unknowns; the free space keeps one
        x = np.random.default_rng(3).standard_normal(
            oracle_space.n_free_velocity)
        u = oracle_space.expand_velocity(x)
        norm = reference_boundary_normal_norm(oracle_space, u, tags)
        if any(isinstance(bc, Free) for bc in oracle_space.bc.values()):
            assert norm > 0.0
        else:
            assert norm == 0.0

    @pytest.mark.parametrize("traction", [(0.0, 6.25), _load],
                             ids=["constant", "callable"])
    def test_cook_tractions(self, traction):
        sub = subdivide(generate_cook_mesh(4))
        space = build_space(sub, {"clamped": Dirichlet((0.0, 0.0)),
                                  "loaded": Free(), "traction-free": Free()})
        coeffs = ProblemCoefficients(mu=80.0, lam=1e4)
        tractions = {"loaded": traction}
        assert_bitwise(
            assemble_elasticity(space, coeffs, tractions=tractions),
            reference_assemble_elasticity(space, coeffs, tractions),
        )


def _oracle_system(assembler, space):
    """A system of `assembler` on `space` with varied coefficients."""
    nt = space.mesh.num_triangles
    mu = 1.0 + 0.5 * np.cos(np.arange(nt))
    if assembler == "brinkman":
        return assemble_brinkman(space, ProblemCoefficients(
            mu=mu, sigma=0.5, f=_load))
    if assembler == "tangential":
        return assemble_nitsche_brinkman_tangential(space, ProblemCoefficients(
            mu=mu, sigma=2.0, gamma=9.0, f=_load, g=lambda p: p[:, 0] - 0.5))
    if assembler == "sweep":
        swept = np.arange(nt) % 2 == 0
        return forms._viscosity_sweep(space, ProblemCoefficients(
            mu=np.where(swept, 0.0, mu), sigma=0.5, f=_load), swept)(3.0)
    return assemble_elasticity(
        space, ProblemCoefficients(mu=mu, lam=7.0, f=_load),
        tractions={"right": (0.5, -2.0), "top": _load})


class TestSymmetry:
    """Every assembler builds a symmetric matrix."""

    @pytest.mark.parametrize("assembler", ["brinkman", "tangential", "sweep",
                                           "elasticity"])
    def test_symmetric(self, oracle_space, assembler):
        system = _oracle_system(assembler, oracle_space)
        M = system.matrix
        assert sparse.linalg.norm(M - M.T) <= 1e-12 * sparse.linalg.norm(M)


class TestMultiplierRule:
    """No assembled system carries a mean-zero multiplier row: the solve
    fixes the pressure level. The normal and dirichlet spaces eliminate
    every boundary flux, so there the constant pressure lies in the kernel
    of the coupling block and the solved pressure has area-weighted mean
    zero; on the free space the boundary flux fixes it."""

    @pytest.mark.parametrize("assembler", ["brinkman", "tangential"])
    @pytest.mark.parametrize("mode", ["free", "normal", "dirichlet"])
    def test_has_multiplier(self, oracle_sub, mode, assembler):
        space = build_space(oracle_sub, mode)
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.5, gamma=10.0, f=_load)
        if assembler == "brinkman":
            system = assemble_brinkman(space, coeffs)
        else:
            system = assemble_nitsche_brinkman_tangential(space, coeffs)
        nt = space.mesh.num_triangles
        assert system.size == space.n_free_velocity + nt
        x = solve(system).solution
        p = x[system.blocks["pressure"]]
        areas = space.tables.areas
        if mode == "free":  # the level as solved: no shift
            reference = splu(system.matrix.tocsc()).solve(system.rhs)
            np.testing.assert_allclose(x, reference, rtol=0,
                                       atol=1e-9 * np.abs(reference).max())
            assert abs(areas @ p) > 1e-6 * (areas @ np.abs(p))
        else:
            assert abs(areas @ p) <= 1e-12 * (areas @ np.abs(p))

    @pytest.mark.parametrize("mode", ["free", "normal", "dirichlet"])
    def test_free_level_is_the_kernel_of_the_coupling(self, oracle_sub, mode):
        # the structural rule that the solve reads, no free bubble on the
        # boundary, against the algebra: B^T 1 = 0 up to rounding
        space = build_space(oracle_sub, mode)
        system = assemble_brinkman(space, ProblemCoefficients(
            mu=1.0, sigma=0.5, f=_load))
        C = system.matrix[system.blocks["velocity"], system.blocks["pressure"]]
        flux = np.abs(C @ np.ones(C.shape[1])).max()
        assert space.free_pressure_level == (mode != "free")
        assert (flux <= 1e-12 * abs(C).max()) == space.free_pressure_level

    def test_viscosity_sweep_takes_the_rule_of_its_whole_system(self, sub3):
        # the swept part alone couples no pressure; the sweep at m has the
        # size of the assembled system at the same viscosity and matches
        # it to rounding
        space = build_space(sub3, "dirichlet")
        nt = space.mesh.num_triangles
        swept = np.arange(nt) % 2 == 0
        coeffs = ProblemCoefficients(mu=np.where(swept, 0.0, 2.0), sigma=0.5,
                                     f=_load)
        system = forms._viscosity_sweep(space, coeffs, swept)(3.0)
        direct = assemble_brinkman(space, ProblemCoefficients(
            mu=np.where(swept, 3.0, 2.0), sigma=0.5, f=_load))
        assert system.size == direct.size
        assert abs(system.matrix - direct.matrix).max() <= (
            1e-13 * abs(direct.matrix).max())
        np.testing.assert_allclose(system.rhs, direct.rhs, rtol=0,
                                   atol=1e-13 * np.abs(direct.rhs).max())


def _sweep_at_zero(space, coeffs):
    """The viscosity sweep of `coeffs` over every other triangle, at 0."""
    swept = np.arange(space.mesh.num_triangles) % 2 == 0
    rest = ProblemCoefficients(mu=np.where(swept, 0.0, 1.0),
                               sigma=coeffs.sigma, f=coeffs.f)
    return forms._viscosity_sweep(space, rest, swept)(0.0)


# one clamped side; the others normal-only or natural
CLAMPED_LEFT = {"left": Dirichlet((0.0, 0.0)), "right": NormalZero(),
                "top": Free(), "bottom": Free()}


class TestViscousRule:
    """mu = 0 is ill-posed on a space with a Dirichlet side: every
    Brinkman assembler and every value of a viscosity sweep refuses it,
    and accepts it on normal-only and free spaces."""

    @pytest.mark.parametrize("assemble", [
        assemble_brinkman,
        assemble_nitsche_brinkman_tangential,
        _sweep_at_zero,
    ], ids=["brinkman", "tangential", "sweep"])
    @pytest.mark.parametrize("constraint", ["clamped-left", "normal", "free"])
    def test_mu_zero(self, sub3, constraint, assemble):
        space = build_space(sub3, CLAMPED_LEFT if constraint == "clamped-left"
                            else constraint)
        coeffs = ProblemCoefficients(mu=0.0, sigma=1.0, f=_load)
        if constraint == "clamped-left":
            with pytest.raises(ConfigurationError, match="mu = 0 with full"):
                assemble(space, coeffs)
        else:
            assert assemble(space, coeffs).size > space.n_free_velocity


def reference_viscous_matrix(tables, mu):
    G = reference_basis_grads(tables)
    return np.einsum(
        "t,tksij,tlsij,ts->tkl", mu, G, G, tables.sub_areas, optimize=True
    )


def reference_mass_matrix(tables, sigma):
    if np.all(sigma == 0.0):
        return 0.0
    bary, wts = triangle_barycentric(2)
    corner_values = tables.basis_node_values[:, :, tables.subdiv.SUBTRIANGLES]
    basis_q = np.einsum("qc,tksci->tksqi", bary, corner_values)
    return 2.0 * np.einsum(
        "t,q,tksqi,tlsqi,ts->tkl", sigma, wts, basis_q, basis_q,
        tables.sub_areas, optimize=True,
    )


def reference_body_force_rhs(builder, tables, f, degree=4):
    if f is None:
        return
    bary, wts = triangle_barycentric(degree)
    corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
    pts = np.einsum("qc,tsci->tsqi", bary, corners)
    fv = _eval_points(f, pts)
    corner_values = tables.basis_node_values[:, :, tables.subdiv.SUBTRIANGLES]
    basis_q = np.einsum("qc,tksci->tksqi", bary, corner_values)
    loc = 2.0 * np.einsum(
        "q,tsqi,tksqi,ts->tk", wts, fv, basis_q, tables.sub_areas
    )
    np.add.at(builder.rhs, tables.loc2glob, loc)


def _varied_fields(nt):
    """Per-triangle mu and sigma in (0.5, 1.5), each zero on some
    triangles (never both)."""
    mu = 1.0 + 0.5 * np.cos(np.arange(nt))
    sigma = 1.0 + 0.5 * np.sin(np.arange(nt))
    mu[::3] = 0.0
    sigma[1::3] = 0.0
    return mu, sigma, _load


def _coupling_fields(scenario, mu_value):
    def fields(sub):
        co = bench._coupling_coefficients(scenario, mu_value, sub.centroids)
        return (*co.fields(sub.mesh.num_triangles), co.f)
    return fields


# (mesh, per-triangle (mu, sigma, f) from the subdivision)
PATCH_CASES = {
    "square-3": (ORACLE_MESHES["square-3"],
                 lambda sub: _varied_fields(sub.mesh.num_triangles)),
    "jittered-6": (ORACLE_MESHES["jittered-6"],
                   lambda sub: _varied_fields(sub.mesh.num_triangles)),
    "cook-4": (lambda: generate_cook_mesh(4),
               lambda sub: _varied_fields(sub.mesh.num_triangles)),
    "coupling-normal-8": (lambda: bench._square2_mesh(8),
                          _coupling_fields("normal", 1e-6)),
    "coupling-tangential-8": (lambda: bench._square2_mesh(8),
                              _coupling_fields("tangential", 1e-2)),
}


def _rel_max(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


class TestPatchKernelsMatchSubtriangleSums:
    """The 7-node patch contractions against the per-subtriangle sums
    they replace. The sums run in another order, so agreement is to a
    tolerance fixed from double precision, not bit for bit."""

    TOL = 1e-13

    @pytest.fixture(scope="class", params=sorted(PATCH_CASES))
    def case(self, request):
        make_mesh, fields = PATCH_CASES[request.param]
        sub = subdivide(make_mesh())
        return build_space(sub, "free").tables, fields(sub)

    @pytest.mark.parametrize("terms", ["both", "viscous", "mass"])
    def test_element_matrices(self, case, terms):
        tables, (mu, sigma, _) = case
        if terms == "viscous":
            sigma = np.zeros_like(sigma)
        elif terms == "mass":
            mu = np.zeros_like(mu)
        reference = (reference_viscous_matrix(tables, mu)
                     + reference_mass_matrix(tables, sigma))
        K = forms._brinkman_matrix(tables, mu, sigma)
        assert _rel_max(K, reference) <= self.TOL

    def test_load(self, case):
        tables, (_, _, f) = case
        size = tables.loc2glob.max() + 1
        new, old = forms._Builder(size), forms._Builder(size)
        forms._body_force_rhs(new, tables, f)
        reference_body_force_rhs(old, tables, f)
        assert _rel_max(new.rhs, old.rhs) <= self.TOL


def reference_elastic_matrix(tables, mu, lam):
    """Elastic element matrices as the per-subtriangle sum of 2 mu E:E over
    the stored-form basis gradients, plus the lambda div div term."""
    G = reference_basis_grads(tables)
    E = 0.5 * (G + np.swapaxes(G, 3, 4))
    K = 2.0 * np.einsum(
        "t,tksij,tlsij,ts->tkl", mu, E, E, tables.sub_areas, optimize=True
    )
    D = np.trace(G, axis1=3, axis2=4).mean(axis=2)
    K += lam * np.einsum("t,tk,tl->tkl", tables.areas, D, D)
    return K


def reference_error_norms(solution, case, degree=6):
    """`bench.error_norms` with the discrete velocity gradient read from
    the stored-form basis gradients."""
    space = solution.space
    tables = space.tables
    nt = space.mesh.num_triangles
    co = case.coefficients
    mu = np.broadcast_to(np.asarray(co.mu, dtype=float), (nt,))
    sigma = np.broadcast_to(np.asarray(co.sigma, dtype=float), (nt,))
    bary, wts = triangle_barycentric(degree)
    corners = tables.nodes[:, SubdividedMesh.SUBTRIANGLES]
    pts = np.einsum("qc,tsci->tsqi", bary, corners)
    flat = pts.reshape(-1, 2)
    u_ex = case.velocity(flat).reshape(pts.shape)
    gu_ex = case.velocity_grad(flat).reshape(pts.shape[:3] + (2, 2))
    local = tables.local_coeffs(solution.velocity)
    corner_vals = tables.field_node_values(solution.velocity)[
        :, tables.subdiv.SUBTRIANGLES
    ]
    uh = np.einsum("qc,tsci->tsqi", bary, corner_vals)
    gh = np.einsum("tk,tksij->tsij", local, reference_basis_grads(tables))
    du = u_ex - uh
    dg = gu_ex - gh[:, :, None]
    w_areas = 2.0 * wts[None, None, :] * tables.sub_areas[:, :, None]

    def cell_int(values):
        return np.einsum("tsq,tsq->t", w_areas, values)

    l2_u_t = cell_int((du**2).sum(axis=-1))
    h1_u_t = cell_int((dg**2).sum(axis=(-1, -2)))
    div_ex = gu_ex[..., 0, 0] + gu_ex[..., 1, 1]
    div_t = cell_int((div_ex - solution.divergence()[:, None, None]) ** 2)
    sym = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    eps_t = cell_int((sym**2).sum(axis=(-1, -2)))
    record = bench.ErrorRecord(
        l2_u=float(np.sqrt(l2_u_t.sum())),
        h1_u=float(np.sqrt(h1_u_t.sum())),
        div=float(np.sqrt(div_t.sum())),
    )
    if co.lam is not None:
        record.triple_e = float(
            np.sqrt(np.sum(2.0 * mu * eps_t) + co.lam * div_t.sum())
        )
    if case.pressure is not None and solution.pressure is not None:
        p_ex = case.pressure(flat).reshape(pts.shape[:3])
        ph = solution.pressure
        l2_p_t = cell_int((p_ex - ph[:, None, None]) ** 2)
        p0p_t = tables.areas * (project_p0(case.pressure, tables) - ph) ** 2
        record.l2_p = float(np.sqrt(l2_p_t.sum()))
        record.p0p = float(np.sqrt(p0p_t.sum()))
        record.triple_b = float(np.sqrt(
            np.sum(mu * h1_u_t) + np.sum(sigma * l2_u_t) + div_t.sum()
            + np.sum(p0p_t / (mu + sigma))
        ))
    return record


class TestPatchFormTables:
    """The element tables keep the basis in patch form (node values and
    subtriangle hat gradients); every reader that used the stored
    per-subtriangle basis gradients derives what it needs. Each reader
    against the stored-form formula: the elastic strain-matrix kernel sums
    in another order, so it agrees to a tolerance fixed from double
    precision; the face gradients and the divergence use the same
    products."""

    TOL = 1e-13

    CASES = dict(PATCH_CASES, **{
        # many blocks of the elastic kernel (`space._BLOCK` triangles each)
        "cook-48": (lambda: generate_cook_mesh(48),
                    lambda sub: _varied_fields(sub.mesh.num_triangles)),
    })

    @pytest.fixture(scope="class", params=sorted(CASES))
    def space(self, request):
        make_mesh, _ = self.CASES[request.param]
        return build_space(subdivide(make_mesh()), "free")

    @pytest.mark.parametrize("lam", [0.0, 1e4])
    def test_elastic_matrices(self, space, lam):
        # the 2 mu eps:eps kernel element by element; with the lambda
        # term, lambda B^T W^-1 B of the space's B, the assembled operator
        # against the per-element lambda div div of the stored form
        tables = space.tables
        nt = space.mesh.num_triangles
        mu = 1.0 + 0.5 * np.cos(np.arange(nt))
        reference = reference_elastic_matrix(tables, mu, lam)
        if not lam:
            assert _rel_max(forms._elastic_matrix(tables, mu), reference) \
                <= self.TOL
        A, _ = forms._elastic_block(space, mu)
        G, _ = forms._div_div(space)
        builder = forms._Builder(space.n_velocity)
        _add_element_matrices(builder, tables, reference)
        want = reference_reduce(space, builder).matrix
        assert abs(A + lam * G - want).max() <= self.TOL * abs(want).max()

    def test_basis_div(self, space):
        G = reference_basis_grads(space.tables)
        reference = np.trace(G, axis1=3, axis2=4).mean(axis=2)
        assert _rel_max(space.tables.basis_div, reference) <= self.TOL

    def test_face_grads(self, space):
        faces = forms._Faces(space, np.ones(len(space.mesh.boundary_edges),
                                            dtype=bool))
        reference = reference_basis_grads(space.tables)[
            faces.tri[:, None], :, faces.child
        ]
        assert faces.grads.shape == reference.shape
        assert _rel_max(faces.grads, reference) <= self.TOL

    def test_macro_divergence(self, space):
        tables = space.tables
        coeffs = np.cos(np.arange(space.n_velocity) * 0.7)
        local = tables.local_coeffs(coeffs)
        div_sub = np.trace(reference_basis_grads(tables), axis1=3, axis2=4)
        per_sub = np.einsum("tk,tks->ts", local, div_sub)
        scale = np.abs(local).max() * np.abs(div_sub).max()
        np.testing.assert_allclose(macro_divergence(space, coeffs),
                                   per_sub.mean(axis=1), rtol=0,
                                   atol=self.TOL * scale)
        # the subtriangle divergences whose constancy macro_divergence checks
        derived = np.stack([np.einsum("tk,tk->t", local,
                                      tables.sub_divergences(s))
                            for s in range(6)], axis=1)
        np.testing.assert_allclose(derived, per_sub, rtol=0,
                                   atol=self.TOL * scale)

    ERROR_NORM_CASES = {
        "stokes": bench.case_stokes,
        "brinkman": lambda: bench.case_darcy(mu=0.5, sigma=1.0),
        "darcy": bench.case_darcy,  # mu = 0
        "elasticity": lambda: bench.case_elasticity(lam=1e3),
    }

    # n = 6 is one partial block, n = 13 (338 triangles) spans two blocks
    @pytest.mark.parametrize("case_name, n", [
        pytest.param(name, n, id=name if n == 6 else f"{name}-{n}")
        for name in ERROR_NORM_CASES for n in (6, 13)
    ])
    def test_error_norms(self, case_name, n):
        case = self.ERROR_NORM_CASES[case_name]()
        solution, *_ = bench.solve_case(case, n)
        record = bench.error_norms(solution, case)
        reference = reference_error_norms(solution, case)
        for name, value in vars(reference).items():
            if np.isnan(value):
                assert np.isnan(getattr(record, name)), name
            else:
                assert getattr(record, name) == pytest.approx(
                    value, rel=self.TOL), name

    def test_cook_tips(self, monkeypatch):
        """The tip displacement of Cook's membrane near incompressibility
        against a solve that assembles with the stored-form kernel."""
        nus = (0.3, 0.4999, 0.49999)
        rows = bench.run_locking_study(nus, n=8).rows
        monkeypatch.setattr(forms, "_elastic_matrix",
                            lambda tables, mu: reference_elastic_matrix(
                                tables, mu, 0.0))
        references = bench.run_locking_study(nus, n=8).rows
        for row, reference in zip(rows, references):
            assert row["tip_compatible"] == pytest.approx(
                reference["tip_compatible"], rel=1e-8), row["nu"]


def _square_space(n, boundary):
    return build_space(subdivide(generate_unit_square_mesh(n)), boundary)


class TestDivergenceBlock:
    """B, the velocity-pressure block, has one construction, the space's
    `divergence_block`. It is bit for bit the pressure block that the
    assemblers scattered into their coordinate lists and reduced before,
    Z spans its kernel, and lambda B^T W^-1 B, the lambda div div term,
    matches the per-element term of the stored form to rounding."""

    SPACES = {
        "stokes-8": lambda: _square_space(8, bench.case_stokes().boundary),
        "darcy-8": lambda: _square_space(8, bench.case_darcy().boundary),
        "coupling-normal-8": lambda: build_space(
            subdivide(bench._square2_mesh(8)),
            bench._coupling_boundary("normal")),
        "coupling-tangential-8": lambda: build_space(
            subdivide(bench._square2_mesh(8)),
            bench._coupling_boundary("tangential")),
        "cook-8": lambda: bench._cooks_space(8),
    }

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_block_of_the_coupled_assembly(self, name):
        space = self.SPACES[name]()
        nfu = space.n_free_velocity
        M = reference_reduce(space, reference_coupling_builder(space),
                             space.mesh.num_triangles).matrix
        want = -M[nfu:, :nfu]
        want.sort_indices()
        B = space.divergence_block
        assert B.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            assert getattr(B, attr).tobytes() == getattr(want, attr).tobytes()

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_kernel_basis_spans_no_divergence(self, name):
        space = self.SPACES[name]()
        B, Z = space.divergence_block, space.kernel
        # each entry of B Z sums a few products of at most |B| |Z|
        assert abs(B @ Z).max() <= 1e-14 * abs(B).max() * abs(Z).max()

    # Cook clamps at zero; case_elasticity lifts its Dirichlet data
    LAME_SPACES = {
        "cook-4": (lambda: bench._cooks_space(4),
                   {"loaded": bench.COOK_TRACTION}),
        "cook-16": (lambda: bench._cooks_space(16),
                    {"loaded": bench.COOK_TRACTION}),
        "elasticity-8": (lambda: _square_space(
            8, bench.case_elasticity(1.0).boundary), None),
    }

    @pytest.mark.parametrize("name", sorted(LAME_SPACES))
    def test_lambda_term_is_the_per_element_term(self, name):
        space = self.LAME_SPACES[name][0]()
        tables = space.tables
        lam = 1e4
        builder = forms._Builder(space.n_velocity)
        _add_element_matrices(builder, tables, reference_elastic_matrix(
            tables, np.zeros(space.mesh.num_triangles), lam))
        want = reference_reduce(space, builder)
        G, lifted = forms._div_div(space)
        assert abs(lam * G - want.matrix).max() <= (
            1e-13 * abs(want.matrix).max())
        np.testing.assert_allclose(lam * lifted, want.rhs, rtol=0,
                                   atol=1e-13 * np.abs(want.rhs).max())
        assert space.lift.any() == (name == "elasticity-8")

    @pytest.mark.parametrize("name", sorted(LAME_SPACES))
    def test_lame_sweep_is_the_assembly(self, name):
        # the sweep's parts, scaled and summed, against one assembly at
        # the same coefficients: equal to rounding, the lift terms too
        make_space, tractions = self.LAME_SPACES[name]
        space = make_space()
        got = forms._lame_sweep(space, tractions)(80.0, 1e4)
        want = assemble_elasticity(
            space, ProblemCoefficients(mu=80.0, lam=1e4), tractions)
        assert abs(got.matrix - want.matrix).max() <= (
            1e-13 * abs(want.matrix).max())
        np.testing.assert_allclose(got.rhs, want.rhs, rtol=0,
                                   atol=1e-13 * np.abs(want.rhs).max())

    def test_lame_sweep_checks_every_value(self):
        system = forms._lame_sweep(bench._cooks_space(2))
        with pytest.raises(ConfigurationError, match="requires mu > 0"):
            system(0.0, 1.0)
        with pytest.raises(ConfigurationError, match="requires lambda > 0"):
            system(1.0, -1.0)


class TestBuildSpaceMemory:
    """Peak Python-traced allocation of `build_space` per macro triangle:
    the element tables and the temporaries of building them (6,520 B on
    this mesh while the per-subtriangle basis gradients were stored, about
    3,070 without them)."""

    def test_peak_per_triangle(self, peak_traced_mb):
        sub = subdivide(generate_cook_mesh(16))
        peak = peak_traced_mb(build_space, sub, {
            "clamped": Dirichlet((0.0, 0.0)), "loaded": Free(),
            "traction-free": Free()}) * 2**20
        assert sub.mesh.num_triangles == 512
        assert peak / sub.mesh.num_triangles <= 4096


class TestAssemblyMemory:
    """Peak Python-traced allocation of one Brinkman assembly, per macro
    triangle: the patch kernels keep no per-quadrature-point basis
    tensor (8.2 and 12.7 KiB before them, about 5.3 with them)."""

    @pytest.mark.parametrize("make_case", [bench.case_stokes,
                                           bench.case_darcy])
    def test_peak_per_triangle(self, make_case, peak_traced_mb):
        case = make_case()
        sub = subdivide(generate_unit_square_mesh(64))
        space = build_space(sub, case.boundary)
        peak = peak_traced_mb(assemble_brinkman, space,
                              case.coefficients) * 2**20
        assert sub.mesh.num_triangles == 8192
        assert peak / sub.mesh.num_triangles <= 7 * 1024
