import warnings

import numpy as np
import pytest
from scipy import io as scipy_io
from scipy import sparse

from mce import bench, forms
from mce.forms import (
    ConfigurationError,
    ProblemCoefficients,
    assemble_brinkman,
    assemble_elasticity,
    assemble_nitsche_brinkman_tangential,
    assemble_nitsche_elasticity,
    assemble_nitsche_slip,
    boundary_normal_norm,
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
    _hat_gradients,
    build_space,
    fortin_interpolate,
    macro_divergence,
    project_p0,
)


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
        u, _, m = system.expand(solve(system).solution)
        div = macro_divergence(space, u)
        pg = project_p0(g, sub3)
        scale = max(1.0, np.abs(pg).max(), np.abs(div).max())
        assert np.abs(div - pg).max() < 1e-9 * scale
        assert abs(m) < 1e-9


class TestNitscheElasticity:
    def test_symmetry(self, free3):
        coeffs = ProblemCoefficients(mu=1.0, lam=100.0, gamma=10.0)
        system = assemble_nitsche_elasticity(
            free3, coeffs, dirichlet_tags={"left", "bottom", "right", "top"}
        )
        assert sym_defect(system.matrix) < 1e-12

    def test_gamma_scaling_linear(self, free3):
        tags = {"left", "bottom", "right", "top"}
        mats = []
        for gamma in (10.0, 20.0, 30.0):
            coeffs = ProblemCoefficients(mu=1.0, lam=5.0, gamma=gamma)
            mats.append(
                assemble_nitsche_elasticity(free3, coeffs, tags).matrix
            )
        d1 = (mats[1] - mats[0]).toarray()
        d2 = (mats[2] - mats[1]).toarray()
        np.testing.assert_allclose(d1, d2, rtol=1e-10, atol=1e-12)
        assert abs(d1).max() > 0

    def test_empty_dirichlet_warns(self, free3):
        coeffs = ProblemCoefficients(mu=1.0, lam=5.0)
        with pytest.warns(UserWarning):
            assemble_nitsche_elasticity(free3, coeffs, set())


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


class TestNitscheSlip:
    def make(self, gamma=10.0, n=3):
        sub = subdivide(generate_unit_square_mesh(n))
        space = build_space(sub, "free")
        coeffs = ProblemCoefficients(
            mu=1.0, sigma=0.0, gamma=gamma,
            f=lambda p: np.column_stack([p[:, 1] ** 2, np.zeros(len(p))]),
        )
        return space, assemble_nitsche_slip(space, coeffs)

    def test_not_symmetric_and_confined(self):
        space, system = self.make()
        A = system.matrix
        asym = (A - A.T).tocoo()
        assert abs(asym.data).max() > 1e-8  # genuinely non-symmetric
        usl, psl = system.blocks["velocity"], system.blocks["pressure"]
        for r, c, v in zip(asym.row, asym.col, asym.data):
            if abs(v) < 1e-12:
                continue
            in_up = usl.start <= r < usl.stop and psl.start <= c < psl.stop
            in_pu = psl.start <= r < psl.stop and usl.start <= c < usl.stop
            assert in_up or in_pu

    def test_penalty_drives_normal_trace_down(self):
        norms = []
        for gamma in (10.0, 100.0, 1000.0):
            space, system = self.make(gamma=gamma)
            u, _, _ = system.expand(solve(system).solution)
            norms.append(boundary_normal_norm(space, u))
        assert norms[0] > norms[1] > norms[2]

    def test_pressure_coupling_is_boundary_flux(self):
        # the normal-normal stress is mu dn(u).n - p, so the extra pressure
        # column (relative to the plain saddle form) pairs a test field v
        # with int_boundary (v.n) p; for v = (x, y) and p = 1 that boundary
        # flux is 2 |Omega| = 2
        sub = subdivide(generate_unit_square_mesh(3))
        space = build_space(sub, "free")
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0, gamma=10.0)
        plain = assemble_brinkman(space, coeffs)
        slip = assemble_nitsche_slip(space, coeffs)
        usl, psl = slip.blocks["velocity"], slip.blocks["pressure"]
        extra = slip.matrix[usl, psl] - plain.matrix[usl, psl]
        v = fortin_interpolate(lambda p: p, space)
        ones = np.ones(extra.shape[1])
        assert v @ (extra @ ones) == pytest.approx(2.0, rel=1e-12)


class TestExport:
    def test_matrix_market_roundtrip(self, tmp_path, free3):
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.0)
        system = assemble_brinkman(free3, coeffs)
        path = tmp_path / "system.mtx"
        scipy_io.mmwrite(str(path), system.matrix.tocoo())
        loaded = scipy_io.mmread(str(path)).tocsr()
        assert (loaded != system.matrix).nnz == 0


def reference_basis_grads(tables):
    """Constant basis gradients (nt, 9, 6, 2, 2) per subtriangle by the
    formula the element tables stored them with: the basis values at the
    subtriangle corners contracted with the corner hat gradients, both
    gathered anew from the node coordinates."""
    sub = tables.subdiv.SUBTRIANGLES
    grads, _ = _hat_gradients(tables.nodes[:, sub])
    return np.einsum("tksci,tscj->tksij", tables.basis_node_values[:, :, sub],
                     grads)


# Reference assemblers: the per-face loops over _Face/_Segment objects that
# the batched face table in mce.forms replaced. The interior parts call the
# same private helpers as mce.forms, so these differ from the library only
# in how the boundary terms are formed; the builder receives every triplet
# and every right-hand-side update in the same order, hence the bitwise
# comparisons below.


class _Segment:
    """Half of a boundary face trace, backed by one subtriangle."""

    def __init__(self, tables, tri, n0, n1, child):
        self.tables = tables
        self.tri = tri
        self.n0, self.n1 = n0, n1
        self.child = child
        p0 = tables.nodes[tri, n0]
        p1 = tables.nodes[tri, n1]
        self.p0, self.p1 = p0, p1
        self.length = float(np.linalg.norm(p1 - p0))

    def points(self, qx):
        return self.p0 + np.outer(qx, self.p1 - self.p0)

    def traces(self, qx):
        V = self.tables.basis_node_values[self.tri]  # (9,7,2)
        return (
            V[:, self.n0][:, None, :] * (1.0 - qx)[None, :, None]
            + V[:, self.n1][:, None, :] * qx[None, :, None]
        )

    def grads(self):
        # (9,2,2)
        return reference_basis_grads(self.tables)[self.tri, :, self.child]


class _Face:
    def __init__(self, space, edge):
        mesh = space.mesh
        tables = space.tables
        self.edge = edge
        self.tag = mesh.boundary_tags[edge]
        t = int(mesh.edge_tris[edge, 0])
        self.tri = t
        loc = int(np.flatnonzero(mesh.tri_edges[t] == edge)[0])
        self.loc = loc
        va, vb = (loc + 1) % 3, (loc + 2) % 3
        a = tables.nodes[t, va]
        b = tables.nodes[t, vb]
        d = b - a
        self.length = float(np.linalg.norm(d))
        self.normal = np.array([d[1], -d[0]]) / self.length
        self.tangent = d / self.length
        self.segments = [
            _Segment(tables, t, va, 3 + loc, 2 * loc),
            _Segment(tables, t, 3 + loc, vb, 2 * loc + 1),
        ]

    def mean_normal_trace(self, space):
        """Exact face means of (basis . n), shape (9,)."""
        V = space.tables.basis_node_values[self.tri]
        total = np.zeros(9)
        for seg in self.segments:
            avg = 0.5 * (V[:, seg.n0] + V[:, seg.n1]) @ self.normal
            total += seg.length * avg
        return total / self.length


def _boundary_faces(space, tags=None):
    mesh = space.mesh
    for e in mesh.boundary_edges:
        if tags is not None and mesh.boundary_tags[e] not in tags:
            continue
        yield _Face(space, e)


def _reference_brinkman_interior(space, coeffs):
    tables = space.tables
    nt = space.mesh.num_triangles
    mu, sigma = coeffs.validate_brinkman(nt)
    builder = forms._Builder(space.n_velocity + nt)
    forms._element_block(builder, tables,
                         forms._brinkman_matrix(tables, mu, sigma))
    forms._body_force_rhs(builder, tables, coeffs.f)
    forms._coupling_and_source(builder, tables, space.n_velocity, coeffs.g)
    return builder, mu, sigma


def _reference_elasticity_interior(space, coeffs):
    tables = space.tables
    mu, lam = coeffs.validate_elasticity(space.mesh.num_triangles)
    builder = forms._Builder(space.n_velocity)
    forms._element_block(builder, tables, forms._elastic_matrix(tables, mu, lam))
    forms._body_force_rhs(builder, tables, coeffs.f)
    return builder, mu, lam


def reference_assemble_elasticity(space, coeffs, tractions=None):
    builder, _, _ = _reference_elasticity_interior(space, coeffs)
    if tractions:
        qx, qw = edge_rule(3)
        for face in _boundary_faces(space):
            spec = tractions.get(face.tag)
            if spec is None:
                continue
            for seg in face.segments:
                pts = seg.points(qx)
                tv = (
                    forms._eval_field(spec, pts)
                    if callable(spec)
                    else np.broadcast_to(np.asarray(spec, float), (len(qx), 2))
                )
                traces = seg.traces(qx)  # (9, nq, 2)
                vals = seg.length * np.einsum("q,qi,kqi->k", qw, tv, traces)
                np.add.at(builder.rhs, space.tables.loc2glob[face.tri], vals)
    return forms._reduce(space, builder)


def reference_assemble_nitsche_elasticity(space, coeffs, dirichlet_tags,
                                          g=None):
    builder, mu, lam = _reference_elasticity_interior(space, coeffs)
    tables = space.tables
    gamma = coeffs.gamma
    dirichlet_tags = set(dirichlet_tags)
    qx, qw = edge_rule(3)
    for face in _boundary_faces(space):
        t = face.tri
        n, tau = face.normal, face.tangent
        h = face.length
        mu_t = mu[t]
        l2g = tables.loc2glob[t]
        on_d = face.tag in dirichlet_tags

        mean_n = face.mean_normal_trace(space)
        # lambda-penalty on face means: (gamma/h) lam |E| mean mean
        pen_mean = (gamma / h) * lam * face.length
        builder.add(
            np.repeat(l2g, 9), np.tile(l2g, 9),
            pen_mean * np.outer(mean_n, mean_n),
        )

        mean_gn = 0.0
        for seg in face.segments:
            traces = seg.traces(qx)  # (9,nq,2)
            G = seg.grads()  # (9,2,2)
            E = 0.5 * (G + np.swapaxes(G, 1, 2))
            div = np.trace(G, axis1=1, axis2=2)
            sig_nn = 2.0 * mu_t * np.einsum("i,kij,j->k", n, E, n) + lam * div
            sig_nt = 2.0 * mu_t * np.einsum("i,kij,j->k", tau, E, n)
            tr_n = np.einsum("kqi,i->kq", traces, n)
            tr_t = np.einsum("kqi,i->kq", traces, tau)
            int_trn = seg.length * np.einsum("q,kq->k", qw, tr_n)
            int_trt = seg.length * np.einsum("q,kq->k", qw, tr_t)
            int_trn_trn = seg.length * np.einsum("q,kq,lq->kl", qw, tr_n, tr_n)
            int_trt_trt = seg.length * np.einsum("q,kq,lq->kl", qw, tr_t, tr_t)

            rows = np.repeat(l2g, 9)
            cols = np.tile(l2g, 9)
            # -c(u,v) - c(v,u), normal part on every boundary face
            cmat = np.outer(int_trn, sig_nn)  # test k trace, trial l stress
            builder.add(rows, cols, -(cmat + cmat.T))
            # mu-penalty on normal traces
            builder.add(rows, cols, (gamma / h) * mu_t * int_trn_trn)
            if on_d:
                cmat_t = np.outer(int_trt, sig_nt)
                builder.add(rows, cols, -(cmat_t + cmat_t.T))
                builder.add(rows, cols, (gamma / h) * mu_t * int_trt_trt)

            pts = seg.points(qx)
            if g is not None:
                gv = forms._eval_field(g, pts) @ n
                int_g_trn = seg.length * np.einsum("q,q,kq->k", qw, gv, tr_n)
                int_g = seg.length * float(np.einsum("q,q->", qw, gv))
                mean_gn += int_g
                np.add.at(
                    builder.rhs, l2g,
                    (gamma / h) * mu_t * int_g_trn - sig_nn * int_g,
                )
            if on_d and g is not None:
                gt_tau = forms._eval_field(g, pts) @ tau
                int_gt_trt = seg.length * np.einsum("q,q,kq->k", qw, gt_tau, tr_t)
                int_gt = seg.length * float(np.einsum("q,q->", qw, gt_tau))
                np.add.at(
                    builder.rhs, l2g,
                    (gamma / h) * mu_t * int_gt_trt - sig_nt * int_gt,
                )
        if g is not None:
            np.add.at(
                builder.rhs, l2g,
                (gamma / h) * lam * mean_gn * mean_n,
            )
    return forms._reduce(space, builder)


def reference_assemble_nitsche_brinkman_tangential(space, coeffs):
    builder, mu, _ = _reference_brinkman_interior(space, coeffs)
    tables = space.tables
    gamma = coeffs.gamma
    qx, qw = edge_rule(3)
    for face in _boundary_faces(space):
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
    return forms._reduce(space, builder, space.mesh.num_triangles)


def reference_assemble_nitsche_slip(space, coeffs, slip_tags=None):
    builder, mu, sigma = _reference_brinkman_interior(space, coeffs)
    tables = space.tables
    gamma = coeffs.gamma
    qx, qw = edge_rule(3)
    for face in _boundary_faces(space, slip_tags):
        t = face.tri
        n = face.normal
        h = face.length
        l2g = tables.loc2glob[t]
        rows = np.repeat(l2g, 9)
        cols = np.tile(l2g, 9)
        prow = space.n_velocity + t
        weight = (gamma / h) * (mu[t] + sigma[t])
        for seg in face.segments:
            traces = seg.traces(qx)
            G = seg.grads()
            dun_n = mu[t] * np.einsum("i,kij,j->k", n, G, n)  # n.(mu grad u n)
            tr_n = np.einsum("kqi,i->kq", traces, n)
            int_trn = seg.length * np.einsum("q,kq->k", qw, tr_n)
            int_trn_trn = seg.length * np.einsum("q,kq,lq->kl", qw, tr_n, tr_n)
            # -c((u,p),v): test-trace x trial-stress, and +int p (v.n)
            cmat = np.outer(int_trn, dun_n)
            builder.add(rows, cols, -cmat)
            builder.add(l2g, np.full(9, prow), int_trn)
            # -c((v,0),u): test-stress x trial-trace, no pressure column
            builder.add(rows, cols, -cmat.T)
            builder.add(rows, cols, weight * int_trn_trn)
    return forms._reduce(space, builder, space.mesh.num_triangles)


def reference_boundary_normal_norm(space, coeffs, tags=None):
    qx, qw = edge_rule(3)
    local = space.tables.local_coeffs(coeffs)
    total = 0.0
    for face in _boundary_faces(space, tags):
        for seg in face.segments:
            traces = np.einsum("k,kqi->qi", local[face.tri], seg.traces(qx))
            un = traces @ face.normal
            total += seg.length * float(np.einsum("q,q->", qw, un**2))
    return np.sqrt(total)


def assert_bitwise(system, reference):
    """Same reduced matrix (data, indices, indptr) and rhs, bit for bit."""
    a, b = system.matrix, reference.matrix
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert system.rhs.tobytes() == reference.rhs.tobytes()


def jittered_square(n, seed, jitter=0.3):
    """Unit-square grid with each interior vertex moved by up to jitter*h."""
    mesh = generate_unit_square_mesh(n)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-jitter / n, jitter / n,
                                      (int(interior.sum()), 2))
    return mesh.with_vertices(vertices)


SQUARE_TAGS = ("bottom", "right", "top", "left")
ORACLE_MESHES = {
    "square-3": lambda: generate_unit_square_mesh(3),
    "jittered-6": lambda: jittered_square(6, seed=5),
}


def _load(p):
    return np.column_stack([np.sin(3.0 * p[:, 1]), p[:, 0] ** 2 - p[:, 1]])


def _g(p):
    return np.column_stack([p[:, 1] ** 3 + np.cos(2.0 * p[:, 0]) * p[:, 1],
                            np.exp(p[:, 0]) - 1.0 + 0.25 * p[:, 0]])


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

    @pytest.mark.parametrize("tags", [SQUARE_TAGS, ("left", "top"), ()])
    @pytest.mark.parametrize("data", [False, True])
    def test_nitsche_elasticity(self, oracle_space, tags, data):
        nt = oracle_space.mesh.num_triangles
        mu = 1.0 + 0.5 * np.cos(np.arange(nt))
        coeffs = ProblemCoefficients(mu=mu, lam=40.0, gamma=12.0, f=_load)
        g = _g if data else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            system = assemble_nitsche_elasticity(
                oracle_space, coeffs, set(tags), g=g)
            reference = reference_assemble_nitsche_elasticity(
                oracle_space, coeffs, set(tags), g=g)
        assert_bitwise(system, reference)

    def test_tangential(self, oracle_space):
        mesh = oracle_space.mesh
        # zero viscosity on every other triangle next to the boundary
        mu = np.full(mesh.num_triangles, 0.7)
        first = mesh.edge_tris[mesh.boundary_edges, 0]
        mu[first[::2]] = 0.0
        coeffs = ProblemCoefficients(mu=mu, sigma=2.0, gamma=9.0, f=_load,
                                     g=lambda p: p[:, 0] - 0.5)
        assert_bitwise(
            assemble_nitsche_brinkman_tangential(oracle_space, coeffs),
            reference_assemble_nitsche_brinkman_tangential(oracle_space,
                                                           coeffs),
        )

    @pytest.mark.parametrize("slip_tags", [None, {"bottom", "right"}])
    def test_slip(self, oracle_space, slip_tags):
        nt = oracle_space.mesh.num_triangles
        coeffs = ProblemCoefficients(
            mu=1.0 + 0.1 * np.arange(nt) / nt, sigma=0.5, gamma=11.0, f=_load)
        assert_bitwise(
            assemble_nitsche_slip(oracle_space, coeffs, slip_tags=slip_tags),
            reference_assemble_nitsche_slip(oracle_space, coeffs,
                                            slip_tags=slip_tags),
        )

    @pytest.mark.parametrize("tags", [None, {"top"}, {"left", "bottom"}])
    def test_boundary_normal_norm(self, oracle_space, tags):
        u = fortin_interpolate(_load, oracle_space)
        value = boundary_normal_norm(oracle_space, u, tags)
        expected = reference_boundary_normal_norm(oracle_space, u, tags)
        assert value == pytest.approx(expected, rel=1e-13, abs=0.0)
        tangential = fortin_interpolate(
            lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
            oracle_space)
        assert reference_boundary_normal_norm(
            oracle_space, tangential, {"top", "bottom"}) == 0.0
        assert boundary_normal_norm(
            oracle_space, tangential, {"top", "bottom"}) == 0.0

    @pytest.mark.parametrize("traction", [(0.0, 6.25), _load],
                             ids=["constant", "callable"])
    def test_cook_tractions(self, traction):
        sub = subdivide(generate_cook_mesh(4), boundary_split="midpoint")
        space = build_space(sub, {"clamped": Dirichlet((0.0, 0.0)),
                                  "loaded": Free(), "traction-free": Free()})
        coeffs = ProblemCoefficients(mu=80.0, lam=1e4)
        tractions = {"loaded": traction}
        assert_bitwise(
            assemble_elasticity(space, coeffs, tractions=tractions),
            reference_assemble_elasticity(space, coeffs, tractions),
        )


# (assembler, slip tags) -> has_multiplier on the free space; the normal
# and dirichlet spaces eliminate every boundary flux, so there the
# constant pressure always lies in the kernel of the coupling block
MULTIPLIER_ON_FREE = {
    ("brinkman", None): False,
    ("tangential", None): False,
    # +int p (v.n) on every face cancels the flux of the constant pressure
    ("slip", None): True,
    # the top and left faces still let v.n through
    ("slip", ("bottom", "right")): False,
}


class TestMultiplierRule:
    """The mean-zero multiplier row is there exactly when nothing else
    fixes the pressure level."""

    @pytest.mark.parametrize("assembler, slip_tags", list(MULTIPLIER_ON_FREE))
    @pytest.mark.parametrize("mode", ["free", "normal", "dirichlet"])
    def test_has_multiplier(self, oracle_sub, mode, assembler, slip_tags):
        space = build_space(oracle_sub, mode)
        coeffs = ProblemCoefficients(mu=1.0, sigma=0.5, gamma=10.0, f=_load)
        if assembler == "brinkman":
            system = assemble_brinkman(space, coeffs)
        elif assembler == "tangential":
            system = assemble_nitsche_brinkman_tangential(space, coeffs)
        else:
            system = assemble_nitsche_slip(space, coeffs, slip_tags=slip_tags)
        expected = mode != "free" or MULTIPLIER_ON_FREE[assembler, slip_tags]
        assert system.has_multiplier is expected
        nt = space.mesh.num_triangles
        assert system.size == space.n_free_velocity + nt + int(expected)
        if expected:  # the row of int q over the domain
            row = system.matrix[system.blocks["multiplier"]]
            assert np.array_equal(row.indices,
                                  space.n_free_velocity + np.arange(nt))
            assert np.array_equal(row.data, space.tables.areas)

    def test_all_zero_coupling_is_not_a_free_level(self):
        empty = sparse.csr_matrix((5, 3))
        assert forms._constant_in_kernel(empty) is False

    def test_viscosity_sweep_takes_the_rule_of_its_whole_system(self, sub3):
        # the swept part alone couples no pressure; on a closed space the
        # system still gets the multiplier row, and the sweep at m matches
        # the assembled system at the same viscosity to rounding
        space = build_space(sub3, "dirichlet")
        nt = space.mesh.num_triangles
        swept = np.arange(nt) % 2 == 0
        coeffs = ProblemCoefficients(mu=np.where(swept, 0.0, 2.0), sigma=0.5,
                                     f=_load)
        system = forms._viscosity_sweep(space, coeffs, swept)(3.0)
        direct = assemble_brinkman(space, ProblemCoefficients(
            mu=np.where(swept, 3.0, 2.0), sigma=0.5, f=_load))
        assert system.has_multiplier and direct.has_multiplier
        assert system.size == direct.size
        assert abs(system.matrix - direct.matrix).max() <= (
            1e-13 * abs(direct.matrix).max())
        np.testing.assert_allclose(system.rhs, direct.rhs, rtol=0,
                                   atol=1e-13 * np.abs(direct.rhs).max())


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
    fv = forms._eval_field(f, pts).reshape(pts.shape)
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


# (mesh, boundary split, per-triangle (mu, sigma, f) from the subdivision)
PATCH_CASES = {
    "square-3": (ORACLE_MESHES["square-3"], "perpendicular",
                 lambda sub: _varied_fields(sub.mesh.num_triangles)),
    "jittered-6": (ORACLE_MESHES["jittered-6"], "perpendicular",
                   lambda sub: _varied_fields(sub.mesh.num_triangles)),
    "cook-4": (lambda: generate_cook_mesh(4), "midpoint",
               lambda sub: _varied_fields(sub.mesh.num_triangles)),
    "coupling-normal-8": (lambda: bench._square2_mesh(8), "perpendicular",
                          _coupling_fields("normal", 1e-6)),
    "coupling-tangential-8": (lambda: bench._square2_mesh(8),
                              "perpendicular",
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
        make_mesh, split, fields = PATCH_CASES[request.param]
        sub = subdivide(make_mesh(), boundary_split=split)
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
        "cook-48": (lambda: generate_cook_mesh(48), "midpoint",
                    lambda sub: _varied_fields(sub.mesh.num_triangles)),
    })

    @pytest.fixture(scope="class", params=sorted(CASES))
    def space(self, request):
        make_mesh, split, _ = self.CASES[request.param]
        return build_space(subdivide(make_mesh(), boundary_split=split),
                           "free")

    @pytest.mark.parametrize("lam", [0.0, 1e4])
    def test_elastic_matrices(self, space, lam):
        tables = space.tables
        nt = space.mesh.num_triangles
        mu = 1.0 + 0.5 * np.cos(np.arange(nt))
        K = forms._elastic_matrix(tables, mu, lam)
        assert _rel_max(K, reference_elastic_matrix(tables, mu, lam)) \
            <= self.TOL

    def test_basis_div(self, space):
        G = reference_basis_grads(space.tables)
        reference = np.trace(G, axis1=3, axis2=4).mean(axis=2)
        assert _rel_max(space.tables.basis_div, reference) <= self.TOL

    def test_face_grads(self, space):
        faces = forms._Faces(space, forms._tag_mask(space.mesh))
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

    @pytest.mark.parametrize("make_case", [
        bench.case_stokes,
        lambda: bench.case_darcy(mu=0.5, sigma=1.0),
        lambda: bench.case_elasticity(lam=1e3),
    ], ids=["stokes", "brinkman", "elasticity"])
    def test_error_norms(self, make_case):
        case = make_case()
        solution, *_ = bench.solve_case(case, 6)
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
        for nu in (0.3, 0.4999, 0.49999):
            problem = bench.case_cooks(nu)
            tip = bench.solve_cooks(problem, n=8)[0]
            with monkeypatch.context() as patched:
                patched.setattr(forms, "_elastic_matrix",
                                reference_elastic_matrix)
                reference = bench.solve_cooks(problem, n=8)[0]
            assert tip == pytest.approx(reference, rel=1e-8), nu


class TestBuildSpaceMemory:
    """Peak Python-traced allocation of `build_space` per macro triangle:
    the element tables and the temporaries of building them (6,520 B on
    this mesh while the per-subtriangle basis gradients were stored, about
    3,070 without them)."""

    def test_peak_per_triangle(self, peak_traced_mb):
        sub = subdivide(generate_cook_mesh(16), boundary_split="midpoint")
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
        sub = subdivide(generate_unit_square_mesh(64),
                        boundary_split="midpoint")
        space = build_space(sub, case.boundary)
        peak = peak_traced_mb(assemble_brinkman, space,
                              case.coefficients) * 2**20
        assert sub.mesh.num_triangles == 8192
        assert peak / sub.mesh.num_triangles <= 7 * 1024
