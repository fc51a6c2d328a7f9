"""Assembly of the elasticity and Brinkman forms into sparse systems.

All variational forms are integrated exactly where the integrands are
piecewise polynomial: gradient/divergence products are closed-form per
subtriangle, mass terms use a degree-2 rule, load terms a degree-4 rule,
and the pressure-velocity coupling uses the elementwise-constant divergence
times the macro area.

Every velocity basis field is P1 on the 6 subtriangles, so the Brinkman
volume terms are contracted on the 7-node patch (vertices, edge split
nodes, centroid) rather than per quadrature point. Viscous and mass terms
become one scalar 7x7 P1 patch matrix N, summed from each subtriangle's
3x3 hat-gradient and hat-mass blocks, and the element matrix is
sum_i V_i N V_i^T with V_i the i-th component of the basis values at the
patch nodes. The load is contracted the same way: the degree-4 moments of
f against each subtriangle's hats are summed per patch node, then dotted
with those basis values. The elastic term 2 mu eps:eps is a strain-matrix
contraction on the same patch: per subtriangle s the three rows (xx, yy,
sqrt(2) xy) of the symmetric gradient of a P1 vector field on the 7 nodes
(14 values) are read off the hat gradients, stacked into B (18 x 14) and
contracted with the basis values to Bv = B V^T (18 x 9); the element
matrix is Bv^T diag(2 mu a_s) Bv, a_s the subtriangle areas, plus the
lambda div div term from the constant divergences. The Brinkman and
elastic kernels and the load run over the blocks of macro triangles of
`space._blocks`, so their temporaries do not grow with the mesh. Strong
constraints are eliminated through the space's affine map (never
penalized); the symmetric-indefinite Brinkman matrix is produced by
negating the pressure test block, so the assembled matrix is
[[A, -B^T], [-B, 0]] with right-hand side [f, -g].

The system decides its pressure level: `_reduce` appends the mean-zero
multiplier row exactly when the constant pressure lies in the kernel of
the reduced velocity-pressure block, as no boundary term then fixes it.

A sweep over the viscosity of one region needs no assembly per value: the
reduced system is affine in it, and `_viscosity_sweep` assembles its two
parts once.
"""

import warnings
from functools import cached_property

import numpy as np
from scipy import sparse

from .mesh import _norm
from .quadrature import edge_rule, triangle_barycentric
from .space import (
    Dirichlet,
    NormalZero,
    _blocks,
    _eval_vec,
    _perp_out,
    _quadrature_blocks,
    cell_integrals,
)


class ConfigurationError(ValueError):
    """Inconsistent problem configuration (coefficients vs constraints, or
    study parameters out of range)."""


def _per_triangle(value, nt, name, minimum=None):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(nt, float(arr))
    if arr.shape != (nt,):
        raise ConfigurationError(
            f"{name} must be a scalar or one value per macro triangle"
        )
    if minimum is not None and arr.min() < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}")
    return arr


class ProblemCoefficients:
    """Coefficients of one problem instance.

    mu and sigma may be scalars or per-macro-triangle arrays; lam is the
    first Lame coefficient (elasticity only); gamma the Nitsche penalty;
    f and g the body force / mass source callables. A non-finite mu, lam,
    sigma or gamma is a ConfigurationError.
    """

    def __init__(self, mu, lam=None, sigma=0.0, gamma=10.0, f=None, g=None):
        self.mu = mu
        self.lam = lam
        self.sigma = sigma
        self.gamma = float(gamma)
        self.f = f
        self.g = g
        for name in ("mu", "lam", "sigma", "gamma"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")

    def fields(self, nt):
        mu = _per_triangle(self.mu, nt, "mu", minimum=0.0)
        sigma = _per_triangle(self.sigma, nt, "sigma", minimum=0.0)
        return mu, sigma

    def validate_elasticity(self, nt):
        mu, _ = self.fields(nt)
        if mu.min() <= 0:
            raise ConfigurationError("elasticity requires mu > 0")
        if self.lam is None or self.lam <= 0:
            raise ConfigurationError("elasticity requires lambda > 0")
        return mu, float(self.lam)

    def validate_brinkman(self, nt):
        mu, sigma = self.fields(nt)
        if (mu + sigma).min() <= 0:
            raise ConfigurationError("Brinkman requires mu + sigma > 0")
        return mu, sigma


class SaddleSystem:
    """Reduced sparse system with dof-block bookkeeping.

    `matrix`/`rhs` live in the reduced numbering (constraints eliminated);
    `blocks` maps velocity/pressure/multiplier to slices of it. `expand`
    recovers the full velocity coefficients and the pressure vector.
    """

    def __init__(self, space, matrix, rhs, n_pressure, has_multiplier):
        self.space = space
        self.matrix = matrix.tocsr()
        self.rhs = rhs
        nfu = space.n_free_velocity
        self.blocks = {
            "velocity": slice(0, nfu),
            "pressure": slice(nfu, nfu + n_pressure),
            "multiplier": slice(nfu + n_pressure,
                                nfu + n_pressure + int(has_multiplier)),
        }
        self.n_pressure = n_pressure
        self.has_multiplier = has_multiplier

    @property
    def size(self):
        return self.matrix.shape[0]

    def expand(self, x):
        """Split a reduced solution into full velocity coefficients, the
        pressure vector and the multiplier value (or None)."""
        space = self.space
        u = space.expand_velocity(x[self.blocks["velocity"]])
        p = x[self.blocks["pressure"]] if self.n_pressure else None
        m = float(x[self.blocks["multiplier"]][0]) if self.has_multiplier else None
        return u, p, m


class _Builder:
    """COO accumulator in fixed insertion order (deterministic sums)."""

    def __init__(self, size):
        self.rows, self.cols, self.vals = [], [], []
        self.rhs = np.zeros(size)

    def add(self, rows, cols, vals):
        self.rows.append(np.asarray(rows, dtype=np.int64).ravel())
        self.cols.append(np.asarray(cols, dtype=np.int64).ravel())
        self.vals.append(np.asarray(vals, dtype=float).ravel())

    def matrix(self):
        size = len(self.rhs)
        coo = sparse.coo_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=(size, size),
        )
        return coo.tocsr()

    def coupling(self, n_vel):
        """The entries so far in velocity rows (below n_vel) and pressure
        columns (from n_vel on), as that block in CSR."""
        keep = [(r < n_vel) & (c >= n_vel)
                for r, c in zip(self.rows, self.cols)]
        r, c, v = (np.concatenate([a[k] for a, k in zip(arrays, keep)])
                   for arrays in (self.rows, self.cols, self.vals))
        return sparse.csr_matrix((v, (r, c - n_vel)),
                                 shape=(n_vel, len(self.rhs) - n_vel))


def _element_block(builder, tables, local_mats, cells=slice(None)):
    """Add the element matrices (nt, 9, 9) of the macro triangles `cells`."""
    l2g = tables.loc2glob[cells]  # (nt,9)
    rows = np.repeat(l2g[:, :, None], 9, axis=2)
    cols = np.repeat(l2g[:, None, :], 9, axis=1)
    builder.add(rows, cols, local_mats[cells])


def _eval_field(fn, points):
    pts = points.reshape(-1, 2)
    return np.asarray(fn(pts), dtype=float)


def _patch_sum(values, slots, size):
    """Sum per-subtriangle values (nt, 6, m, ...) into `size` patch slots:
    entry j of subtriangle s adds into slot slots[s, j]."""
    out = np.zeros((len(values), size) + values.shape[3:])
    for s, into in enumerate(slots):
        out[:, into] += values[:, s]
    return out


def _body_force_rhs(builder, tables, f):
    """Load sum_a V[k, a] . F_a, contracted on the patch: F_a is the
    degree-4 integral of f times the hat of patch node a. Each block of
    macro triangles is scattered in triangle order."""
    if f is None:
        return
    bary, wts = triangle_barycentric(4)
    for block, pts in _quadrature_blocks(tables, 4):
        fv = _eval_field(f, pts).reshape(pts.shape)
        corner_moments = (2.0 * tables.sub_areas[block, :, None, None]) * (
            (wts * bary.T) @ fv
        )
        F = _patch_sum(corner_moments, tables.subdiv.SUBTRIANGLES, 7)
        loc = np.einsum("tkai,tai->tk", tables.basis_node_values[block], F)
        np.add.at(builder.rhs, tables.loc2glob[block], loc)


def _brinkman_matrix(tables, mu, sigma):
    """Element matrices (nt, 9, 9) of mu grad:grad + sigma u.v, as
    sum_i V_i N V_i^T over the 7-node patch (see the module docstring)."""
    bary, wts = triangle_barycentric(2)
    mass = 2.0 * np.einsum("q,qc,qd->cd", wts, bary, bary)
    sub = tables.subdiv.SUBTRIANGLES
    pairs = (7 * sub[:, :, None] + sub[:, None, :]).reshape(6, 9)
    nt = len(tables.areas)
    K = np.empty((nt, 9, 9))
    for c in _blocks(nt):
        grads, a = tables.hat_grads[c], tables.sub_areas[c]  # (b,6,3,2)
        blocks = (mu[c, None] * a)[..., None, None] * (
            grads @ np.swapaxes(grads, -1, -2)
        ) + (sigma[c, None] * a)[..., None, None] * mass
        N = _patch_sum(blocks.reshape(-1, 6, 9), pairs, 49)
        V = np.moveaxis(tables.basis_node_values[c], 3, 1)  # (b,2,9,7)
        K[c] = (V @ N.reshape(-1, 1, 7, 7) @ np.swapaxes(V, -1, -2)).sum(1)
    return K


def _elastic_matrix(tables, mu, lam):
    """Element matrices (nt, 9, 9) of 2 mu eps:eps + lambda div div, the
    first as the strain-matrix contraction Bv^T diag(2 mu a_s) Bv of the
    module docstring."""
    # B[3s + r, 2a + i]: strain component r (xx, yy, sqrt(2) xy) on
    # subtriangle s of the P1 field with component i at patch node a
    rows = 3 * np.arange(6)[:, None, None] + np.array([0, 1, 2, 2])
    cols = 2 * tables.subdiv.SUBTRIANGLES[:, :, None] + np.array([0, 1, 0, 1])
    scale = np.array([1.0, 1.0, np.sqrt(0.5), np.sqrt(0.5)])
    nt = len(tables.areas)
    K = np.empty((nt, 9, 9))
    for c in _blocks(nt):
        V = tables.basis_node_values[c]
        B = np.zeros((len(V), 18, 14))
        B[:, rows, cols] = tables.hat_grads[c][..., [0, 1, 1, 0]] * scale
        Bv = B @ np.swapaxes(V.reshape(len(V), 9, 14), 1, 2)
        w = np.repeat(2.0 * mu[c, None] * tables.sub_areas[c], 3, axis=1)
        K[c] = np.swapaxes(Bv, 1, 2) @ (w[..., None] * Bv)
    D = tables.basis_div
    K += lam * np.einsum("t,tk,tl->tkl", tables.areas, D, D)
    return K


def _coupling_and_source(builder, tables, n_vel, g, fold_sign=-1.0):
    """-B blocks (folded sign) and the -int g q right-hand side."""
    nt = tables.loc2glob.shape[0]
    D = tables.basis_div * tables.areas[:, None]  # (nt,9): b(1_T, psi_k)
    prows = n_vel + np.repeat(np.arange(nt), 9)
    ucols = tables.loc2glob.ravel()
    builder.add(prows, ucols, fold_sign * D.ravel())
    builder.add(ucols, prows, fold_sign * D.ravel())
    if g is not None:
        ints = cell_integrals(g, tables)
        builder.rhs[n_vel : n_vel + nt] += fold_sign * ints


def _constant_in_kernel(C):
    """True when the constant pressure lies in the kernel of the
    velocity-pressure block C (up to rounding). A block without entries
    couples no pressure and gives False."""
    ones = np.ones(C.shape[1])
    scale = (abs(C) @ ones).max(initial=0.0)
    return bool(scale > 0 and np.abs(C @ ones).max() <= 1e-10 * scale)


def _reduce(space, builder, n_pressure=0):
    """Eliminate the strong constraints: S^T (K S x + K lift) = S^T b.
    The multiplier row and column (the macro areas) are appended, before
    any CSR is built, when `_constant_in_kernel` holds for C^T B, with B
    the builder's velocity-pressure block."""
    C = space.constraint
    n_vel = space.n_velocity
    has_multiplier = bool(n_pressure) and _constant_in_kernel(
        C.T @ builder.coupling(n_vel))
    if has_multiplier:
        prows, mrow = n_vel + np.arange(n_pressure), n_vel + n_pressure
        builder.add(prows, np.full(n_pressure, mrow), space.tables.areas)
        builder.add(np.full(n_pressure, mrow), prows, space.tables.areas)
        builder.rhs = np.append(builder.rhs, 0.0)
    K = builder.matrix()
    b = builder.rhs
    n_extra = n_pressure + int(has_multiplier)
    S = sparse.block_diag(
        [C, sparse.identity(n_extra, format="csr")], format="csr"
    ) if n_extra else C.tocsr()
    z0 = np.zeros(K.shape[0])
    z0[:n_vel] = space.lift
    if space.lift.any():
        b = b - K @ z0
    K_red = (S.T @ K @ S).tocsr()
    b_red = S.T @ b
    return SaddleSystem(space, K_red, b_red, n_pressure, has_multiplier)


def _elasticity_interior(space, coeffs):
    """Validated (mu, lam) and a builder holding the volume terms: the
    2 mu sym-grad : sym-grad + lambda div div block and the body load."""
    tables = space.tables
    mu, lam = coeffs.validate_elasticity(space.mesh.num_triangles)
    builder = _Builder(space.n_velocity)
    _element_block(builder, tables, _elastic_matrix(tables, mu, lam))
    _body_force_rhs(builder, tables, coeffs.f)
    return builder, mu, lam


def _brinkman_interior(space, coeffs):
    """Validated (mu, sigma) and a builder holding the volume terms: the
    viscous + mass block, the body load and the pressure coupling with its
    source."""
    tables = space.tables
    nt = space.mesh.num_triangles
    mu, sigma = coeffs.validate_brinkman(nt)
    builder = _Builder(space.n_velocity + nt)
    _element_block(builder, tables, _brinkman_matrix(tables, mu, sigma))
    _body_force_rhs(builder, tables, coeffs.f)
    _coupling_and_source(builder, tables, space.n_velocity, coeffs.g)
    return builder, mu, sigma


def assemble_elasticity(space, coeffs, tractions=None):
    """Linear elasticity velocity block: int 2 mu sym-grad : sym-grad +
    lambda div div, with body load and optional boundary tractions
    (dict tag -> callable or constant traction density)."""
    builder, _, _ = _elasticity_interior(space, coeffs)
    if tractions:
        _traction_rhs(builder, space, tractions)
    return _reduce(space, builder)


def assemble_brinkman(space, coeffs):
    """Brinkman saddle system (Stokes for sigma=0, Darcy for mu=0)."""
    builder, mu, _ = _brinkman_interior(space, coeffs)
    _check_viscous_constraints(space, mu)
    return _reduce(space, builder, space.mesh.num_triangles)


def _check_viscous_constraints(space, mu):
    """Reject mu = 0 anywhere on a space with full Dirichlet constraints."""
    if mu.min() == 0.0 and any(
        isinstance(bc, Dirichlet) for bc in space.bc.values()
    ):
        raise ConfigurationError(
            "mu = 0 with full Dirichlet constraints is ill-posed; use "
            "normal-only (NormalZero) constraints there"
        )


def _viscosity_sweep(space, coeffs, swept):
    """Reduced Brinkman systems of `coeffs` with the viscosity on the
    macro triangles `swept` (a boolean mask) replaced by a sweep value m:
    returns the map m -> SaddleSystem.

    mu enters the forms linearly, the lift term too, so the system at m is
    S_rest + m S_swept, matrix and right-hand side alike. S_rest is the
    whole system with mu = 0 on `swept`; S_swept the unit viscous term on
    `swept` alone (no load, no pressure coupling, no mass). Both are
    assembled and reduced once; each m is checked as `assemble_brinkman`
    checks its coefficients and costs one sparse sum; the multiplier row,
    if any, is S_rest's. The values agree with `assemble_brinkman` at the
    same coefficients to rounding, not bit for bit."""
    tables = space.tables
    nt, n_vel = space.mesh.num_triangles, space.n_velocity
    mu, sigma = coeffs.fields(nt)
    # the smaller part first: its reduced form is what stays alive while
    # the other one is assembled
    unit = _Builder(n_vel + nt)
    _element_block(unit, tables,
                   _brinkman_matrix(tables, swept.astype(float), np.zeros(nt)),
                   swept)
    unit = _reduce(space, unit, nt)
    rest = _Builder(n_vel + nt)
    _element_block(rest, tables,
                   _brinkman_matrix(tables, np.where(swept, 0.0, mu), sigma))
    _body_force_rhs(rest, tables, coeffs.f)
    _coupling_and_source(rest, tables, n_vel, coeffs.g)
    rest = _reduce(space, rest, nt)
    unit_rhs = np.pad(unit.rhs, (0, rest.size - unit.size))
    unit.matrix.resize(rest.matrix.shape)

    def system(m):
        at_m = ProblemCoefficients(mu=np.where(swept, m, mu), sigma=sigma)
        _check_viscous_constraints(space, at_m.validate_brinkman(nt)[0])
        return SaddleSystem(space, rest.matrix + m * unit.matrix,
                            rest.rhs + m * unit_rhs, nt, rest.has_multiplier)

    return system


def _tag_mask(mesh, tags=None):
    """Mask over `mesh.boundary_edges` of the edges tagged with one of
    `tags` (all of them for None)."""
    found = np.asarray(mesh.boundary_tags, dtype=object)[mesh.boundary_edges]
    if tags is None:
        return np.full(len(found), True)
    return np.isin(found, list(tags))


class _Faces:
    """Batched boundary faces, in `mesh.boundary_edges` order.

    Every face selected by `keep` (a boolean mask over the boundary edges)
    is traced from its one triangle as two halves, vertex to split node and
    split node to vertex, each backed by the child subtriangle on it.
    Per face: `tri`, `l2g` (nf, 9), `tag`, length `h`, unit `normal` and
    `tangent` (nf, 2). Per face and half: `length` (nf, 2), quadrature
    `points` (nf, 2, nq, 2) and basis `traces` (nf, 2, 9, nq, 2).
    `end_values` (nf, 3, 9, 2) holds the basis values at the ends of the
    two halves. The basis `grads` (nf, 2, 9, 2, 2) on the child
    subtriangles are formed on first use, by the Nitsche assemblers only.

    Lengths come from `_norm`, which is bit-identical to np.linalg.norm of
    each row, and every contraction keeps the per-face einsum subscripts
    with a leading face (and half) index, so each value equals the one a
    loop over faces computes.
    """

    def __init__(self, space, keep):
        mesh, tables = space.mesh, space.tables
        self.tables = tables
        edges = mesh.boundary_edges[keep]
        self.tag = np.asarray(mesh.boundary_tags, dtype=object)[edges]
        self.tri = mesh.edge_tris[edges, 0]
        self.l2g = tables.loc2glob[self.tri]
        loc = np.argmax(mesh.tri_edges[self.tri] == edges[:, None], axis=1)
        ends = np.stack([(loc + 1) % 3, 3 + loc, (loc + 2) % 3], axis=1)
        p = np.take_along_axis(tables.nodes[self.tri], ends[..., None], 1)
        d = p[:, 2] - p[:, 0]
        self.h = _norm(d)
        self.normal = _perp_out(d) / self.h[:, None]
        self.tangent = d / self.h[:, None]

        half = p[:, 1:] - p[:, :2]
        self.length = _norm(half.reshape(-1, 2)).reshape(-1, 2)
        qx, self.qw = edge_rule(3)
        self.points = p[:, :2, None, :] + qx[:, None] * half[:, :, None, :]
        V = np.take_along_axis(
            tables.basis_node_values[self.tri], ends[:, None, :, None], axis=2
        )
        V = self.end_values = np.swapaxes(V, 1, 2)  # (nf, 3, 9, 2)
        self.traces = (
            V[:, :2, :, None, :] * (1.0 - qx)[:, None]
            + V[:, 1:, :, None, :] * qx[:, None]
        )
        self.child = 2 * loc[:, None] + np.arange(2)

    @cached_property
    def grads(self):
        return self.tables.basis_gradients(self.tri[:, None], self.child)

    def along(self, direction):
        """Basis traces dotted with a per-face direction: (nf, 2, 9, nq)."""
        return np.einsum("fskqi,fi->fskq", self.traces, direction)

    def integrals(self, tr):
        """Integrals of tr (nf, 2, 9, nq) and of its outer products over
        each half: (nf, 2, 9) and (nf, 2, 9, 9)."""
        L, qw = self.length, self.qw
        return (
            L[..., None] * np.einsum("q,fskq->fsk", qw, tr),
            L[..., None, None] * np.einsum("q,fskq,fslq->fskl", qw, tr, tr),
        )

    def moments(self, g, tr):
        """Integrals of g tr and of g over each half, for values g
        (nf, 2, nq) at the quadrature points: (nf, 2, 9) and (nf, 2)."""
        L, qw = self.length, self.qw
        return (
            L[..., None] * np.einsum("q,fsq,fskq->fsk", qw, g, tr),
            L * np.einsum("q,fsq->fs", qw, g),
        )


def _sandwich(a, M, b):
    """a . M b per face, half and basis field: (nf, 2, 9)."""
    return np.einsum("fi,fskij,fj->fsk", a, M, b)


def _outer(x, y):
    """Per-(face, half) outer products x y^T of (nf, 2, 9) arrays."""
    return x[..., :, None] * y[..., None, :]


def _add_face_blocks(builder, faces, blocks, keep=None):
    """Add local (nf, nb, 9, 9) blocks face by face, then block by block:
    the builder's insertion order fixes the order in which duplicates sum.
    `keep` (nf, nb) drops the blocks a face does not have."""
    rows = np.broadcast_to(faces.l2g[:, None, :, None], blocks.shape)
    cols = np.broadcast_to(faces.l2g[:, None, None, :], blocks.shape)
    if keep is not None:
        rows, cols, blocks = rows[keep], cols[keep], blocks[keep]
    builder.add(rows, cols, blocks)


def _add_face_rhs(builder, faces, vals, keep=None):
    """np.add.at of local (nf, nb, 9) loads, face by face, then block by
    block, so every right-hand-side entry sums in the same order."""
    idx = np.broadcast_to(faces.l2g[:, None, :], vals.shape)
    if keep is not None:
        idx, vals = idx[keep], vals[keep]
    np.add.at(builder.rhs, idx, vals)


def _traction_rhs(builder, space, tractions):
    loaded = [tag for tag, spec in tractions.items() if spec is not None]
    faces = _Faces(space, _tag_mask(space.mesh, loaded))
    density = np.empty(faces.points.shape)
    for tag in np.unique(faces.tag):
        spec = tractions[tag]
        on = faces.tag == tag
        pts = faces.points[on]
        density[on] = _eval_vec(spec, pts.reshape(-1, 2)).reshape(pts.shape)
    vals = faces.length[..., None] * np.einsum(
        "q,fsqi,fskqi->fsk", faces.qw, density, faces.traces
    )
    _add_face_rhs(builder, faces, vals)


def assemble_nitsche_elasticity(space, coeffs, dirichlet_tags, g=None):
    """Elasticity with weak boundary conditions: u.n = g.n prescribed on the
    whole boundary, u.t = g.t on `dirichlet_tags` and traction-free
    elsewhere, for the boundary displacement g (zero for None).

    Adds -c(u,v) - c(v,u) + s(u,v) with the lambda part of the normal
    penalty acting on face means (the piecewise-constant trace projection),
    and the data terms of g.n and of g.t on the Dirichlet part, both taken
    with each face's unit normal and tangent.
    """
    builder, mu, lam = _elasticity_interior(space, coeffs)
    dirichlet_tags = set(dirichlet_tags)
    if not dirichlet_tags:
        warnings.warn(
            "Nitsche elasticity without a tangential Dirichlet part may "
            "leave a rigid-motion nullspace"
        )

    faces = _Faces(space, _tag_mask(space.mesh))
    nf, L, h = len(faces.tri), faces.length, faces.h
    n, tau = faces.normal, faces.tangent
    on_d = np.isin(faces.tag, list(dirichlet_tags))
    pen = coeffs.gamma / h
    mu_t = mu[faces.tri]
    pen_mu = (pen * mu_t)[:, None, None]

    G = faces.grads
    E = 0.5 * (G + np.swapaxes(G, -1, -2))
    div = np.trace(G, axis1=-2, axis2=-1)
    two_mu = (2.0 * mu_t)[:, None, None]
    sig_nn = two_mu * _sandwich(n, E, n) + lam * div
    sig_nt = two_mu * _sandwich(tau, E, n)
    tr_n, tr_t = faces.along(n), faces.along(tau)
    int_trn, int_trn_trn = faces.integrals(tr_n)
    int_trt, int_trt_trt = faces.integrals(tr_t)

    # exact face means of (basis . n), the running sum starting at 0.0
    V = faces.end_values
    avg = ((0.5 * (V[:, :2] + V[:, 1:])) @ n[:, None, :, None])[..., 0]
    mean_n = (0.0 + L[:, :1] * avg[:, 0] + L[:, 1:] * avg[:, 1]) / h[:, None]

    # per face: the lambda-penalty on face means (gamma/h) lam |E| mean mean;
    # per half: -c(u,v) - c(v,u) and the mu-penalty on normal traces, then
    # the same two tangential terms on the Dirichlet part
    cmat_n = _outer(int_trn, sig_nn)  # test k trace, trial l stress
    cmat_t = _outer(int_trt, sig_nt)
    halves = np.stack([
        -(cmat_n + np.swapaxes(cmat_n, -1, -2)),
        pen_mu[..., None] * int_trn_trn,
        -(cmat_t + np.swapaxes(cmat_t, -1, -2)),
        pen_mu[..., None] * int_trt_trt,
    ], axis=2).reshape(nf, 8, 9, 9)
    means = (pen * lam * h)[:, None, None] * _outer(mean_n, mean_n)
    keep = np.ones((nf, 9), dtype=bool)
    keep[:, [3, 4, 7, 8]] = on_d[:, None]
    blocks = np.concatenate([means[:, None], halves], axis=1)
    _add_face_blocks(builder, faces, blocks, keep)

    # loads: per half g.n then g.t (Dirichlet part), then the face-mean g.n
    if g is not None:
        gv = _eval_field(g, faces.points).reshape(faces.points.shape)
        g_n = (gv @ n[:, None, :, None])[..., 0]
        g_t = (gv @ tau[:, None, :, None])[..., 0]
        int_gn_trn, int_gn = faces.moments(g_n, tr_n)
        int_gt_trt, int_gt = faces.moments(g_t, tr_t)
        rhs = np.zeros((nf, 5, 9))
        rhs[:, 0:4:2] = pen_mu * int_gn_trn - sig_nn * int_gn[..., None]
        rhs[:, 1:4:2] = pen_mu * int_gt_trt - sig_nt * int_gt[..., None]
        mean_gn = 0.0 + int_gn[:, 0] + int_gn[:, 1]
        rhs[:, 4] = (pen * lam * mean_gn)[:, None] * mean_n
        keep = np.ones((nf, 5), dtype=bool)
        keep[:, 1:4:2] = on_d[:, None]
        _add_face_rhs(builder, faces, rhs, keep)
    return _reduce(space, builder)


def assemble_nitsche_brinkman_tangential(space, coeffs):
    """Brinkman with strong normal / weak tangential boundary conditions.

    Adds -m(u,v) - m(v,u) + s(u,v) on the normal-constrained boundary
    faces; for mu = 0 every added term vanishes, so the Darcy limit is the
    plain saddle system on the constrained space.
    """
    builder, mu, _ = _brinkman_interior(space, coeffs)
    mesh = space.mesh
    tags = [tag for tag, bc in space.bc.items() if isinstance(bc, NormalZero)]
    viscous = mu[mesh.edge_tris[mesh.boundary_edges, 0]] != 0.0
    faces = _Faces(space, _tag_mask(mesh, tags) & viscous)
    mu_t = mu[faces.tri]
    n, tau = faces.normal, faces.tangent
    # t.(mu grad u n)
    dun_t = mu_t[:, None, None] * _sandwich(tau, faces.grads, n)
    int_trt, int_trt_trt = faces.integrals(faces.along(tau))
    cmat = _outer(int_trt, dun_t)
    pen_mu = (coeffs.gamma / faces.h) * mu_t
    halves = np.stack([
        -(cmat + np.swapaxes(cmat, -1, -2)),
        pen_mu[:, None, None, None] * int_trt_trt,
    ], axis=2)
    _add_face_blocks(builder, faces, halves.reshape(len(faces.tri), 4, 9, 9))
    return _reduce(space, builder, mesh.num_triangles)


def assemble_nitsche_slip(space, coeffs, slip_tags=None):
    """Brinkman with pure slip conditions imposed weakly on the normal
    component on the faces tagged `slip_tags` (all for None):
    A_B - c((u,p),v) - c((v,0),u) + s(u,v) with penalty weight
    (gamma/h)(mu + sigma).

    The pressure test function is deliberately absent from the second
    c-form, which keeps per-triangle mass conservation exact but makes the
    matrix non-symmetric in the pressure / boundary-velocity coupling.
    Slipped on every face, a free space leaves the pressure level free.
    """
    builder, mu, sigma = _brinkman_interior(space, coeffs)
    faces = _Faces(space, _tag_mask(space.mesh, slip_tags))
    nf, t, n = len(faces.tri), faces.tri, faces.normal
    # n.(mu grad u n)
    dun_n = mu[t][:, None, None] * _sandwich(n, faces.grads, n)
    int_trn, int_trn_trn = faces.integrals(faces.along(n))
    cmat = _outer(int_trn, dun_n)
    weight = (coeffs.gamma / faces.h) * (mu[t] + sigma[t])

    # per half: -c((u,p),v) as test-trace x trial-stress and +int p (v.n),
    # then -c((v,0),u) as test-stress x trial-trace (no pressure column),
    # then the penalty
    block, half = (nf, 2, 81), (nf, 2, 9, 9)
    rows = np.broadcast_to(faces.l2g[:, None, :, None], half).reshape(block)
    cols = np.broadcast_to(faces.l2g[:, None, None, :], half).reshape(block)
    l2g = np.broadcast_to(faces.l2g[:, None, :], (nf, 2, 9))
    prow = np.broadcast_to((space.n_velocity + t)[:, None, None], (nf, 2, 9))
    builder.add(
        np.concatenate([rows, l2g, rows, rows], axis=-1),
        np.concatenate([cols, prow, cols, cols], axis=-1),
        np.concatenate([
            (-cmat).reshape(block),
            int_trn,
            (-np.swapaxes(cmat, -1, -2)).reshape(block),
            (weight[:, None, None, None] * int_trn_trn).reshape(block),
        ], axis=-1),
    )
    return _reduce(space, builder, space.mesh.num_triangles)


def boundary_normal_norm(space, coeffs, tags=None):
    """L2 norm of the velocity's normal trace over the (tagged) boundary."""
    faces = _Faces(space, _tag_mask(space.mesh, tags))
    local = space.tables.local_coeffs(coeffs)[faces.tri]
    traces = np.einsum("fk,fskqi->fsqi", local, faces.traces)
    un = (traces @ faces.normal[:, None, :, None])[..., 0]
    return np.sqrt(np.sum(faces.length * np.einsum("q,fsq->fs", faces.qw,
                                                   un**2)))
