"""Assembly of the elasticity and Brinkman forms into sparse systems.

All variational forms are integrated exactly where the integrands are
piecewise polynomial: gradient/divergence products are closed-form per
subtriangle, mass terms use the P1 hat mass |T| (1 + delta_cd) / 12, load
terms a degree-4 rule, and the pressure-velocity coupling is B, the
space's `divergence_block`: the elementwise-constant divergence times the
macro area, built once per space. No assembler scatters B.

Every velocity basis field is P1 on the 6 subtriangles, so the Brinkman
volume terms are contracted on the 7-node patch (vertices, edge split
nodes, interior node) rather than per quadrature point. Viscous and mass terms
become one scalar 7x7 P1 patch matrix N, summed from each subtriangle's
3x3 hat-gradient and hat-mass blocks, and the element matrix is
sum_i V_i N V_i^T with V_i the i-th component of the basis values at the
patch nodes. The load is contracted the same way: the degree-4 moments of
f against each subtriangle's hats are summed per patch node, then dotted
with those basis values. The elastic term 2 mu eps:eps is a strain-matrix
contraction on the same patch: per subtriangle s the three rows (xx, yy,
sqrt(2) xy) of the symmetric gradient of a P1 vector field on the 7 nodes
(14 values) are read off the hat gradients, stacked into E (18 x 14) and
contracted with the basis values to Ev = E V^T (18 x 9); the element
matrix is Ev^T diag(2 mu a_s) Ev, a_s the subtriangle areas. The Brinkman
and elastic kernels and the load run over the blocks of macro triangles
of `space._blocks`, so their temporaries do not grow with the mesh.

div V_h is the P0 pressure space exactly, so the lambda div div term is
lambda B^T W^-1 B with W = diag(|T|), whatever the Poisson ratio: it is
added to the reduced 2 mu eps:eps block, and `_lame_sweep` assembles the
unit-mu block and B^T W^-1 B once for a whole sweep of scalar Lame
coefficients.

Every assembler is its model's interior, its boundary terms and `_reduce`,
then `_saddle` for the flow models.
Local (..., 9, 9) blocks and local loads enter through one scatter each,
`_Builder.add_blocks` and `_Builder.add_loads`, in a fixed order, so every
sum is deterministic. Elasticity takes its boundary conditions strongly,
in the space, plus tractions; the one Nitsche term, -c(u,v) - c(v,u) +
penalty, is the tangential Brinkman one, which its assembler builds on the
faces of `_Faces`. mu = 0 with a Dirichlet side is ill-posed, and every
Brinkman assembler and sweep value refuses it (`_brinkman_fields`).
Strong constraints are eliminated through the space's affine map (never
penalized); `_saddle` stacks the reduced velocity block A and B into the
Brinkman matrix [[A, -B^T], [-B, 0]] with right-hand side [f, -g]. No row
fixes the pressure level: where no boundary term fixes it, `mce.solve`
does. The reduced system is affine in the viscosity of one region, so
`_viscosity_sweep` assembles its two parts once, not once per value.
"""

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
    _quadrature_blocks,
    cell_integrals,
)


class ConfigurationError(ValueError):
    """Inconsistent problem configuration (coefficients vs constraints, or
    study parameters out of range)."""


def _per_triangle(value, nt, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(nt, float(arr))
    if arr.shape != (nt,):
        raise ConfigurationError(
            f"{name} must be a scalar or one value per macro triangle"
        )
    if arr.min() < 0.0:
        raise ConfigurationError(f"{name} must be >= 0.0")
    return arr


class ProblemCoefficients:
    """Coefficients of one problem instance.

    mu and sigma may be scalars or per-macro-triangle arrays; lam is the
    first Lame coefficient (elasticity only); gamma the Nitsche penalty;
    f the body force, a callable or a constant pair, and g the mass source
    callable, each None where absent. A non-finite mu, lam, sigma or gamma
    is a ConfigurationError; each assembler checks the rest of its model's
    coefficients.
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
        mu = _per_triangle(self.mu, nt, "mu")
        sigma = _per_triangle(self.sigma, nt, "sigma")
        return mu, sigma


class SaddleSystem:
    """Reduced sparse system with dof-block bookkeeping.

    `matrix`/`rhs` live in the reduced numbering (constraints eliminated),
    n_free_velocity + n_pressure rows: no row fixes the pressure level,
    `mce.solve` does where no boundary term does. `blocks` maps velocity
    and pressure to slices of it. `expand` recovers the full velocity
    coefficients and the pressure vector.
    """

    def __init__(self, space, matrix, rhs, n_pressure):
        self.space = space
        self.matrix = matrix.tocsr()
        self.rhs = rhs
        nfu = space.n_free_velocity
        self.blocks = {
            "velocity": slice(0, nfu),
            "pressure": slice(nfu, nfu + n_pressure),
        }
        self.n_pressure = n_pressure

    @property
    def size(self):
        return self.matrix.shape[0]

    def expand(self, x):
        """Split a reduced solution into full velocity coefficients, the
        pressure vector (or None) and None: callers unpack three values."""
        u = self.space.expand_velocity(x[self.blocks["velocity"]])
        p = x[self.blocks["pressure"]] if self.n_pressure else None
        return u, p, None


class _Builder:
    """COO accumulator in fixed insertion order (deterministic sums)."""

    def __init__(self, size):
        self.rows, self.cols, self.vals = [], [], []
        self.rhs = np.zeros(size)

    def add(self, rows, cols, vals):
        self.rows.append(np.asarray(rows, dtype=np.int64).ravel())
        self.cols.append(np.asarray(cols, dtype=np.int64).ravel())
        self.vals.append(np.asarray(vals, dtype=float).ravel())

    def add_blocks(self, l2g, blocks, keep=None):
        """Add local (..., 9, 9) blocks at the dofs l2g (..., 9), which
        broadcast over the leading axes, in their C order: the insertion
        order fixes the order in which duplicates sum. `keep`, a mask over
        the leading axes, drops the blocks outside it."""
        rows = np.broadcast_to(l2g[..., :, None], blocks.shape)
        cols = np.broadcast_to(l2g[..., None, :], blocks.shape)
        if keep is not None:
            rows, cols, blocks = rows[keep], cols[keep], blocks[keep]
        self.add(rows, cols, blocks)

    def add_loads(self, l2g, loads):
        """np.add.at of local (..., 9) loads into the right-hand side, at
        the dofs and in the order of `add_blocks`."""
        np.add.at(self.rhs, np.broadcast_to(l2g, loads.shape), loads)

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
        fv = _eval_vec(f, pts)
        corner_moments = (2.0 * tables.sub_areas[block, :, None, None]) * (
            (wts * bary.T) @ fv
        )
        F = _patch_sum(corner_moments, tables.subdiv.SUBTRIANGLES, 7)
        loc = np.einsum("tkai,tai->tk", tables.basis_node_values[block], F)
        builder.add_loads(tables.loc2glob[block], loc)


def _brinkman_matrix(tables, mu, sigma):
    """Element matrices (nt, 9, 9) of mu grad:grad + sigma u.v, as
    sum_i V_i N V_i^T over the 7-node patch (see the module docstring)."""
    mass = (1.0 + np.eye(3)) / 12.0  # P1 hat mass on a unit-area triangle
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


def _elastic_matrix(tables, mu):
    """Element matrices (nt, 9, 9) of 2 mu eps:eps, the strain-matrix
    contraction Ev^T diag(2 mu a_s) Ev of the module docstring."""
    # E[3s + r, 2a + i]: strain component r (xx, yy, sqrt(2) xy) on
    # subtriangle s of the P1 field with component i at patch node a
    rows = 3 * np.arange(6)[:, None, None] + np.array([0, 1, 2, 2])
    cols = 2 * tables.subdiv.SUBTRIANGLES[:, :, None] + np.array([0, 1, 0, 1])
    scale = np.array([1.0, 1.0, np.sqrt(0.5), np.sqrt(0.5)])
    nt = len(tables.areas)
    K = np.empty((nt, 9, 9))
    for c in _blocks(nt):
        V = tables.basis_node_values[c]
        E = np.zeros((len(V), 18, 14))
        E[:, rows, cols] = tables.hat_grads[c][..., [0, 1, 1, 0]] * scale
        Ev = E @ np.swapaxes(V.reshape(len(V), 9, 14), 1, 2)
        w = np.repeat(2.0 * mu[c, None] * tables.sub_areas[c], 3, axis=1)
        K[c] = np.swapaxes(Ev, 1, 2) @ (w[..., None] * Ev)
    return K


def _reduce(space, builder):
    """Eliminate the strong constraints from a velocity builder: the
    reduced block C^T K C and load C^T (b - K lift)."""
    C = space.constraint
    K, b = builder.matrix(), builder.rhs
    if space.lift.any():
        b = b - K @ space.lift
    # C^T is CSC; as CSR it multiplies K without a CSC copy of K
    return C.T.tocsr() @ K @ C, C.T @ b


def _lift_flux(space):
    """The flux |T| div lift of the lifted boundary data out of each macro
    triangle: B_full lift, B_full the velocity-pressure block on every
    velocity dof, before the constraint reduces it."""
    tables = space.tables
    return tables.areas * tables.field_divergence(space.lift)


def _saddle(space, builder, g=None):
    """The reduced Brinkman system of a velocity builder: [[A, -B^T],
    [-B, 0]] with A the reduced velocity block and B the space's
    `divergence_block`, right-hand side [f, B_full lift - int g q]."""
    A, f = _reduce(space, builder)
    B = space.divergence_block
    (nt, nfu), Bt = B.shape, B.T.tocsr()
    rhs_p = _lift_flux(space)
    if g is not None:
        rhs_p -= cell_integrals(g, space.tables)
    # A padded with empty pressure rows and columns, plus the coupling
    # alone: no temporary copy of A
    coupling = sparse.csr_matrix((
        -np.concatenate([Bt.data, B.data]),
        np.concatenate([nfu + Bt.indices, B.indices]),
        np.concatenate([Bt.indptr, Bt.nnz + B.indptr[1:]])),
        shape=(nfu + nt, nfu + nt))
    A.resize(coupling.shape)
    return SaddleSystem(space, A + coupling, np.concatenate([f, rhs_p]), nt)


def _div_div(space):
    """The lambda div div term at unit lambda, B^T W^-1 B with W =
    diag(|T|), and its lift term -B^T W^-1 B_full lift, in the reduced
    numbering."""
    B = space.divergence_block
    w = space.tables.areas
    WB = B.copy()
    WB.data /= np.repeat(w, np.diff(B.indptr))
    G = B.T.tocsr() @ WB
    G.sort_indices()
    return G, -(WB.T @ _lift_flux(space))


def _brinkman_fields(space, coeffs):
    """Validated per-triangle (mu, sigma): mu + sigma > 0, and mu = 0
    nowhere on a space with a Dirichlet side, where it is ill-posed. Every
    Brinkman assembler and every value of a viscosity sweep checks this."""
    mu, sigma = coeffs.fields(space.mesh.num_triangles)
    if (mu + sigma).min() <= 0:
        raise ConfigurationError("Brinkman requires mu + sigma > 0")
    clamped = any(isinstance(bc, Dirichlet) for bc in space.bc.values())
    if clamped and mu.min() == 0.0:
        raise ConfigurationError(
            "mu = 0 with full Dirichlet constraints is ill-posed; use "
            "normal-only (NormalZero) constraints there"
        )
    return mu, sigma


def _brinkman_interior(space, coeffs, mu, sigma):
    """A velocity builder holding the volume terms at viscosity mu and drag
    sigma: the viscous + mass block and the body load."""
    tables = space.tables
    builder = _Builder(space.n_velocity)
    builder.add_blocks(tables.loc2glob, _brinkman_matrix(tables, mu, sigma))
    _body_force_rhs(builder, tables, coeffs.f)
    return builder


def _lame_checked(mu, lam):
    """mu > 0 everywhere and lambda > 0, or a ConfigurationError."""
    if np.min(mu) <= 0:
        raise ConfigurationError("elasticity requires mu > 0")
    if lam is None or lam <= 0:
        raise ConfigurationError("elasticity requires lambda > 0")


def _elastic_block(space, mu, f=None, tractions=None):
    """The reduced 2 mu eps:eps block and its load: body load f, tractions
    and the lift term."""
    tables = space.tables
    builder = _Builder(space.n_velocity)
    builder.add_blocks(tables.loc2glob, _elastic_matrix(tables, mu))
    _body_force_rhs(builder, tables, f)
    if tractions:
        _traction_rhs(builder, space, tractions)
    return _reduce(space, builder)


def assemble_elasticity(space, coeffs, tractions=None):
    """Linear elasticity velocity block: int 2 mu sym-grad : sym-grad +
    lambda div div, with body load and optional boundary tractions
    (dict tag -> callable or constant traction density). mu > 0 and
    lambda > 0, or a ConfigurationError. The lambda term is lambda
    B^T W^-1 B (`_div_div`)."""
    mu, _ = coeffs.fields(space.mesh.num_triangles)
    _lame_checked(mu, coeffs.lam)
    lam = float(coeffs.lam)
    A, b = _elastic_block(space, mu, coeffs.f, tractions)
    G, lifted = _div_div(space)
    return SaddleSystem(space, A + lam * G, b + lam * lifted, 0)


def _lame_sweep(space, tractions=None):
    """Reduced elasticity systems at scalar Lame coefficients with the
    given tractions and no body load: returns the map (mu, lam) ->
    SaddleSystem, checked as `assemble_elasticity` checks it.

    Both coefficients enter linearly, the lift terms too: the system is the
    traction load plus mu (A_1, r_1) + lam (G, r_G), A_1 the unit-mu
    2 eps:eps block and G = B^T W^-1 B, each assembled once. It agrees
    with `assemble_elasticity` to rounding, not bit for bit."""
    A1, r1 = _elastic_block(space, np.ones(space.mesh.num_triangles))
    load = _Builder(space.n_velocity)
    if tractions:
        _traction_rhs(load, space, tractions)
    load = space.constraint.T @ load.rhs
    G, rG = _div_div(space)

    def system(mu, lam):
        _lame_checked(mu, lam)
        return SaddleSystem(space, mu * A1 + lam * G,
                            load + mu * r1 + lam * rG, 0)

    return system


def assemble_brinkman(space, coeffs):
    """Brinkman saddle system (Stokes for sigma=0, Darcy for mu=0).

    The one-shot form of the coupling sweep: `_viscosity_sweep` builds the
    same system at each of its viscosities. No boundary term is added, so
    the tangential condition stays natural on `NormalZero` sides (the
    coupling study's slip wall), where `assemble_nitsche_brinkman_tangential`
    imposes it weakly."""
    mu, sigma = _brinkman_fields(space, coeffs)
    return _saddle(space, _brinkman_interior(space, coeffs, mu, sigma),
                   coeffs.g)


def _viscosity_sweep(space, coeffs, swept):
    """Reduced Brinkman systems of `coeffs` with the viscosity on the
    macro triangles `swept` (a boolean mask) replaced by a sweep value m:
    returns the map m -> SaddleSystem.

    mu enters the forms linearly, the lift term too, so the system at m is
    S_rest + m S_swept, matrix and right-hand side alike. S_rest is the
    whole system with mu = 0 on `swept`; S_swept the unit viscous term on
    `swept` alone (no load, no pressure coupling, no mass), padded with
    empty pressure rows and columns. Both are assembled and reduced once,
    each m costs one sparse sum and is checked by `_brinkman_fields`
    (S_rest is not: its mu is zero on `swept` by construction). The values
    agree with `assemble_brinkman` at the same coefficients to rounding,
    not bit for bit."""
    tables = space.tables
    nt = space.mesh.num_triangles
    mu, sigma = coeffs.fields(nt)
    # the smaller part first: its reduced form is what stays alive while
    # the other one is assembled
    unit = _Builder(space.n_velocity)
    unit.add_blocks(tables.loc2glob, _brinkman_matrix(
        tables, swept.astype(float), np.zeros(nt)), swept)
    unit, unit_rhs = _reduce(space, unit)
    size = space.n_free_velocity + nt
    unit.resize((size, size))
    unit_rhs = np.concatenate([unit_rhs, np.zeros(nt)])
    rest = _saddle(space, _brinkman_interior(
        space, coeffs, np.where(swept, 0.0, mu), sigma), coeffs.g)

    def system(m):
        _brinkman_fields(space, ProblemCoefficients(
            mu=np.where(swept, m, mu), sigma=sigma))
        return SaddleSystem(space, rest.matrix + m * unit,
                            rest.rhs + m * unit_rhs, nt)

    return system


def _tag_mask(mesh, tags):
    """Mask over `mesh.boundary_edges` of the edges tagged with one of
    `tags`."""
    found = np.asarray(mesh.boundary_tags, dtype=object)[mesh.boundary_edges]
    return np.isin(found, list(tags))


class _Faces:
    """Batched boundary faces, in `mesh.boundary_edges` order.

    Every face selected by `keep` (a boolean mask over the boundary edges)
    is traced from its one triangle as two halves, vertex to split node and
    split node to vertex, each backed by the child subtriangle on it.
    Per face: `tri`, `l2g` (nf, 9), `tag`, length `h`, the space's unit
    outward `normal` n and the `tangent` (-n_y, n_x), each (nf, 2). Per
    face and half: `length` (nf, 2), quadrature `points` (nf, 2, nq, 2)
    and basis `traces` (nf, 2, 9, nq, 2). The basis `grads`
    (nf, 2, 9, 2, 2) on the child subtriangles are formed on first use, by
    the tangential Brinkman term only.

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
        self.h = _norm(p[:, 2] - p[:, 0])
        self.normal = space.edge_outward_normal[edges]
        self.tangent = np.column_stack([-self.normal[:, 1], self.normal[:, 0]])

        half = p[:, 1:] - p[:, :2]
        self.length = _norm(half.reshape(-1, 2)).reshape(-1, 2)
        qx, self.qw = edge_rule(3)
        self.points = p[:, :2, None, :] + qx[:, None] * half[:, :, None, :]
        V = np.take_along_axis(
            tables.basis_node_values[self.tri], ends[:, None, :, None], axis=2
        )
        V = np.swapaxes(V, 1, 2)  # (nf, 3, 9, 2): the ends of the halves
        self.traces = (
            V[:, :2, :, None, :] * (1.0 - qx)[:, None]
            + V[:, 1:, :, None, :] * qx[:, None]
        )
        self.child = 2 * loc[:, None] + np.arange(2)

    @cached_property
    def grads(self):
        return self.tables.basis_gradients(self.tri[:, None], self.child)


def _traction_rhs(builder, space, tractions):
    loaded = [tag for tag, spec in tractions.items() if spec is not None]
    faces = _Faces(space, _tag_mask(space.mesh, loaded))
    density = np.empty(faces.points.shape)
    for tag in np.unique(faces.tag):
        spec = tractions[tag]
        on = faces.tag == tag
        density[on] = _eval_vec(spec, faces.points[on])
    vals = faces.length[..., None] * np.einsum(
        "q,fsqi,fskqi->fsk", faces.qw, density, faces.traces
    )
    builder.add_loads(faces.l2g[:, None], vals)


def assemble_nitsche_brinkman_tangential(space, coeffs):
    """Brinkman with strong normal / weak tangential boundary conditions.

    Adds -m(u,v) - m(v,u) + s(u,v) on the normal-constrained boundary
    faces; for mu = 0 every added term vanishes, so the Darcy limit is the
    plain saddle system on the constrained space.
    """
    mu, sigma = _brinkman_fields(space, coeffs)
    builder = _brinkman_interior(space, coeffs, mu, sigma)
    mesh = space.mesh
    tags = [tag for tag, bc in space.bc.items() if isinstance(bc, NormalZero)]
    viscous = mu[mesh.edge_tris[mesh.boundary_edges, 0]] != 0.0
    faces = _Faces(space, _tag_mask(mesh, tags) & viscous)
    mu_t, L, qw = mu[faces.tri], faces.length, faces.qw
    n, tau = faces.normal, faces.tangent
    # t.(mu grad u n), and the tangential traces with their integrals and
    # the integrals of their outer products over each face half
    dun_t = mu_t[:, None, None] * np.einsum("fi,fskij,fj->fsk", tau,
                                             faces.grads, n)
    trt = np.einsum("fskqi,fi->fskq", faces.traces, tau)
    int_trt = L[..., None] * np.einsum("q,fskq->fsk", qw, trt)
    int_trt_trt = L[..., None, None] * np.einsum("q,fskq,fslq->fskl", qw,
                                                 trt, trt)
    # -c(u,v) - c(v,u) and the penalty, stacked on axis 2 as (nf, 2, 2, 9, 9)
    cmat = int_trt[..., :, None] * dun_t[..., None, :]
    penalty = (coeffs.gamma / faces.h) * mu_t
    builder.add_blocks(faces.l2g[:, None, None], np.stack([
        -(cmat + np.swapaxes(cmat, -1, -2)),
        penalty[:, None, None, None] * int_trt_trt,
    ], axis=2))
    return _saddle(space, builder, coeffs.g)
