"""Enriched velocity space, pressure space, projections and interpolants.

Velocities are piecewise linear on the 6 subtriangles of every macro
triangle: a globally linear part with two unknowns per macro vertex, plus
one scalar "bubble" unknown per edge. The bubble of edge E takes the value
a*nu at the edge split node (nu the unit split direction) and a centroid
value chosen so its divergence is one constant on all 6 subtriangles of
each incident macro triangle; hence every member of the space has
elementwise constant divergence and the pressure space of per-triangle
constants is matched exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import MeshError, _cross2, _dot, _norm
from .quadrature import edge_rule, triangle_barycentric

_NORMAL_ANGLE_TOL = 1e-8


class GeometryError(Exception):
    """Geometric degeneracy that the mesh layer should have prevented."""


def _perp_out(d):
    """Outward normal direction for a CCW-traversed edge vector."""
    return np.stack([d[..., 1], -d[..., 0]], axis=-1)


def _hat_gradients(corners):
    """Gradients of the three nodal hats; corners (..., 3, 2)."""
    p0, p1, p2 = corners[..., 0, :], corners[..., 1, :], corners[..., 2, :]
    twoA = (p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1]) - (
        p1[..., 1] - p0[..., 1]
    ) * (p2[..., 0] - p0[..., 0])
    g = np.empty(corners.shape)
    g[..., 0, 0] = p1[..., 1] - p2[..., 1]
    g[..., 0, 1] = p2[..., 0] - p1[..., 0]
    g[..., 1, 0] = p2[..., 1] - p0[..., 1]
    g[..., 1, 1] = p0[..., 0] - p2[..., 0]
    g[..., 2, 0] = p0[..., 1] - p1[..., 1]
    g[..., 2, 1] = p1[..., 0] - p0[..., 0]
    return g / twoA[..., None, None], 0.5 * twoA


class ElementTables:
    """Batched per-triangle basis data shared by assembly and evaluation.

    Local velocity dofs per macro triangle (9): the two components at each
    of the three vertices, then the three edge bubbles (edge i opposite
    local vertex i). The bubble of local edge i is nu_i at its split node
    and `bubble_um[t, i]` at the centroid, which makes its divergence the
    constant `bubble_div[t, i]` on all 6 subtriangles (unit amplitude).

    Every basis field is P1 on the 6 subtriangles, so the tables store it
    in patch form: `basis_node_values` (nt, 9, 7, 2) at the 7 local nodes
    `nodes` (nt, 7, 2), and the gradients `hat_grads` (nt, 6, 3, 2) of each
    subtriangle's corner hats. With them `sub_areas` (nt, 6), `areas`,
    `basis_div` (nt, 9), `bubble_div` and `loc2glob` are stored. The rest
    is derived where it is read: `bubble_um` is a view of the above, and
    `basis_gradients` forms the constant per-subtriangle basis gradients
    for the subtriangles asked for.
    """

    def __init__(self, subdiv):
        self.subdiv = subdiv
        mesh = subdiv.mesh
        nt = mesh.num_triangles
        tris = mesh.triangles
        verts = mesh.vertices[tris]  # (nt,3,2)
        nodes = subdiv.all_local_nodes()  # (nt,7,2)
        self.nodes = nodes

        grads, areas = _hat_gradients(nodes[:, subdiv.SUBTRIANGLES])
        if np.any(areas <= 0):
            raise GeometryError("subtriangle with non-positive area")
        self.hat_grads = grads  # (nt,6,3,2)
        self.sub_areas = areas  # (nt,6)
        self.areas = areas.sum(axis=1)  # (nt,)

        # barycentric coordinates (wrt the macro triangle) of the 7 nodes
        bary = np.zeros((nt, 7, 3))
        bary[:, :3] = np.eye(3)
        bary[:, 6] = 1.0 / 3.0
        for i in range(3):
            a = verts[:, (i + 1) % 3]
            b = verts[:, (i + 2) % 3]
            m = nodes[:, 3 + i]
            t = np.einsum("nk,nk->n", m - a, b - a) / np.einsum(
                "nk,nk->n", b - a, b - a
            )
            bary[:, 3 + i, (i + 1) % 3] = 1.0 - t
            bary[:, 3 + i, (i + 2) % 3] = t

        # bubble data per local edge
        nu = subdiv.edge_nu[mesh.tri_edges]  # (nt,3,2)
        N = np.empty((nt, 3, 2))
        for i in range(3):
            N[:, i] = _perp_out(verts[:, (i + 2) % 3] - verts[:, (i + 1) % 3])
        beta = np.einsum("nik,nik->ni", nu, N)  # (nt,3)
        self.bubble_div = beta / (2.0 * self.areas)[:, None]  # (nt,3)

        # nodal values of the 9 local basis fields at the 7 nodes: (nt,9,7,2)
        vals = np.zeros((nt, 9, 7, 2))
        for a in range(3):
            for c in range(2):
                vals[:, 2 * a + c, :, c] = bary[:, :, a]
        # the centroid value u_m of bubble i solves [N_j; N_k] u_m =
        # -(beta_i / 3)[1, 1]
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            a_, b_ = N[:, j, 0], N[:, j, 1]
            c_, d_ = N[:, k, 0], N[:, k, 1]
            det = a_ * d_ - b_ * c_
            r = -beta[:, i] / 3.0
            vals[:, 6 + i, 3 + i, :] = nu[:, i]
            vals[:, 6 + i, 6, 0] = (d_ * r - b_ * r) / det
            vals[:, 6 + i, 6, 1] = (-c_ * r + a_ * r) / det
        self.basis_node_values = vals

        # the constant divergence of each basis field, as the mean of its
        # traces over the subtriangles
        div_sub = np.empty((nt, 9, 6))
        for s in range(6):
            div_sub[:, :, s] = self.sub_divergences(s)
        self.basis_div = div_sub.mean(axis=2)  # (nt,9)

        # local-to-global velocity dof map
        nv = mesh.num_vertices
        loc2glob = np.empty((nt, 9), dtype=np.int64)
        loc2glob[:, 0:6:2] = 2 * tris
        loc2glob[:, 1:6:2] = 2 * tris + 1
        loc2glob[:, 6:9] = 2 * nv + mesh.tri_edges
        self.loc2glob = loc2glob

    @property
    def bubble_um(self):
        """Centroid values (nt, 3, 2) of the three edge bubbles."""
        return self.basis_node_values[:, 6:, 6]

    def basis_gradients(self, t, s):
        """Constant gradients (..., 9, 2, 2) of the 9 basis fields on
        subtriangle s of macro triangle t (index arrays that broadcast);
        entry [k, i, j] is the derivative of component i of field k along
        x_j."""
        t = np.asarray(t)
        vals = self.basis_node_values[t[..., None], :,
                                      self.subdiv.SUBTRIANGLES[s]]
        return np.einsum("...cki,...cj->...kij", vals, self.hat_grads[t, s])

    def sub_divergences(self, s):
        """Divergences (nt, 9) of the 9 basis fields on subtriangle s."""
        grads = self.basis_gradients(np.arange(len(self.areas)), s)
        return np.trace(grads, axis1=2, axis2=3)

    def local_coeffs(self, coeffs):
        """Gather global velocity coefficients to local (nt, 9)."""
        return np.asarray(coeffs)[self.loc2glob]

    def field_node_values(self, coeffs):
        """Nodal values (nt, 7, 2) of the velocity field."""
        return np.einsum("tk,tkni->tni", self.local_coeffs(coeffs),
                         self.basis_node_values)

    def field_divergence(self, coeffs):
        """Per-macro-triangle constant divergence (nt,)."""
        return np.einsum("tk,tk->t", self.local_coeffs(coeffs), self.basis_div)


# boundary condition kinds
@dataclass(frozen=True)
class Dirichlet:
    """Strong Dirichlet velocity data; value is a constant pair or a
    callable mapping points (n, 2) to values (n, 2)."""

    value: object = (0.0, 0.0)


@dataclass(frozen=True)
class NormalZero:
    """Strong zero normal component; tangential left free (or to Nitsche)."""


@dataclass(frozen=True)
class Free:
    """Natural boundary (traction / Nitsche handled elsewhere)."""


_MODE_ALIASES = {
    "dirichlet": Dirichlet((0.0, 0.0)),
    "normal": NormalZero(),
    "free": Free(),
}

V_FREE, V_NORMAL, V_FIXED = 0, 1, 2


@dataclass
class FESpace:
    """Dof bookkeeping for the enriched velocity space and P0 pressures.

    The velocity block is ordered [2 dofs per vertex ..., 1 per edge].
    Strong constraints are held as an affine map U = C x + lift with C the
    sparse prolongation of the free dofs.
    """

    subdiv: object
    tables: ElementTables
    bc: dict
    n_velocity: int
    n_pressure: int
    constraint: sparse.csr_matrix
    lift: np.ndarray
    vertex_mode: np.ndarray
    bubble_fixed: np.ndarray
    edge_outward_normal: np.ndarray

    @property
    def mesh(self):
        return self.subdiv.mesh

    @property
    def n_free_velocity(self):
        return self.constraint.shape[1]

    def expand_velocity(self, x):
        """Full velocity coefficients from reduced unknowns."""
        return self.constraint @ x + self.lift


def boundary_flux_amplitudes(subdiv, value, edges):
    """Bubble amplitudes reproducing the edge fluxes of `value` on `edges`.

    a_E = int_E (value - vertex interpolant) . n ds / ((|E|/2)(nu . n)),
    which makes the interpolated flux through each edge exact.
    """
    mesh = subdiv.mesh
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros(0)
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    qx, qw = edge_rule(5)
    pts = a[:, None, :] + qx[None, :, None] * (b - a)[:, None, :]
    vals = _eval_vec(value, pts.reshape(-1, 2)).reshape(len(edges), len(qx), 2)
    d = b - a
    lengths = np.linalg.norm(d, axis=1)
    normals = _perp_out(d) / lengths[:, None]
    flux = np.einsum("q,eqi,ei->e", qw, vals, normals) * lengths
    va = _eval_vec(value, a)
    vb = _eval_vec(value, b)
    lin_flux = 0.5 * lengths * np.einsum("ei,ei->e", va + vb, normals)
    nu_n = np.einsum("ei,ei->e", subdiv.edge_nu[edges], normals)
    if np.any(np.abs(nu_n) < 1e-12):
        raise GeometryError("split direction parallel to an edge")
    return (flux - lin_flux) / (0.5 * lengths * nu_n)


def _eval_vec(value, points):
    points = np.atleast_2d(points)
    if callable(value):
        return np.asarray(value(points), dtype=float).reshape(len(points), 2)
    return np.broadcast_to(
        np.asarray(value, dtype=float), (len(points), 2)
    ).copy()


def build_space(subdiv, constraint="dirichlet"):
    """Build the FESpace with strong constraints applied per boundary tag.

    Parameters
    ----------
    constraint : "dirichlet" | "normal" | "free" applied to every tag, or a
        dict mapping tag -> Dirichlet/NormalZero/Free.
    """
    mesh = subdiv.mesh
    tables = ElementTables(subdiv)
    boundary = mesh.boundary_edges
    boundary_tags = np.asarray(mesh.boundary_tags)[boundary]
    tags = sorted(set(boundary_tags.tolist()) - {""})
    if isinstance(constraint, str):
        if constraint not in _MODE_ALIASES:
            raise ValueError(f"unknown constraint mode {constraint!r}")
        bc = {tag: _MODE_ALIASES[constraint] for tag in tags}
    else:
        bc = dict(constraint)
        unknown = set(bc) - set(tags)
        if unknown:
            raise MeshError(f"boundary tags not present in mesh: {unknown}")
        for tag in tags:
            bc.setdefault(tag, Free())

    nv, ne = mesh.num_vertices, mesh.num_edges
    vertex_mode = np.full(nv, V_FREE, dtype=np.int8)
    vertex_value = np.zeros((nv, 2))
    bubble_fixed = np.zeros(ne, dtype=bool)
    bubble_value = np.zeros(ne)
    edge_normal = np.zeros((ne, 2))

    ends = mesh.vertices[mesh.edges[boundary]]
    d = ends[:, 1] - ends[:, 0]
    edge_normal[boundary] = _perp_out(d) / _norm(d)[:, None]

    # Dirichlet fixes its vertices whatever their normals; the NormalZero
    # edges are gathered in sorted tag order for determinism
    normal_edges = [np.zeros(0, dtype=np.int64)]
    for tag in tags:
        spec = bc[tag]
        edges = boundary[boundary_tags == tag]
        if isinstance(spec, Dirichlet):
            verts = np.unique(mesh.edges[edges])
            vertex_mode[verts] = V_FIXED
            vertex_value[verts] = _eval_vec(spec.value, mesh.vertices[verts])
            bubble_value[edges] = boundary_flux_amplitudes(subdiv, spec.value,
                                                           edges)
        elif isinstance(spec, NormalZero):
            normal_edges.append(edges)
        elif isinstance(spec, Free):
            continue
        else:
            raise TypeError(f"unsupported boundary condition {spec!r}")
        bubble_fixed[edges] = True

    # (vertex, normal) pairs grouped by vertex in gathering order: a vertex
    # whose normals differ from its first one is a corner (fixed), the
    # others slide along the tangent of their first normal
    edges = np.concatenate(normal_edges)
    pair_vertex = mesh.edges[edges].ravel()
    order = np.argsort(pair_vertex, kind="stable")
    pair_vertex = pair_vertex[order]
    pair_normal = np.repeat(edge_normal[edges], 2, axis=0)[order]
    first = np.diff(pair_vertex, prepend=-1) != 0
    n0 = pair_normal[first]
    bent = 1.0 - np.abs(_dot(n0[np.cumsum(first) - 1], pair_normal))
    heads = pair_vertex[first]
    vertex_mode[heads] = np.maximum(vertex_mode[heads], V_NORMAL)
    vertex_mode[pair_vertex[bent > _NORMAL_ANGLE_TOL]] = V_FIXED
    slide = np.ones((nv, 2))
    slide[heads] = np.column_stack([-n0[:, 1], n0[:, 0]])

    # C has one entry per unconstrained row; the columns are numbered in
    # dof order, 2, 1 or 0 per vertex (free, sliding, fixed) and 1 or 0
    # per edge bubble (free, fixed)
    width = np.r_[2 - vertex_mode, ~bubble_fixed].astype(np.int64)
    offset = np.cumsum(width) - width
    cols = np.c_[offset[:nv], offset[:nv] + (vertex_mode == V_FREE)]
    cols = np.r_[cols.ravel(), offset[nv:]]
    data = np.r_[slide.ravel(), np.ones(ne)]
    rows = np.flatnonzero(np.r_[np.repeat(width[:nv], 2), width[nv:]])
    C = sparse.csr_matrix((data[rows], (rows, cols[rows])),
                          shape=(2 * nv + ne, int(width.sum())))
    return FESpace(
        subdiv=subdiv,
        tables=tables,
        bc=bc,
        n_velocity=2 * nv + ne,
        n_pressure=mesh.num_triangles,
        constraint=C,
        lift=np.r_[vertex_value.ravel(), bubble_value],
        vertex_mode=vertex_mode,
        bubble_fixed=bubble_fixed,
        edge_outward_normal=edge_normal,
    )


def fortin_interpolate(u, space):
    """Interpolate a smooth vector field: nodal vertex values plus bubble
    amplitudes that match every edge's normal flux exactly.

    Returns the full velocity coefficient vector.
    """
    subdiv = space.subdiv
    mesh = subdiv.mesh
    coeffs = np.zeros(space.n_velocity)
    coeffs[: 2 * mesh.num_vertices] = _eval_vec(u, mesh.vertices).ravel()
    coeffs[2 * mesh.num_vertices :] = boundary_flux_amplitudes(
        subdiv, u, np.arange(mesh.num_edges)
    )
    return coeffs


# macro triangles per block of every per-triangle kernel (the elastic
# element matrices and each subtriangle quadrature): the temporaries of a
# block stay the same size whatever the mesh
_BLOCK = 256


def _blocks(nt):
    """Consecutive slices of at most `_BLOCK` macro triangles, in order,
    covering all `nt`."""
    for start in range(0, nt, _BLOCK):
        yield slice(start, min(start + _BLOCK, nt))


def _quadrature_blocks(tables, degree):
    """The degree-`degree` rule on every subtriangle, one block of macro
    triangles at a time: yields (block, points) with `block` a slice from
    `_blocks` and `points` (b, 6, nq, 2)."""
    bary, _ = triangle_barycentric(degree)
    for block in _blocks(len(tables.areas)):
        corners = tables.nodes[block][:, tables.subdiv.SUBTRIANGLES]
        yield block, np.einsum("qc,tsci->tsqi", bary, corners)


def cell_integrals(f, tables):
    """Integral of a scalar function over every macro triangle, summed
    from the degree-6 rule on each subtriangle.

    `f` is called once per block of at most `_BLOCK` macro triangles, so
    the quadrature points and values in memory do not grow with the mesh;
    each triangle's sum is the same as over the whole mesh at once."""
    _, wts = triangle_barycentric(6)
    out = np.empty(len(tables.areas))
    for block, pts in _quadrature_blocks(tables, 6):
        vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(
            pts.shape[:3]
        )
        out[block] = 2.0 * np.einsum("q,tsq,ts->t", wts, vals,
                                     tables.sub_areas[block])
    return out


def project_p0(f, subdiv):
    """Elementwise mean values of a scalar function (L2 projection on the
    per-triangle constants), integrated subtriangle-wise."""
    tables = subdiv if isinstance(subdiv, ElementTables) else ElementTables(subdiv)
    return cell_integrals(f, tables) / tables.areas


def _locate_subtriangle(tables, t, point, tol=1e-12):
    corners = tables.nodes[t][tables.subdiv.SUBTRIANGLES]  # (6,3,2)
    point = np.asarray(point, dtype=float)
    best, best_min = None, -np.inf
    for s in range(6):
        p0, p1, p2 = corners[s]
        twoA = float(_cross2(p1 - p0, p2 - p0))
        l1 = float(_cross2(point - p0, p2 - p0)) / twoA
        l2 = float(_cross2(p1 - p0, point - p0)) / twoA
        lam = np.array([1.0 - l1 - l2, l1, l2])
        m = lam.min()
        if m > best_min:
            best, best_min = (s, lam), m
    if best_min < -tol:
        raise GeometryError(
            f"point {point} outside macro triangle {t} (barycentric "
            f"defect {best_min:.3g})"
        )
    return best


def eval_velocity(space, coeffs, t, point):
    """Velocity value at a point inside macro triangle t."""
    tables = space.tables
    s, lam = _locate_subtriangle(tables, t, point)
    local = np.asarray(coeffs)[tables.loc2glob[t]]
    values = tables.basis_node_values[t][:, tables.subdiv.SUBTRIANGLES[s]]
    return lam @ np.einsum("k,kci->ci", local, values)


def macro_divergence(space, coeffs):
    """Constant divergence per macro triangle.

    Verifies constancy across the 6 subtriangles (1e-9, scaled).
    """
    tables = space.tables
    local = tables.local_coeffs(coeffs)
    nt = len(local)
    div_sub = np.empty((nt, 6))
    basis_max = 0.0
    for s in range(6):
        basis = tables.sub_divergences(s)
        div_sub[:, s] = np.einsum("tk,tk->t", local, basis)
        basis_max = max(basis_max, float(np.abs(basis).max(initial=0.0)))
    value = div_sub.mean(axis=1)
    deviation = np.abs(div_sub - value[:, None]).max(axis=1)
    scale = max(1.0, float(np.abs(local).max(initial=0.0)) * basis_max)
    if np.any(deviation > 1e-9 * scale):
        worst = int(np.argmax(deviation))
        raise GeometryError(
            f"divergence not constant on triangle {worst}: "
            f"deviation {deviation[worst]:.3g}"
        )
    return value


@dataclass
class FieldSolution:
    """Velocity coefficients plus per-triangle pressure."""

    space: FESpace
    velocity: np.ndarray
    pressure: np.ndarray = None
    multiplier: float = None

    def divergence(self):
        return self.space.tables.field_divergence(self.velocity)

    def vertex_velocities(self):
        """Velocity at the macro vertices (bubbles vanish there)."""
        nv = self.space.mesh.num_vertices
        return self.velocity[: 2 * nv].reshape(nv, 2)
