"""Enriched velocity space, pressure space, projections and interpolants.

Velocities are piecewise linear on the 6 subtriangles of every macro
triangle: a globally linear part with two unknowns per macro vertex, plus
one scalar "bubble" unknown per edge. The bubble of edge E takes the value
a*nu at the edge split node (nu the unit split direction) and, in each
incident macro triangle, the interior-node value that makes its divergence
one constant on all 6 subtriangles; hence every member of the space has
elementwise constant divergence and the pressure space of per-triangle
constants is matched exactly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .mesh import MeshError, _cross2, _dot, _norm
from .quadrature import edge_rule, triangle_barycentric
from .solve import _SUPERLU_PANEL_SIZE, _SUPERLU_RELAX

# a vertex slides only where its NormalZero sides meet straight to
# rounding: |n0 x n| = |sin| of the bend, linear in the angle
_NORMAL_ANGLE_TOL = 1e-12


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
    and `bubble_um[t, i]` = `bubble_div[t, i]` (m - v_i) at the interior
    node m, v_i the opposite vertex, which makes its divergence the
    constant `bubble_div[t, i]` on all 6 subtriangles (unit amplitude).

    Every basis field is P1 on the 6 subtriangles, so the tables store it
    in patch form: `basis_node_values` (nt, 9, 7, 2) at the 7 local nodes
    `nodes` (nt, 7, 2), and the gradients `hat_grads` (nt, 6, 3, 2) of each
    subtriangle's corner hats. With them `sub_areas` (nt, 6), `areas`,
    `basis_div` (nt, 9) and `loc2glob` are stored. The rest is derived
    where it is read: `bubble_um` and `bubble_div` are views of the above,
    and `basis_gradients` forms the constant per-subtriangle basis
    gradients for the subtriangles asked for.
    """

    def __init__(self, subdiv):
        self.subdiv = subdiv
        mesh = subdiv.mesh
        nt = mesh.num_triangles
        tris = mesh.triangles
        verts = mesh.vertices[tris]  # (nt,3,2)
        nodes = subdiv.all_local_nodes()  # (nt,7,2)
        self.nodes = nodes
        macro_grads, _ = _hat_gradients(verts)  # (nt,3,2)

        grads, areas = _hat_gradients(nodes[:, subdiv.SUBTRIANGLES])
        if np.any(areas <= 0):
            raise GeometryError("subtriangle with non-positive area")
        self.hat_grads = grads  # (nt,6,3,2)
        self.sub_areas = areas  # (nt,6)
        self.areas = areas.sum(axis=1)  # (nt,)

        # barycentric coordinates (wrt the macro triangle) of the 7 nodes:
        # a split node's along its edge a -> b (the third is exactly 0), the
        # interior node m's off the hat gradients, e_0 + grad . (m - v_0)
        bary = np.zeros((nt, 7, 3))
        bary[:, :3] = np.eye(3)
        i = np.arange(3)
        a, b = verts[:, (i + 1) % 3], verts[:, (i + 2) % 3]
        t = np.einsum("nik,nik->ni", nodes[:, 3:6] - a, b - a) / np.einsum(
            "nik,nik->ni", b - a, b - a)
        bary[:, 3 + i, (i + 1) % 3] = 1.0 - t
        bary[:, 3 + i, (i + 2) % 3] = t
        bary[:, 6] = np.eye(3)[0] + np.einsum("nak,nk->na", macro_grads,
                                              nodes[:, 6] - verts[:, 0])

        # the unit bubble's flux |E_i| nu_i . n_i / 2 over |T|, n_i the
        # outward unit normal: grad(lambda_i) = -|E_i| n_i / (2 |T|)
        nu = subdiv.edge_nu[mesh.tri_edges]  # (nt,3,2)
        bubble_div = -np.einsum("nik,nik->ni", nu, macro_grads)  # (nt,3)

        # nodal values of the 9 local basis fields at the 7 nodes: (nt,9,7,2)
        vals = np.zeros((nt, 9, 7, 2))
        vals[:, 0:6:2, :, 0] = vals[:, 1:6:2, :, 1] = np.swapaxes(bary, 1, 2)
        vals[:, [6, 7, 8], [3, 4, 5]] = nu
        # interior value bubble_div_i (m - v_i): grad(lambda_j) . (m - v_i)
        # = lambda_j(m) for the other two edges j, which makes the
        # divergence bubble_div_i on every subtriangle
        vals[:, 6:, 6] = bubble_div[..., None] * (nodes[:, 6, None] - verts)
        self.basis_node_values = vals

        # the constant divergence of each basis field: d(lambda_a)/dx_c for
        # the vertex field lambda_a e_c, and bubble_div for the bubbles
        self.basis_div = np.concatenate(
            [macro_grads.reshape(nt, 6), bubble_div], axis=1
        )  # (nt,9)

        # local-to-global velocity dof map
        nv = mesh.num_vertices
        loc2glob = np.empty((nt, 9), dtype=np.int64)
        loc2glob[:, 0:6:2] = 2 * tris
        loc2glob[:, 1:6:2] = 2 * tris + 1
        loc2glob[:, 6:9] = 2 * nv + mesh.tri_edges
        self.loc2glob = loc2glob

    @property
    def bubble_um(self):
        """Values (nt, 3, 2) of the three edge bubbles at the interior
        node."""
        return self.basis_node_values[:, 6:, 6]

    @property
    def bubble_div(self):
        """Constant divergences (nt, 3) of the three edge bubbles."""
        return self.basis_div[:, 6:]

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
    """Natural boundary (tractions, if any, are assembled elsewhere)."""


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
    sparse prolongation of the free dofs. The reduced unknowns x keep that
    order: the `n_vertex_unknowns` vertex unknowns first, the free bubbles
    last. The velocity-pressure block B, the kernel basis and the dual tree
    (its rows and columns) with the factor of B on it are built on first
    use and kept with the space (`divergence_block`, `kernel`, `tree`,
    `tree_factor`); a space made by `dataclasses.replace` starts without
    them.
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

    @property
    def n_vertex_unknowns(self):
        """Reduced vertex unknowns: 2, 1 or 0 per vertex (free, sliding,
        fixed)."""
        return int((2 - self.vertex_mode).sum())

    @property
    def free_pressure_level(self):
        """True where no free bubble lies on the boundary: no boundary flux
        then fixes the pressure level, and the constant pressure lies in
        the kernel of the velocity-pressure block."""
        return bool(self.bubble_fixed[self.mesh.boundary_edges].all())

    @cached_property
    def divergence_block(self):
        """B, the velocity-pressure block in the reduced numbering, the one
        construction every assembler reads: row T holds |T| div psi_j of
        each free basis field psi_j, built as the triangle's `basis_div`
        times area at its `loc2glob` and reduced by the constraint."""
        tables = self.tables
        nt = len(tables.areas)
        full = sparse.csr_matrix(
            ((tables.basis_div * tables.areas[:, None]).ravel(),
             tables.loc2glob.ravel(), 9 * np.arange(nt + 1)),
            shape=(nt, self.n_velocity))
        B = full @ self.constraint
        B.sort_indices()  # a sparse product leaves its rows unsorted
        return B

    @cached_property
    def kernel(self):
        """`kernel_basis` of the space."""
        return kernel_basis(self)

    @cached_property
    def tree(self):
        """`dual_tree` of the space."""
        return dual_tree(self)

    @cached_property
    def tree_factor(self):
        """SuperLU factor of B_T, the block of `divergence_block` on the
        rows and columns of `tree`: upper triangular, so in its natural
        order and without pivoting L is the identity and U is B_T, with no
        fill. It takes the supernode pair of `mce.solve`, with which it
        touches half the memory that SuperLU's defaults touch."""
        rows, cols = self.tree
        return splu(self.divergence_block[rows][:, cols].tocsc(),
                    permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    relax=_SUPERLU_RELAX, panel_size=_SUPERLU_PANEL_SIZE)

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
    vals = _eval_vec(value, pts)
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
    """Values (..., 2) at points (..., 2) of a constant vector or of a
    callable, which gets every point in one (n, 2) array; None is zero."""
    points = np.atleast_2d(points)
    if value is None:
        return np.zeros(points.shape)
    if callable(value):
        return np.asarray(value(points.reshape(-1, 2)),
                          dtype=float).reshape(points.shape)
    return np.broadcast_to(np.asarray(value, dtype=float), points.shape).copy()


def build_space(subdiv, constraint="dirichlet"):
    """Build the FESpace with strong constraints applied per boundary tag.

    Parameters
    ----------
    subdiv : the SubdividedMesh, or its ElementTables, which spaces of
        one mesh under different constraints can then share.
    constraint : "dirichlet" | "normal" | "free" applied to every tag, or a
        dict mapping tag -> Dirichlet/NormalZero/Free.
    """
    tables = subdiv if isinstance(subdiv, ElementTables) else ElementTables(subdiv)
    subdiv = tables.subdiv
    mesh = subdiv.mesh
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
    bent = np.abs(_cross2(n0[np.cumsum(first) - 1], pair_normal))
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


def kernel_basis(space):
    """Sparse basis Z of ker B in the reduced velocity numbering, B the
    velocity-pressure block: the curls of the Powell-Sabin Hermite basis.

    The flux through edge E is |E|/2 (u_a + u_b + a_E nu_E).n_E: no other
    bubble has a trace on E. A vertex column is the unit value t of one
    reduced vertex unknown (e_x, e_y or the slide direction) with the free
    bubble of each incident edge at -(t.n_E)/(nu_E.n_E), which cancels that
    edge's flux. A stream column is the curl of a hat psi: the bubble of
    edge (a, b) carries the flux psi(b) - psi(a). psi is constant along the
    bubble-fixed edges, so the vertices they join share one column. The
    group columns sum to the curl of 1, so one is dropped: the largest
    group's, which would couple a whole boundary in Z^T A Z. Z is CSC, so
    Z^T is CSR and Z^T A reads the CSR A without converting it."""
    mesh, C = space.mesh, space.constraint
    nv, nfu = mesh.num_vertices, C.shape[1]
    # each constraint row holds at most one entry
    col, val = np.full(C.shape[0], -1), np.zeros(C.shape[0])
    has = np.diff(C.indptr) > 0
    col[has], val[has] = C.indices, C.data
    free = np.flatnonzero(~space.bubble_fixed)
    n_vertex = space.n_vertex_unknowns
    ends = mesh.edges[free]
    normal = _perp_out(mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]])
    nu_n = _dot(space.subdiv.edge_nu[free], normal)  # |E| nu_E.n_E
    dofs = 2 * ends[:, :, None] + np.arange(2)  # (edge, end, component)
    fixed = mesh.edges[space.bubble_fixed]
    n_groups, group = connected_components(sparse.coo_matrix(
        (np.ones(len(fixed)), (fixed[:, 0], fixed[:, 1])), shape=(nv, nv)))
    drop = np.bincount(group).argmax()
    group = group[ends]
    # per free edge: the four vertex-column entries, then the two stream
    # entries, psi(b) - psi(a)
    cols = np.c_[col[dofs].reshape(-1, 4), n_vertex + group - (group > drop)]
    vals = np.c_[(-val[dofs] * normal[:, None]).reshape(-1, 4),
                 np.full((len(free), 2), [-2.0, 2.0])] / nu_n[:, None]
    on = np.c_[cols[:, :4] >= 0,
               (group[:, [0]] != group[:, [1]]) & (group != drop)]
    rows = np.broadcast_to(col[2 * nv + free, None], cols.shape)
    return sparse.csc_matrix(
        (np.r_[np.ones(n_vertex), vals[on]],
         (np.r_[np.arange(n_vertex), rows[on]],
          np.r_[np.arange(n_vertex), cols[on]])),
        shape=(nfu, n_vertex + n_groups - 1))


def dual_tree(space):
    """Spanning tree of the dual graph of the free bubbles, whose nodes are
    the macro triangles and a ground node for the outside: the flux of a
    free bubble leaves one triangle and enters its neighbour, or the
    ground. The tree grows breadth first from the ground, or from triangle
    0 where the pressure level is free and no bubble reaches the ground.

    Returns (rows, columns): the triangles that the tree reaches in BFS
    order, its root left out, and the reduced velocity column of the free
    bubble that joins each of them to its parent. The velocity-pressure
    block on (rows, columns) is square and upper triangular: each column
    holds its row's entry and, below the root, its parent's, an earlier
    row."""
    mesh = space.mesh
    nt = mesh.num_triangles
    ends = mesh.edge_tris[~space.bubble_fixed]
    ends[ends < 0] = nt
    # one edge per pair of nodes (a triangle may have two to the ground),
    # keyed by the ascending pair
    key, first = np.unique(ends[:, 0] * (nt + 1) + ends[:, 1],
                           return_index=True)
    graph = sparse.coo_matrix((np.ones(len(key)), np.divmod(key, nt + 1)),
                              shape=(nt + 1, nt + 1))
    order, parent = breadth_first_order(
        graph, 0 if space.free_pressure_level else nt, directed=False,
        return_predecessors=True)
    rows = order[1:].astype(np.int64)
    pair = np.sort(np.c_[rows, parent[rows]], axis=1)
    edge = first[np.searchsorted(key, pair[:, 0] * (nt + 1) + pair[:, 1])]
    return rows, space.n_vertex_unknowns + edge


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
    """(s, lambda): the subtriangle s of macro triangle t whose smallest
    barycentric coordinate at the point is largest, and its coordinates."""
    point = np.asarray(point, dtype=float)
    corner0 = tables.nodes[t][tables.subdiv.SUBTRIANGLES[:, 0]]  # (6,2)
    lam = np.eye(3)[0] + np.einsum("sck,sk->sc", tables.hat_grads[t],
                                   point - corner0)
    smallest = lam.min(axis=1)
    s = int(smallest.argmax())
    if smallest[s] < -tol:
        raise GeometryError(
            f"point {point} outside macro triangle {t} (barycentric "
            f"defect {smallest[s]:.3g})"
        )
    return s, lam[s]


def eval_velocity(space, coeffs, t, point):
    """Velocity value at a point inside macro triangle t."""
    tables = space.tables
    s, lam = _locate_subtriangle(tables, t, point)
    local = np.asarray(coeffs)[tables.loc2glob[t]]
    values = tables.basis_node_values[t][:, tables.subdiv.SUBTRIANGLES[s]]
    return lam @ np.einsum("k,kci->ci", local, values)


def macro_divergence(space, coeffs):
    """Constant divergence per macro triangle.

    Verifies constancy across the 6 subtriangles (1e-9, scaled by the
    largest coefficient times the largest basis divergence).
    """
    tables = space.tables
    local = tables.local_coeffs(coeffs)
    corner_values = tables.field_node_values(coeffs)[
        :, tables.subdiv.SUBTRIANGLES]  # (nt,6,3,2)
    div_sub = np.einsum("tsci,tsci->ts", corner_values, tables.hat_grads)
    value = div_sub.mean(axis=1)
    deviation = np.abs(div_sub - value[:, None]).max(axis=1)
    scale = max(1.0, float(np.abs(local).max(initial=0.0))
                * float(np.abs(tables.basis_div).max(initial=0.0)))
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

    def divergence(self):
        return self.space.tables.field_divergence(self.velocity)

    def vertex_velocities(self):
        """Velocity at the macro vertices (bubbles vanish there)."""
        nv = self.space.mesh.num_vertices
        return self.velocity[: 2 * nv].reshape(nv, 2)
