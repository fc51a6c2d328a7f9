"""Per-face loop references shared by the test files: a boundary face
traced as two halves, each backed by the subtriangle on it, with every
value gathered anew from the element tables, and the L2 norm of a
velocity's normal trace over the tagged boundary faces."""

import numpy as np

from mce.quadrature import edge_rule
from mce.space import _hat_gradients


def reference_basis_grads(tables):
    """Constant basis gradients (nt, 9, 6, 2, 2) per subtriangle by the
    formula the element tables stored them with: the basis values at the
    subtriangle corners contracted with the corner hat gradients, both
    gathered anew from the node coordinates."""
    sub = tables.subdiv.SUBTRIANGLES
    grads, _ = _hat_gradients(tables.nodes[:, sub])
    return np.einsum("tksci,tscj->tksij", tables.basis_node_values[:, :, sub],
                     grads)


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


def boundary_faces(space, tags=None):
    mesh = space.mesh
    for e in mesh.boundary_edges:
        if tags is not None and mesh.boundary_tags[e] not in tags:
            continue
        yield _Face(space, e)


def reference_boundary_normal_norm(space, coeffs, tags=None):
    qx, qw = edge_rule(3)
    local = space.tables.local_coeffs(coeffs)
    total = 0.0
    for face in boundary_faces(space, tags):
        for seg in face.segments:
            traces = np.einsum("k,kqi->qi", local[face.tri], seg.traces(qx))
            un = traces @ face.normal
            total += seg.length * float(np.einsum("q,q->", qw, un**2))
    return np.sqrt(total)
