"""Meshes and subdivisions beyond the diagonal grid and the centroid that
`mce.mesh.subdivide` places, shared by the test files: the element must
hold on perturbed grids and for any interior node that gives a valid
split."""

import numpy as np

from mce.mesh import SubdividedMesh, generate_unit_square_mesh


def jittered_square(n, seed, jitter=0.3):
    """Unit-square grid with each interior vertex moved by up to jitter*h."""
    mesh = generate_unit_square_mesh(n)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-jitter / n, jitter / n,
                                      (int(interior.sum()), 2))
    return mesh.with_vertices(vertices)


def incenter_subdiv(mesh):
    """SubdividedMesh whose interior nodes are the incenters: interior
    edges split where the segment between the two incenters crosses them,
    boundary edges at their midpoints, nu from the incenter of the
    lower-indexed triangle (edge_tris is ascending)."""
    corners = mesh.vertices[mesh.triangles]
    sides = np.linalg.norm(corners[:, [2, 0, 1]] - corners[:, [1, 2, 0]],
                           axis=2)  # side i is opposite corner i
    centers = np.einsum("ti,tik->tk", sides, corners) / sides.sum(1)[:, None]
    a, b = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    splits = 0.5 * (a + b)
    for e in np.flatnonzero(t1 >= 0):
        c0, c1 = centers[t0[e]], centers[t1[e]]
        # c0 + s (c1 - c0) = a + t (b - a)
        s_t = np.linalg.solve(np.column_stack([c1 - c0, a[e] - b[e]]),
                              a[e] - c0)
        assert 0.0 < s_t[0] < 1.0 and 0.0 < s_t[1] < 1.0
        splits[e] = a[e] + s_t[1] * (b[e] - a[e])
    nu = splits - centers[t0]
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    return SubdividedMesh(mesh=mesh, centroids=centers, edge_splits=splits,
                          edge_nu=nu)
