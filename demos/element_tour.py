"""Tour of the macro element: subdivision, edge bubbles, exact divergence.

Walks through the construction on a single reference triangle and a small
mesh: the six-way subdivision, the divergence-equalizing centroid value of
an edge bubble (solved from the 2x2 system and cross-checked against the
closed form), and the elementwise-constant divergence of arbitrary fields.
"""

import numpy as np

from mce import (
    build_mesh,
    build_space,
    fortin_interpolate,
    generate_unit_square_mesh,
    macro_divergence,
    subdivide,
)
from mce.space import ElementTables

print("=" * 72)
print("1. One reference triangle (0,0), (1,0), (0,1)")
print("=" * 72)
mesh = build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
sub = subdivide(mesh)
print("centroid:", sub.centroids[0])
for e in range(mesh.num_edges):
    a, b = mesh.edges[e]
    print(f"edge {e} = ({a},{b}): split point {sub.edge_splits[e]}, "
          f"nu = {sub.edge_nu[e]}")

bottom = next(e for e in range(mesh.num_edges) if set(mesh.edges[e]) == {0, 1})
loc = list(mesh.tri_edges[0]).index(bottom)
tables = ElementTables(sub)
print(f"\nbubble of the bottom edge: centroid value u_m = "
      f"{tables.bubble_um[0, loc]}, constant divergence = "
      f"{tables.bubble_div[0, loc]:.12f}")
# closed form: d = nu . N / (2 |T|) with N the outward edge normal scaled
# by the edge length, times (centroid - opposite vertex)
verts = mesh.vertices[mesh.triangles[0]]
edge = verts[(loc + 2) % 3] - verts[(loc + 1) % 3]
d = sub.edge_nu[bottom] @ np.array([edge[1], -edge[0]]) / (2 * tables.areas[0])
print("closed form d*(centroid - opposite vertex):",
      d * (sub.centroids[0] - verts[loc]))

print("divergence of that bubble on each of the 6 subtriangles:")
# the bubble is P1 on every subtriangle: its corner values dotted with the
# subtriangle's hat gradients
corner_values = tables.basis_node_values[0, 6 + loc][sub.SUBTRIANGLES]
div_sub = np.einsum("sci,sci->s", corner_values, tables.hat_grads[0])
print("  ", np.array2string(div_sub, precision=14))

print()
print("=" * 72)
print("2. Divergence of interpolated fields on a 4x4 unit-square mesh")
print("=" * 72)
sub = subdivide(generate_unit_square_mesh(4))
space = build_space(sub, "free")

expansion = fortin_interpolate(lambda p: p, space)  # div = 2 everywhere
div = macro_divergence(space, expansion)
print(f"field (x, y): per-triangle divergence in "
      f"[{div.min():.14f}, {div.max():.14f}] (exactly 2)")

solenoidal = fortin_interpolate(
    lambda p: np.column_stack(
        [20 * p[:, 0] * p[:, 1] ** 3, 5 * p[:, 0] ** 4 - 5 * p[:, 1] ** 4]
    ),
    space,
)
div = macro_divergence(space, solenoidal)
print(f"divergence-free quartic field: max |per-triangle divergence| = "
      f"{np.abs(div).max():.3e}")
print("\nThe interpolant matches every edge's normal flux, so elementwise")
print("integrals of the divergence are reproduced exactly; combined with the")
print("constant-divergence property this pins the divergence itself.")
