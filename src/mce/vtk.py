"""Legacy ASCII VTK output of solved fields on the subdivided mesh.

Points are the deduplicated subdivision nodes (macro vertices, edge split
nodes, centroids); every macro triangle contributes its 6 subtriangles as
cells. Velocity is point data; the per-macro-triangle pressure is cell
data replicated over the 6 children.
"""

import numpy as np


def write_vtk(solution, path, title="mce solution"):
    """Write a FieldSolution as legacy ASCII VTK (triangle cells)."""
    space = solution.space
    mesh = space.mesh
    tables = space.tables
    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    npoints = nv + ne + nt

    points = np.vstack(
        [mesh.vertices, space.subdiv.edge_splits, space.subdiv.centroids]
    )
    velocity = np.zeros((npoints, 2))
    node_values = tables.field_node_values(solution.velocity)  # (nt,7,2)
    # global ids of the 7 local nodes of each triangle
    gids = np.hstack(
        [
            mesh.triangles,
            nv + mesh.tri_edges,
            (nv + ne + np.arange(nt))[:, None],
        ]
    )
    velocity[gids.ravel()] = node_values.reshape(-1, 2)

    cells = gids[:, space.subdiv.SUBTRIANGLES]  # (nt,6,3)
    cells = cells.reshape(-1, 3)
    ncells = len(cells)

    pressure = solution.pressure
    if pressure is None:
        pressure = np.zeros(nt)
    cell_pressure = np.repeat(np.asarray(pressure, dtype=float), 6)

    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {npoints} float",
    ]
    lines += [f"{x!r} {y!r} 0.0" for x, y in points.tolist()]
    lines.append(f"CELLS {ncells} {4 * ncells}")
    lines += [f"3 {a} {b} {c}" for a, b, c in cells.tolist()]
    lines.append(f"CELL_TYPES {ncells}")
    lines += ["5"] * ncells
    lines.append(f"POINT_DATA {npoints}")
    lines.append("VECTORS velocity float")
    lines += [f"{vx!r} {vy!r} 0.0" for vx, vy in velocity.tolist()]
    lines.append(f"CELL_DATA {ncells}")
    lines.append("SCALARS pressure float 1")
    lines.append("LOOKUP_TABLE default")
    lines += [repr(p) for p in cell_pressure.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
