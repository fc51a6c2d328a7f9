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
    # each macro pressure formatted once, repeated over its 6 cells
    cell_pressure = "".join(
        [(repr(p) + "\n") * 6 for p in np.asarray(pressure, float).tolist()]
    )
    # %r of a Python float is its repr, as %d of a Python int is its str
    point_rows = "%r %r 0.0\n" * npoints
    with open(path, "w") as fh:
        fh.write(
            f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {npoints} float\n"
        )
        fh.write(point_rows % tuple(points.ravel().tolist()))
        fh.write(f"CELLS {ncells} {4 * ncells}\n")
        fh.write(("3 %d %d %d\n" * ncells) % tuple(cells.ravel().tolist()))
        fh.write(f"CELL_TYPES {ncells}\n" + "5\n" * ncells)
        fh.write(f"POINT_DATA {npoints}\nVECTORS velocity float\n")
        fh.write(point_rows % tuple(velocity.ravel().tolist()))
        fh.write(
            f"CELL_DATA {ncells}\nSCALARS pressure float 1\n"
            "LOOKUP_TABLE default\n"
        )
        fh.write(cell_pressure)
