"""Legacy ASCII VTK output of solved fields on the subdivided mesh.

Points are the deduplicated subdivision nodes (macro vertices, edge split
nodes, centroids); every macro triangle contributes its 6 subtriangles as
cells. Velocity is point data; the per-macro-triangle pressure is cell
data replicated over the 6 children. The points and cells depend on the
mesh alone, so their text is formatted once per subdivided mesh and kept
in its instance dict, released with it; a parameter sweep formats only
its fields per file.
"""

import contextlib
import os

import numpy as np


def open_new(path, newline=None):
    """Open `path` for writing as a new file. An existing file is unlinked
    first: rewriting one in place makes ext4 flush its old blocks when the
    file is closed, tens of milliseconds per megabyte."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w", newline=newline)


def mesh_sections(subdiv):
    """The global point ids (nt, 7) of every triangle's local nodes
    (vertices, edge split nodes, centroids) and the POINTS, CELLS and
    CELL_TYPES text: the part of a file that depends on the mesh alone."""
    mesh = subdiv.mesh
    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    gids = np.hstack([mesh.triangles, nv + mesh.tri_edges,
                      (nv + ne + np.arange(nt))[:, None]])
    points = np.vstack([mesh.vertices, subdiv.edge_splits, subdiv.centroids])
    cells = gids[:, subdiv.SUBTRIANGLES].reshape(-1, 3)
    ncells = len(cells)
    # %r of a Python float is its repr, as %d of a Python int is its str
    return gids, (
        f"POINTS {len(points)} float\n"
        + ("%r %r 0.0\n" * len(points)) % tuple(points.ravel().tolist())
        + f"CELLS {ncells} {4 * ncells}\n"
        + ("3 %d %d %d\n" * ncells) % tuple(cells.ravel().tolist())
        + f"CELL_TYPES {ncells}\n" + "5\n" * ncells
    )


_SECTIONS = "_vtk_mesh_sections"  # their key in the subdivided mesh's dict


def write_vtk(solution, path, title="mce solution"):
    """Write a FieldSolution as legacy ASCII VTK (triangle cells); the
    mesh sections are formatted once per subdivided mesh."""
    space = solution.space
    kept = vars(space.subdiv)
    if _SECTIONS not in kept:
        kept[_SECTIONS] = mesh_sections(space.subdiv)
    gids, sections = kept[_SECTIONS]
    nt = len(gids)
    npoints = space.mesh.num_vertices + space.mesh.num_edges + nt
    velocity = np.zeros((npoints, 2))
    node_values = space.tables.field_node_values(solution.velocity)  # (nt,7,2)
    velocity[gids.ravel()] = node_values.reshape(-1, 2)

    pressure = solution.pressure
    if pressure is None:
        pressure = np.zeros(nt)
    # each macro pressure formatted once, repeated over its 6 cells
    cell_pressure = "".join(
        [(repr(p) + "\n") * 6 for p in np.asarray(pressure, float).tolist()]
    )
    with open_new(path) as fh:
        fh.write(
            f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
            "DATASET UNSTRUCTURED_GRID\n"
        )
        fh.write(sections)
        fh.write(f"POINT_DATA {npoints}\nVECTORS velocity float\n")
        fh.write(("%r %r 0.0\n" * npoints) % tuple(velocity.ravel().tolist()))
        fh.write(
            f"CELL_DATA {6 * nt}\nSCALARS pressure float 1\n"
            "LOOKUP_TABLE default\n"
        )
        fh.write(cell_pressure)
