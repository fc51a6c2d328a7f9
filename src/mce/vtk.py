"""Binary legacy VTK output of solved fields on the subdivided mesh.

Points are the deduplicated subdivision nodes (macro vertices, edge split
nodes, interior nodes); every macro triangle contributes its 6 subtriangles as
cells. Velocity is point data; the per-macro-triangle pressure is cell
data replicated over the 6 children. The velocity is affine on each
subtriangle, so the file carries the discrete field exactly: points and
values are the solver's float64, stored as big-endian `double`, and the
cells as big-endian int32. Each section is one block of bytes followed by
a newline.
"""

import contextlib
import os

import numpy as np


def open_new(path, mode="w", newline=None):
    """Open `path` for writing as a new file. An existing file is unlinked
    first: rewriting one in place makes ext4 flush its old blocks when the
    file is closed, tens of milliseconds per megabyte."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, mode, newline=newline)


def _xyz(xy):
    """(n, 2) values as the (n, 3) big-endian doubles of a VTK block."""
    out = np.zeros((len(xy), 3), ">f8")
    out[:, :2] = xy
    return out


def _checked(name, values, size):
    values = np.asarray(values, float)
    if values.shape != (size,):
        raise ValueError(f"{name} has shape {values.shape}, but the space "
                         f"has {size} {name} values")
    return values


def write_vtk(solution, path, title="mce solution"):
    """Write a FieldSolution as binary legacy VTK 2.0 (triangle cells).

    Raises ValueError, naming the rule, for a title that is not one line
    of at most 256 characters (the legacy header line) and for a velocity
    or pressure whose length does not match the space."""
    if len(title) > 256 or "\n" in title or "\r" in title:
        raise ValueError("a VTK title must be one line of at most 256 "
                         f"characters, got {len(title)} characters "
                         f"in {len(title.splitlines())} lines")
    space = solution.space
    mesh, subdiv = space.mesh, space.subdiv
    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    coeffs = _checked("velocity", solution.velocity, space.n_velocity)
    pressure = (np.zeros(nt) if solution.pressure is None else
                _checked("pressure", solution.pressure, space.n_pressure))

    # global point ids (nt, 7) of every triangle's local nodes
    gids = np.hstack([mesh.triangles, nv + mesh.tri_edges,
                      (nv + ne + np.arange(nt))[:, None]])
    npoints, ncells = nv + ne + nt, 6 * nt
    points = np.vstack([mesh.vertices, subdiv.edge_splits, subdiv.centroids])
    cells = np.full((ncells, 4), 3, ">i4")
    cells[:, 1:] = gids[:, subdiv.SUBTRIANGLES].reshape(-1, 3)
    velocity = np.zeros((npoints, 2))
    node_values = space.tables.field_node_values(coeffs)  # (nt, 7, 2)
    velocity[gids.ravel()] = node_values.reshape(-1, 2)

    sections = [
        (f"# vtk DataFile Version 2.0\n{title}\nBINARY\n"
         f"DATASET UNSTRUCTURED_GRID\nPOINTS {npoints} double\n",
         _xyz(points)),
        (f"CELLS {ncells} {4 * ncells}\n", cells),
        (f"CELL_TYPES {ncells}\n", np.full(ncells, 5, ">i4")),
        (f"POINT_DATA {npoints}\nVECTORS velocity double\n", _xyz(velocity)),
        (f"CELL_DATA {ncells}\nSCALARS pressure double 1\n"
         "LOOKUP_TABLE default\n", np.repeat(pressure, 6).astype(">f8")),
    ]
    with open_new(path, "wb") as fh:
        for header, block in sections:
            fh.write(header.encode())
            fh.write(block.tobytes())
            fh.write(b"\n")
