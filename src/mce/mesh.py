"""Macro triangulations and their six-way subdivision.

A macro mesh is a conforming triangulation whose triangles each carry one
pressure value. Subdivision joins every triangle's centroid to its corners
(first split) and then cuts each of those children by the line through the
two centroids sharing the edge (second split), producing 6 subtriangles per
macro triangle. On boundary edges the cut runs along the perpendicular from
the centroid to the edge.
"""

import math
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain, compress, count

import numpy as np

INTERIOR = ""
DEFAULT_BOUNDARY_TAG = "wall"

# endpoint margin below which a split point is considered degenerate
_SPLIT_MARGIN = 1e-10


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _cross2(a, b):
    """z-component of the cross product for 2D vectors (broadcasting)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def triangle_areas(vertices, triangles):
    """Signed areas of the given triangles (positive for CCW)."""
    p = vertices[triangles]
    return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


@dataclass(frozen=True)
class MacroMesh:
    """Conforming macro triangulation.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    edges : (ne, 2) int array of vertex pairs
    edge_tris : (ne, 2) int array, incident triangles in ascending order;
        second entry is -1 for boundary edges
    tri_edges : (nt, 3) int array, global edge index opposite local vertex i
    boundary_tags : tuple of str per edge, "" for interior edges
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    tri_edges: np.ndarray
    boundary_tags: tuple

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] < 0)

    def mesh_size(self):
        """h = 1/sqrt(NNO) with NNO the number of macro vertices (inf for
        none)."""
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(self.num_vertices)

    def with_vertices(self, vertices):
        """Same connectivity with new vertex coordinates."""
        vertices = np.asarray(vertices, dtype=float)
        if vertices.shape != self.vertices.shape:
            raise MeshError("vertex array shape mismatch")
        return replace(self, vertices=vertices)


def build_mesh(vertices, triangles, boundary_tags=None):
    """Assemble a MacroMesh from vertices, CCW triangles and optional
    boundary tags.

    Parameters
    ----------
    vertices : (nv, 2) array-like
    triangles : (nt, 3) array-like of vertex indices
    boundary_tags : dict mapping frozenset/tuple vertex pairs to tag strings;
        untagged boundary edges get DEFAULT_BOUNDARY_TAG.
    """
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
    triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        raise MeshError("triangle refers to a vertex index out of range")

    areas = triangle_areas(vertices, triangles)
    if np.any(areas <= 0):
        bad = int(np.flatnonzero(areas <= 0)[0])
        raise MeshError(f"non-positive area at triangle {bad}")

    # half-edge h = 3 t + loc runs from src to dst, opposite local vertex
    # loc; edges are numbered in order of first occurrence and keep the
    # orientation of their first triangle
    src = triangles[:, [1, 2, 0]].ravel()
    dst = triangles[:, [2, 0, 1]].ravel()
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    _, first, inverse, counts = np.unique(
        lo * len(vertices) + hi,
        return_index=True, return_inverse=True, return_counts=True,
    )
    # half-edges grouped by key, in traversal order within each group
    grouped = np.argsort(inverse, kind="stable")
    starts = np.cumsum(counts) - counts
    if counts.size and counts.max() > 2:
        h = grouped[starts[counts > 2] + 2].min()
        key = (lo[h], hi[h])
        raise MeshError(f"edge {key} shared by more than two triangles")
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    head = first[order]
    edges = np.column_stack([src[head], dst[head]])
    edge_tris = np.full((len(order), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = head // 3
    shared = np.flatnonzero(counts[order] == 2)
    edge_tris[shared, 1] = grouped[starts[order[shared]] + 1] // 3
    tri_edges = number[inverse].reshape(-1, 3)

    boundary = np.flatnonzero(edge_tris[:, 1] < 0)
    tags = np.full(len(edges), INTERIOR, dtype=object)
    tags[boundary] = DEFAULT_BOUNDARY_TAG
    if boundary_tags:
        lookup = {
            (min(a, b), max(a, b)): tag for (a, b), tag in boundary_tags.items()
        }
        index = dict(zip(
            zip(lo[head[boundary]].tolist(), hi[head[boundary]].tolist()),
            boundary.tolist(),
        ))
        for pair, tag in lookup.items():
            e = index.get(pair)
            if e is None:
                raise MeshError(f"boundary tag given for non-boundary edge {pair}")
            tags[e] = tag

    return MacroMesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        tri_edges=tri_edges,
        boundary_tags=tuple(tags.tolist()),
    )


def generate_unit_square_mesh(n):
    """Uniform n-by-n grid of the unit square, each cell split by its
    lower-left to upper-right diagonal. Sides are tagged bottom/right/top/left.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # vertex (i, j) has index j (n + 1) + i; cells run row by row, each
    # giving (ll, lr, ur) and (ll, ur, ul)
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ur, ul = ll + 1, ll + n + 2, ll + n + 1
    triangles = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)
    i = np.arange(n)
    sides = {
        "bottom": (i, i + 1),
        "top": (n * (n + 1) + i, n * (n + 1) + i + 1),
        "left": (i * (n + 1), (i + 1) * (n + 1)),
        "right": (i * (n + 1) + n, (i + 1) * (n + 1) + n),
    }
    tags = {
        pair: tag
        for tag, (a, b) in sides.items()
        for pair in zip(a.tolist(), b.tolist())
    }
    return build_mesh(vertices, triangles, tags)


COOK_CORNERS = np.array([[0.0, 0.0], [48.0, 44.0], [48.0, 60.0], [0.0, 44.0]])


def generate_cook_mesh(n):
    """Cook's membrane: bilinear image of the unit-square n-by-n grid onto the
    quadrilateral (0,0), (48,44), (48,60), (0,44). The x=0 side is tagged
    `clamped`, x=48 `loaded`, top and bottom `traction-free`.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    square = generate_unit_square_mesh(n)
    xi = square.vertices[:, 0]
    eta = square.vertices[:, 1]
    c00, c10, c11, c01 = COOK_CORNERS
    mapped = (
        np.outer((1 - xi) * (1 - eta), c00)
        + np.outer(xi * (1 - eta), c10)
        + np.outer(xi * eta, c11)
        + np.outer((1 - xi) * eta, c01)
    )
    rename = {"left": "clamped", "right": "loaded",
              "bottom": "traction-free", "top": "traction-free"}
    tags = tuple(rename.get(tag, tag) for tag in square.boundary_tags)
    return replace(square, vertices=mapped, boundary_tags=tags)


@dataclass(frozen=True)
class SubdividedMesh:
    """Six-way subdivision of a MacroMesh.

    Attributes
    ----------
    mesh : the macro mesh
    centroids : (nt, 2) centroid of each macro triangle
    edge_splits : (ne, 2) split point x_m per edge
    edge_nu : (ne, 2) global unit split direction per edge; points from the
        centroid of the lower-indexed incident triangle toward x_m
    """

    mesh: MacroMesh
    centroids: np.ndarray
    edge_splits: np.ndarray
    edge_nu: np.ndarray

    # subtriangle corner indices into the 7 local nodes
    # [v0, v1, v2, m0, m1, m2, centroid]; children (a, m_i, c), (m_i, b, c)
    # for edge i with CCW endpoints a = v_{i+1}, b = v_{i+2}
    SUBTRIANGLES = np.array(
        [[1, 3, 6], [3, 2, 6], [2, 4, 6], [4, 0, 6], [0, 5, 6], [5, 1, 6]]
    )

    def all_local_nodes(self):
        """Node coordinates for every triangle, shape (nt, 7, 2)."""
        mesh = self.mesh
        out = np.empty((mesh.num_triangles, 7, 2))
        out[:, :3] = mesh.vertices[mesh.triangles]
        out[:, 3:6] = self.edge_splits[mesh.tri_edges]
        out[:, 6] = self.centroids
        return out


def _dot(x, y):
    """Row-wise dot products of (k, 2) arrays. The stacked matmul runs the
    same dot kernel as np.dot on each pair of rows, so every value is
    bit-identical to np.dot(x[i], y[i]) (a row sum or einsum is not)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norm(x):
    """Row-wise Euclidean norms, bit-identical to np.linalg.norm(x[i])."""
    return np.sqrt(_dot(x, x))


def subdivide(mesh, boundary_split="perpendicular"):
    """Compute the SubdividedMesh of a MacroMesh.

    Interior edges split where the centroid-to-centroid segment crosses them.
    Boundary edges split at the perpendicular foot of the centroid
    (`boundary_split="perpendicular"`, the default) or at the edge midpoint
    (`"midpoint"`, needed for sheared meshes such as Cook's membrane where
    the foot can fall outside the edge). Raises MeshError for needle
    configurations where a split point falls within 1e-10 of an edge endpoint
    (relative to edge length) or the centroid segment misses the open edge;
    the message names the first such edge.
    """
    if boundary_split not in ("perpendicular", "midpoint"):
        raise ValueError(f"unknown boundary_split {boundary_split!r}")
    verts = mesh.vertices
    centroids = verts[mesh.triangles].mean(axis=1)
    ne = mesh.num_edges
    va = verts[mesh.edges[:, 0]]
    vb = verts[mesh.edges[:, 1]]
    ab = vb - va
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    inner = np.flatnonzero(t1 >= 0)
    outer = np.flatnonzero(t1 < 0)
    splits = np.empty((ne, 2))
    # t: split point along the edge; s: along the centroid segment
    t = np.full(ne, 0.5)
    s = np.full(ne, 0.5)
    parallel = np.zeros(ne, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        # c0 + s*d = va + t*ab
        c0 = centroids[t0[inner]]
        d = centroids[t1[inner]] - c0
        w = va[inner] - c0
        denom = _cross2(d, ab[inner])
        parallel[inner] = np.abs(denom) < 1e-14 * _norm(d) * _norm(ab[inner])
        s[inner] = _cross2(w, ab[inner]) / denom
        t[inner] = _cross2(w, d) / denom
        splits[inner] = va[inner] + t[inner, None] * ab[inner]
        if boundary_split == "midpoint":
            splits[outer] = 0.5 * (va[outer] + vb[outer])
        else:
            d = ab[outer]
            t[outer] = _dot(centroids[t0[outer]] - va[outer], d) / _dot(d, d)
            splits[outer] = va[outer] + t[outer, None] * d
    misses = ~((0.0 < s) & (s < 1.0))
    off_edge = ~((_SPLIT_MARGIN < t) & (t < 1.0 - _SPLIT_MARGIN))
    failed = np.flatnonzero(parallel | misses | off_edge)
    if failed.size:
        e = int(failed[0])
        if parallel[e]:
            raise MeshError(f"edge {e}: centroid segment parallel to edge")
        if misses[e]:
            raise MeshError(
                f"edge {e}: centroid-to-centroid segment does not cross "
                f"the shared edge (s={s[e]:.3g})"
            )
        if t1[e] < 0:
            raise MeshError(
                f"edge {e}: centroid projection falls outside the "
                f"open edge (t={t[e]:.3g}); mesh quality too poor"
            )
        raise MeshError(
            f"edge {e}: split point within {_SPLIT_MARGIN:g} of an "
            f"edge endpoint (t={t[e]:.3g}); mesh quality too poor"
        )
    nus = splits - centroids[t0]
    nus /= _norm(nus)[:, None]
    return SubdividedMesh(
        mesh=mesh, centroids=centroids, edge_splits=splits, edge_nu=nus
    )


# candidate (edge, vertex) pairs tested per batch in validate_mesh
_PAIR_CHUNK = 8192


def _expand(starts, sizes):
    """Enumerate (i, starts[i] + j) for 0 <= j < sizes[i], in order of i then
    j, at most _PAIR_CHUNK pairs at a time."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    for k0 in range(0, total, _PAIR_CHUNK):
        k = np.arange(k0, min(k0 + _PAIR_CHUNK, total))
        i = np.searchsorted(ends, k, side="right")
        yield i, starts[i] + k - (ends[i] - sizes[i])


def _hanging_pairs(verts, edges):
    """(edge, vertex) arrays, ordered by edge then vertex, of every vertex
    strictly inside an edge: 1e-9 < t < 1 - 1e-9 along it and squared
    distance below 1e-12 |e|^2 from its line.

    Only vertices in the edge's bounding box padded by 2e-6 |e|, twice the
    distance tolerance, can pass, so the test runs on the vertices of the
    cells of a uniform grid that the padded box meets. Edges or vertices
    with non-finite coordinates cannot pass and are left out.
    """
    pa = verts[edges[:, 0]]
    pb = verts[edges[:, 1]]
    d = pb - pa
    len2 = _dot(d, d)
    live = np.flatnonzero(np.isfinite(len2) & (len2 > 0.0))
    points = np.flatnonzero(np.isfinite(verts).all(axis=1))
    found_e, found_v = [], []
    if live.size and points.size:
        lo = verts[points].min(axis=0)
        span = verts[points].max(axis=0) - lo
        # about one vertex per cell
        cell = max(np.sqrt(span[0] * span[1] / points.size),
                   span.max() / points.size) or 1.0
        nx, ny = (span // cell).astype(np.int64) + 1

        def cell_index(x, axis, n):
            return np.clip(np.floor((x - lo[axis]) / cell), 0, n - 1).astype(
                np.int64)

        key = (cell_index(verts[points, 0], 0, nx) * ny
               + cell_index(verts[points, 1], 1, ny))
        sort = np.argsort(key, kind="stable")
        by_cell = points[sort]
        bounds = np.searchsorted(key[sort], np.arange(nx * ny + 1))

        pad = 2e-6 * np.sqrt(len2[live])
        box_lo = np.minimum(pa[live], pb[live]) - pad[:, None]
        box_hi = np.maximum(pa[live], pb[live]) + pad[:, None]
        ix0 = cell_index(box_lo[:, 0], 0, nx)
        ix1 = cell_index(box_hi[:, 0], 0, nx)
        iy0 = cell_index(box_lo[:, 1], 1, ny)
        iy1 = cell_index(box_hi[:, 1], 1, ny)
        # the cells (col, iy0..iy1) of one grid column are contiguous in
        # by_cell, so each (edge, column) pair is one range of vertices
        for j, col in _expand(ix0, ix1 - ix0 + 1):
            first = bounds[col * ny + iy0[j]]
            stop = bounds[col * ny + iy1[j] + 1]
            for q, pos in _expand(first, stop - first):
                e = live[j[q]]
                v = by_cell[pos]
                w = verts[v] - pa[e]
                t = _dot(w, d[e]) / len2[e]
                dist2 = np.sum((w - t[:, None] * d[e]) ** 2, axis=1)
                inside = (t > 1e-9) & (t < 1.0 - 1e-9) & (dist2 < 1e-12 * len2[e])
                inside &= (v != edges[e, 0]) & (v != edges[e, 1])
                found_e.append(e[inside])
                found_v.append(v[inside])
    e = np.concatenate(found_e or [np.empty(0, np.int64)])
    v = np.concatenate(found_v or [np.empty(0, np.int64)])
    order = np.lexsort((v, e))
    return e[order], v[order]


def validate_mesh(mesh):
    """Return a list of invariant violations (empty when the mesh is valid)."""
    report = []
    if mesh.num_triangles == 0:
        report.append("no triangles")
    for v in np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1)):
        report.append(f"non-finite vertex {v}")
    # a non-finite vertex is reported above; its nan or inf areas and
    # lengths below compare false and need not warn as well
    with np.errstate(invalid="ignore", over="ignore"):
        areas = triangle_areas(mesh.vertices, mesh.triangles)
        lengths = np.linalg.norm(
            mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]],
            axis=1,
        )
    for t in np.flatnonzero(areas <= 0):
        report.append(f"negative area at triangle {t}")
    scale = lengths.max() if len(lengths) else 1.0
    for e in np.flatnonzero(lengths <= 1e-14 * max(scale, 1.0)):
        report.append(f"degenerate edge {e} (coincident endpoints)")
    boundary = mesh.edge_tris[:, 1] < 0
    tagged = np.asarray(mesh.boundary_tags, dtype=object) != INTERIOR
    for e in np.flatnonzero(boundary != tagged):
        if boundary[e]:
            report.append(f"boundary edge {e} missing a tag")
        else:
            tag = mesh.boundary_tags[e]
            report.append(f"interior edge {e} carries boundary tag {tag!r}")
    counts = np.zeros(mesh.num_vertices, dtype=int)
    np.add.at(counts, mesh.triangles.ravel(), 1)
    for v in np.flatnonzero(counts == 0):
        report.append(f"dangling vertex {v}")
    # conformity: no vertex may sit strictly inside another edge (T-junction)
    for e, v in zip(*_hanging_pairs(mesh.vertices, mesh.edges)):
        report.append(f"hanging vertex {v} on edge {e}")
    return report


MESH_FORMAT_HEADER = "mce-mesh 1"


def write_mesh(mesh, stream=None):
    """Serialize to the line-oriented text format; returns the text when no
    stream is given. Vertex coordinates round-trip bit-exactly."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    tags = mesh.boundary_tags
    tagged = [e for e, tag in enumerate(tags) if tag]
    vertices = np.asarray(mesh.vertices, dtype=float)
    # %r of a Python float is its repr, as %d of a Python int is its str
    text = "".join([
        f"{MESH_FORMAT_HEADER}\nvertices {nv}\n",
        ("%r %r\n" * nv) % tuple(vertices.ravel().tolist()),
        f"triangles {nt}\n",
        ("%d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist()),
        f"boundary {len(tagged)}\n",
    ] + [
        f"{a} {b} {tags[e]}\n"
        for e, (a, b) in zip(tagged, mesh.edges[tagged].tolist())
    ])
    if stream is None:
        return text
    stream.write(text)
    return None


def _decode(data):
    """UTF-8 text of `data`; an undecodable byte is a MeshFormatError naming
    its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        # the bad byte is on the last line of head plus one character
        line = len((head + "x").splitlines())
        raise MeshFormatError(
            f"invalid UTF-8 byte {data[exc.start:exc.start + 1]!r}", line
        ) from None


# Per-row checks of each section, in the order the format applies them on
# one row. They only run when a section is cut short or fails to parse in
# batch, to name its earliest bad row.


def _check_vertex(row, line):
    parts = row.split()
    if len(parts) != 2:
        raise MeshFormatError(f"expected 'x y', got {row!r}", line)
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise MeshFormatError(f"bad coordinate in {row!r}", line) from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise MeshFormatError(f"non-finite coordinate in {row!r}", line)


def _check_triangle(row, line, nv):
    try:
        ijk = [int(p) for p in row.split()]
    except ValueError:
        raise MeshFormatError(f"bad triangle line {row!r}", line) from None
    if len(ijk) != 3:
        raise MeshFormatError(f"expected 'i j k', got {row!r}", line)
    for idx in ijk:
        if idx < 0 or idx >= nv:
            raise MeshFormatError(f"vertex index {idx} out of range", line)


def _check_boundary(row, line, nv):
    parts = row.split()
    if len(parts) != 3:
        raise MeshFormatError(f"expected 'i j tag', got {row!r}", line)
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError(f"bad boundary line {row!r}", line) from None
    if not (0 <= a < nv and 0 <= b < nv):
        raise MeshFormatError(f"vertex index out of range in {row!r}", line)


def _table(rows, width, convert, dtype):
    """(len(rows), width) array of convert(token) over the whitespace-
    separated tokens of `rows`; ValueError unless each row holds `width`.
    Tokens stream into the array: no list per row or per section is kept,
    which would set off garbage collection or add megabytes to the peak."""
    widths = np.fromiter(map(len, map(str.split, rows)), np.intp, len(rows))
    if np.any(widths != width):
        raise ValueError("row width")
    tokens = chain.from_iterable(map(str.split, rows))
    values = np.fromiter(map(convert, tokens), dtype, len(rows) * width)
    return values.reshape(-1, width)


def _in_range(index, nv):
    """`index` (int64) after checking that every entry lies in [0, nv)."""
    if index.size and (index.min() < 0 or index.max() >= nv):
        raise ValueError("vertex index out of range")
    return index


def _numbered_rows(text):
    """The non-blank lines of `text`, stripped, their 1-based line numbers
    and the number of lines. The full line lists die here, before any
    section is parsed."""
    lines = text.splitlines()
    stripped = list(map(str.strip, lines))
    rows = list(filter(None, stripped))
    return rows, array("q", compress(count(1), stripped)), len(lines)


def read_mesh(source):
    """Parse the text format back into a MacroMesh.

    Accepts a string, UTF-8 bytes, or a readable stream. Each section is
    tokenized and converted in one numpy call. Non-CCW triangles are
    reoriented with a warning; structural problems, non-finite coordinates
    and undecodable bytes raise MeshFormatError with the offending line
    number (the earliest one). A text stream that fails to decode its own
    bytes raises MeshFormatError naming the byte, without a line number.
    """
    if hasattr(source, "read"):
        try:
            source = source.read()
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.start + 1]
            raise MeshFormatError(
                f"invalid {exc.encoding} byte {bad!r}"
            ) from None
    if isinstance(source, bytes):
        source = _decode(source)
    rows, numbers, num_lines = _numbered_rows(source)

    def end_of_file():
        return MeshFormatError("unexpected end of file", num_lines)

    if not rows:
        raise end_of_file()
    if rows[0] != MESH_FORMAT_HEADER:
        raise MeshFormatError(
            f"expected header {MESH_FORMAT_HEADER!r}, got {rows[0]!r}",
            numbers[0],
        )
    pos = 1

    def section(name, parse, check):
        """parse(rows) of the next section's rows. When the section is cut
        short or fails to parse, `check` runs row by row and raises at the
        earliest bad row; a short section with no bad row is the end of
        file. Returns the parsed value and the section's first row index."""
        nonlocal pos
        if pos == len(rows):
            raise end_of_file()
        head = rows[pos]
        parts = head.split()
        if len(parts) != 2 or parts[0] != name or not parts[1].isdecimal():
            raise MeshFormatError(
                f"expected '{name} <count>', got {head!r}", numbers[pos]
            )
        start = pos + 1
        try:
            pos = start + int(parts[1])
        except ValueError:
            # more digits than int() reads: far beyond the end of the file
            pos = start + len(rows)
        body = rows[start:pos]
        try:
            if pos > len(rows):
                raise end_of_file()
            return parse(body), start
        except (ValueError, OverflowError, MeshFormatError):
            # a bad row before the end of file is the earlier error
            for row, line in zip(body, numbers[start:]):
                check(row, line)
            raise

    def parse_vertices(body):
        xy = _table(body, 2, float, float)
        if not np.isfinite(xy).all():
            raise ValueError("non-finite coordinate")
        return xy

    vertices, _ = section("vertices", parse_vertices, _check_vertex)
    nv = len(vertices)
    triangles, start = section(
        "triangles",
        lambda body: _in_range(_table(body, 3, int, np.int64), nv),
        lambda row, line: _check_triangle(row, line, nv),
    )
    flip = np.flatnonzero(triangle_areas(vertices, triangles) < 0)
    for i in flip.tolist():
        line = numbers[start + i]
        warnings.warn(f"line {line}: reorienting non-CCW triangle {i}")
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    def parse_boundary(body):
        table = _table(body, 3, str, object)
        pairs = np.array(list(map(int, table[:, :2].ravel())), np.int64)
        pairs = _in_range(pairs, nv).reshape(-1, 2).tolist()
        return dict(zip(map(tuple, pairs), table[:, 2].tolist()))

    tags, _ = section(
        "boundary",
        parse_boundary,
        lambda row, line: _check_boundary(row, line, nv),
    )

    try:
        return build_mesh(vertices, triangles, tags)
    except MeshError as exc:
        raise MeshFormatError(str(exc), None) from exc
