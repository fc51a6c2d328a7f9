import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mce.mesh import (
    _SPLIT_MARGIN,
    COOK_CORNERS,
    DEFAULT_BOUNDARY_TAG,
    INTERIOR,
    MESH_FORMAT_HEADER,
    MacroMesh,
    MeshError,
    MeshFormatError,
    SubdividedMesh,
    _cross2,
    build_mesh,
    generate_cook_mesh,
    generate_unit_square_mesh,
    read_mesh,
    subdivide,
    triangle_areas,
    validate_mesh,
    write_mesh,
)


# Reference implementations: the per-edge loops that the batched code in
# mce.mesh replaced. The batched code must reproduce them exactly.


def reference_build_mesh(vertices, triangles, boundary_tags=None):
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
    triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    nt = len(triangles)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        raise MeshError("triangle refers to a vertex index out of range")

    areas = triangle_areas(vertices, triangles)
    if np.any(areas <= 0):
        bad = int(np.flatnonzero(areas <= 0)[0])
        raise MeshError(f"non-positive area at triangle {bad}")

    edge_index = {}
    edges = []
    edge_tris = []
    tri_edges = np.empty((nt, 3), dtype=np.int64)
    for t, (i, j, k) in enumerate(triangles):
        for loc, (a, b) in enumerate(((j, k), (k, i), (i, j))):
            key = (min(a, b), max(a, b))
            e = edge_index.get(key)
            if e is None:
                e = len(edges)
                edge_index[key] = e
                edges.append((a, b))
                edge_tris.append([t, -1])
            else:
                if edge_tris[e][1] >= 0:
                    raise MeshError(
                        f"edge {key} shared by more than two triangles"
                    )
                edge_tris[e][1] = t
            tri_edges[t, loc] = e
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edge_tris = np.asarray(edge_tris, dtype=np.int64).reshape(-1, 2)

    tags = [INTERIOR] * len(edges)
    lookup = {}
    if boundary_tags:
        lookup = {
            (min(a, b), max(a, b)): tag for (a, b), tag in boundary_tags.items()
        }
    for e, (a, b) in enumerate(edges):
        if edge_tris[e, 1] < 0:
            tags[e] = lookup.pop((min(a, b), max(a, b)), DEFAULT_BOUNDARY_TAG)
    if lookup:
        pair = next(iter(lookup))
        raise MeshError(f"boundary tag given for non-boundary edge {pair}")

    return MacroMesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        tri_edges=tri_edges,
        boundary_tags=tuple(tags),
    )


def _reference_boundary_split(a, b, c):
    d = b - a
    t = np.dot(c - a, d) / np.dot(d, d)
    return t, a + t * d


def reference_subdivide(mesh, boundary_split="perpendicular"):
    verts = mesh.vertices
    centroids = verts[mesh.triangles].mean(axis=1)
    ne = mesh.num_edges
    splits = np.empty((ne, 2))
    nus = np.empty((ne, 2))
    for e in range(ne):
        va, vb = verts[mesh.edges[e]]
        t0, t1 = mesh.edge_tris[e]
        if t1 < 0:
            if boundary_split == "midpoint":
                xm = 0.5 * (va + vb)
            else:
                t, xm = _reference_boundary_split(va, vb, centroids[t0])
                if not (_SPLIT_MARGIN < t < 1.0 - _SPLIT_MARGIN):
                    raise MeshError(
                        f"edge {e}: centroid projection falls outside the "
                        f"open edge (t={t:.3g}); mesh quality too poor"
                    )
        else:
            c0, c1 = centroids[t0], centroids[t1]
            d = c1 - c0
            ab = vb - va
            denom = _cross2(d, ab)
            if abs(denom) < 1e-14 * np.linalg.norm(d) * np.linalg.norm(ab):
                raise MeshError(f"edge {e}: centroid segment parallel to edge")
            s = _cross2(va - c0, ab) / denom
            t = _cross2(va - c0, d) / denom
            if not (0.0 < s < 1.0):
                raise MeshError(
                    f"edge {e}: centroid-to-centroid segment does not cross "
                    f"the shared edge (s={s:.3g})"
                )
            if not (_SPLIT_MARGIN < t < 1.0 - _SPLIT_MARGIN):
                raise MeshError(
                    f"edge {e}: split point within {_SPLIT_MARGIN:g} of an "
                    f"edge endpoint (t={t:.3g}); mesh quality too poor"
                )
            xm = va + t * ab
        splits[e] = xm
        nu = xm - centroids[t0]
        nus[e] = nu / np.linalg.norm(nu)
    return SubdividedMesh(
        mesh=mesh, centroids=centroids, edge_splits=splits, edge_nu=nus
    )


def reference_validate_mesh(mesh):
    report = []
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    for t in np.flatnonzero(areas <= 0):
        report.append(f"negative area at triangle {t}")
    lengths = np.linalg.norm(
        mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]], axis=1
    )
    scale = lengths.max() if len(lengths) else 1.0
    for e in np.flatnonzero(lengths <= 1e-14 * max(scale, 1.0)):
        report.append(f"degenerate edge {e} (coincident endpoints)")
    for e in range(mesh.num_edges):
        tag = mesh.boundary_tags[e]
        if mesh.edge_tris[e, 1] < 0 and not tag:
            report.append(f"boundary edge {e} missing a tag")
        if mesh.edge_tris[e, 1] >= 0 and tag:
            report.append(f"interior edge {e} carries boundary tag {tag!r}")
    counts = np.zeros(mesh.num_vertices, dtype=int)
    np.add.at(counts, mesh.triangles.ravel(), 1)
    for v in np.flatnonzero(counts == 0):
        report.append(f"dangling vertex {v}")
    verts = mesh.vertices
    for e, (a, b) in enumerate(mesh.edges):
        pa, pb = verts[a], verts[b]
        d = pb - pa
        len2 = float(d @ d)
        if len2 == 0.0:
            continue
        t = ((verts - pa) @ d) / len2
        dist2 = np.sum((verts - pa - np.outer(t, d)) ** 2, axis=1)
        margin = 1e-12 * len2
        inside = (t > 1e-9) & (t < 1.0 - 1e-9) & (dist2 < margin)
        inside[[a, b]] = False
        for v in np.flatnonzero(inside):
            report.append(f"hanging vertex {v} on edge {e}")
    return report


def unit_triangle_mesh():
    return build_mesh(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
        {(0, 1): "bottom", (1, 2): "hyp", (2, 0): "left"},
    )


def two_triangle_square():
    return build_mesh(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0, 1, 2], [0, 2, 3]],
    )


class TestGenerators:
    def test_counts_n1(self):
        m = generate_unit_square_mesh(1)
        assert m.num_vertices == 4
        assert m.num_triangles == 2
        assert m.num_edges == 5
        assert len(m.boundary_edges) == 4

    def test_counts_n2(self):
        m = generate_unit_square_mesh(2)
        assert m.num_vertices == 9
        assert m.num_triangles == 8
        assert m.num_edges == 16  # 3n^2 + 2n

    @pytest.mark.parametrize("n", range(1, 17))
    def test_counting_formulas(self, n):
        m = generate_unit_square_mesh(n)
        assert m.num_triangles == 2 * n * n
        assert m.num_vertices == (n + 1) ** 2
        assert m.num_edges == 3 * n * n + 2 * n

    def test_equal_areas_n4(self):
        m = generate_unit_square_mesh(4)
        areas = triangle_areas(m.vertices, m.triangles)
        np.testing.assert_allclose(areas, 1 / 32, rtol=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            generate_unit_square_mesh(0)
        with pytest.raises(MeshError):
            generate_cook_mesh(0)

    def test_cook_corners_n1(self):
        m = generate_cook_mesh(1)
        got = {tuple(v) for v in m.vertices}
        assert got == {tuple(c) for c in COOK_CORNERS}

    def test_cook_left_edge_midpoint(self):
        m = generate_cook_mesh(2)
        assert any(np.allclose(v, [0.0, 22.0]) for v in m.vertices)

    def test_cook_positive_areas(self):
        for n in (1, 2, 5):
            m = generate_cook_mesh(n)
            assert np.all(triangle_areas(m.vertices, m.triangles) > 0)

    def test_cook_tags(self):
        m = generate_cook_mesh(2)
        tags = {m.boundary_tags[e] for e in m.boundary_edges}
        assert tags == {"clamped", "loaded", "traction-free"}
        for e in m.boundary_edges:
            a, b = m.edges[e]
            if m.boundary_tags[e] == "clamped":
                assert np.allclose(m.vertices[[a, b], 0], 0.0)
            if m.boundary_tags[e] == "loaded":
                assert np.allclose(m.vertices[[a, b], 0], 48.0)


class TestSubdivide:
    def test_single_triangle_bottom_edge(self):
        m = unit_triangle_mesh()
        sub = subdivide(m)
        np.testing.assert_allclose(sub.centroids[0], [1 / 3, 1 / 3], rtol=1e-15)
        # bottom edge is (0,1)
        e = next(
            e for e in range(m.num_edges)
            if set(m.edges[e]) == {0, 1}
        )
        np.testing.assert_allclose(sub.edge_splits[e], [1 / 3, 0.0], atol=1e-15)
        np.testing.assert_allclose(sub.edge_nu[e], [0.0, -1.0], atol=1e-15)

    def test_shared_diagonal_split_at_center(self):
        m = two_triangle_square()
        sub = subdivide(m)
        e = next(
            e for e in range(m.num_edges)
            if set(m.edges[e]) == {0, 2}
        )
        np.testing.assert_allclose(sub.edge_splits[e], [0.5, 0.5], rtol=1e-14)

    @pytest.mark.parametrize("gen,n", [("square", 3), ("cook", 3)])
    def test_subtriangle_areas_partition(self, gen, n):
        if gen == "square":
            m, sub = generate_unit_square_mesh(n), None
            sub = subdivide(m)
        else:
            m = generate_cook_mesh(n)
            sub = subdivide(m, boundary_split="midpoint")
        macro = triangle_areas(m.vertices, m.triangles)
        for t in range(m.num_triangles):
            tris = sub.all_local_nodes()[t][sub.SUBTRIANGLES]
            areas = 0.5 * (
                (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
                - (tris[:, 1, 1] - tris[:, 0, 1]) * (tris[:, 2, 0] - tris[:, 0, 0])
            )
            assert np.all(areas > 0)
            assert np.sum(areas) == pytest.approx(macro[t], rel=1e-12)

    def test_interior_collinearity(self):
        m = generate_cook_mesh(4)
        sub = subdivide(m, boundary_split="midpoint")
        for e in range(m.num_edges):
            t0, t1 = m.edge_tris[e]
            if t1 < 0:
                continue
            c0, c1 = sub.centroids[t0], sub.centroids[t1]
            xm = sub.edge_splits[e]
            cross = (c1 - c0)[0] * (xm - c0)[1] - (c1 - c0)[1] * (xm - c0)[0]
            scale = np.linalg.norm(c1 - c0) * np.linalg.norm(xm - c0)
            assert abs(cross) <= 1e-12 * max(scale, 1e-30)

    def test_nu_recomputable_and_oriented(self):
        m = generate_cook_mesh(3)
        sub = subdivide(m, boundary_split="midpoint")
        for e in range(m.num_edges):
            t0 = m.edge_tris[e, 0]
            d = sub.edge_splits[e] - sub.centroids[t0]
            np.testing.assert_allclose(
                sub.edge_nu[e], d / np.linalg.norm(d), atol=1e-13
            )
            assert sub.edge_nu[e] @ d > 0
            assert np.linalg.norm(sub.edge_nu[e]) == pytest.approx(1.0, rel=1e-14)

    def test_needle_mesh_rejected(self):
        # centroid projects outside the short edge of a sliver
        m = build_mesh(
            [[0.0, 0.0], [1.0, 0.0], [10.0, 0.4]], [[0, 1, 2]]
        )
        with pytest.raises(MeshError):
            subdivide(m)

    def test_cook_needs_midpoint_rule(self):
        # sheared right-edge cells put the perpendicular foot outside the edge
        m = generate_cook_mesh(3)
        with pytest.raises(MeshError):
            subdivide(m)
        subdivide(m, boundary_split="midpoint")


class TestValidate:
    def test_valid_mesh_empty_report(self):
        assert validate_mesh(generate_unit_square_mesh(3)) == []
        assert validate_mesh(generate_cook_mesh(2)) == []

    def test_flipped_triangle_reported(self):
        m = generate_unit_square_mesh(1)
        bad = m.triangles.copy()
        bad[1] = bad[1, ::-1]
        flipped = type(m)(
            vertices=m.vertices, triangles=bad, edges=m.edges,
            edge_tris=m.edge_tris, tri_edges=m.tri_edges,
            boundary_tags=m.boundary_tags,
        )
        report = validate_mesh(flipped)
        assert any("negative area at triangle 1" in r for r in report)

    def test_duplicated_vertex_degenerate_edge(self):
        m = generate_unit_square_mesh(1)
        verts = m.vertices.copy()
        verts[1] = verts[0]
        report = validate_mesh(m.with_vertices(verts))
        assert any("degenerate edge" in r for r in report)

    def test_hanging_vertex_detected(self):
        # vertex 4 sits in the middle of the (0,1) edge of triangle (0,1,3)
        m = build_mesh(
            [[0.0, 0.0], [2.0, 0.0], [1.0, -1.0], [0.0, 2.0], [1.0, 0.0]],
            [[0, 1, 3], [0, 2, 4], [4, 2, 1]],
        )
        report = validate_mesh(m)
        assert any("hanging vertex 4" in r for r in report)


class TestIO:
    def test_small_file_roundtrip_counts(self):
        m = two_triangle_square()
        text = write_mesh(m)
        m2 = read_mesh(text)
        assert m2.num_edges == 5

    def test_roundtrip_bit_exact(self):
        m = generate_unit_square_mesh(3)
        m2 = read_mesh(write_mesh(m))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.edges, m2.edges)
        assert m.boundary_tags == m2.boundary_tags

    def test_roundtrip_via_stream_and_bytes(self):
        m = generate_cook_mesh(2)
        buf = io.StringIO()
        write_mesh(m, buf)
        m2 = read_mesh(buf.getvalue().encode("ascii"))
        assert np.array_equal(m.vertices, m2.vertices)

    def test_out_of_range_index_names_line(self):
        text = "mce-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 9\nboundary 0\n"
        with pytest.raises(MeshFormatError) as err:
            read_mesh(text)
        assert "line 7" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(MeshFormatError):
            read_mesh("nope 2\n")

    def test_non_ccw_reoriented_with_warning(self):
        text = "mce-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\nboundary 0\n"
        with pytest.warns(UserWarning):
            m = read_mesh(text)
        assert triangle_areas(m.vertices, m.triangles)[0] > 0

    def test_untagged_boundary_defaults_to_wall(self):
        text = "mce-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 1\n0 1 bottom\n"
        m = read_mesh(text)
        tags = sorted(t for t in m.boundary_tags if t)
        assert tags == ["bottom", "wall", "wall"]


def reference_unit_square(n):
    """Inputs of the unit-square grid as the per-cell loop built them."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ur, ul = vid(i + 1, j + 1), vid(i, j + 1)
            triangles.append((ll, lr, ur))
            triangles.append((ll, ur, ul))
    tags = {}
    for i in range(n):
        tags[(vid(i, 0), vid(i + 1, 0))] = "bottom"
        tags[(vid(i, n), vid(i + 1, n))] = "top"
        tags[(vid(0, i), vid(0, i + 1))] = "left"
        tags[(vid(n, i), vid(n, i + 1))] = "right"
    return vertices, triangles, tags


def mesh_inputs(mesh):
    """Vertices, triangles and boundary tag dict that rebuild `mesh`."""
    tags = {
        tuple(mesh.edges[e].tolist()): mesh.boundary_tags[e]
        for e in mesh.boundary_edges
    }
    return mesh.vertices, mesh.triangles, tags


def jittered_inputs(n, seed, jitter=0.25):
    """Unit-square grid with every interior vertex moved by up to jitter*h
    in a seeded random direction."""
    vertices, triangles, tags = reference_unit_square(n)
    vertices = vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    k = int(interior.sum())
    radius = (jitter / n) * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    vertices[interior] += radius[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    return vertices, triangles, tags


def shuffled_inputs(n, seed):
    """Jittered grid with its triangles in random order, each starting at a
    random corner (orientation kept)."""
    vertices, triangles, tags = jittered_inputs(n, seed)
    rng = np.random.default_rng(seed + 100)
    tris = np.asarray(triangles)[rng.permutation(len(triangles))]
    shift = rng.integers(0, 3, len(tris))
    tris = np.array([np.roll(t, -k) for t, k in zip(tris, shift)])
    return vertices, tris, tags


INPUTS = {
    "square-1": lambda: reference_unit_square(1),
    "square-3": lambda: reference_unit_square(3),
    "square-16": lambda: reference_unit_square(16),
    "cook-2": lambda: mesh_inputs(generate_cook_mesh(2)),
    "cook-16": lambda: mesh_inputs(generate_cook_mesh(16)),
    "jittered-12-seed0": lambda: jittered_inputs(12, 0),
    "jittered-12-seed1": lambda: jittered_inputs(12, 1),
    "jittered-20-seed2": lambda: jittered_inputs(20, 2),
    "jittered-9-strong": lambda: jittered_inputs(9, 3, jitter=0.45),
    "shuffled-10-seed4": lambda: shuffled_inputs(10, 4),
    "shuffled-15-seed5": lambda: shuffled_inputs(15, 5),
}


def reference_cook_mesh(n):
    """Cook's membrane as built before the generator reused the square's
    edge table: map the grid, rename the side tags, run build_mesh again."""
    square = generate_unit_square_mesh(n)
    xi, eta = square.vertices[:, 0], square.vertices[:, 1]
    c00, c10, c11, c01 = COOK_CORNERS
    mapped = (
        np.outer((1 - xi) * (1 - eta), c00)
        + np.outer(xi * (1 - eta), c10)
        + np.outer(xi * eta, c11)
        + np.outer((1 - xi) * eta, c01)
    )
    rename = {"left": "clamped", "right": "loaded",
              "bottom": "traction-free", "top": "traction-free"}
    tags = {}
    for e, tag in enumerate(square.boundary_tags):
        if tag:
            a, b = square.edges[e]
            tags[(a, b)] = rename[tag]
    return build_mesh(mapped, square.triangles, tags)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_mesh(mesh, ref):
    for name in ("vertices", "triangles", "edges", "edge_tris", "tri_edges"):
        assert_bitwise(getattr(mesh, name), getattr(ref, name))
    assert mesh.boundary_tags == ref.boundary_tags


def outcome(fn, *args, **kwargs):
    """The result of fn, or the text of the MeshError it raises."""
    try:
        return fn(*args, **kwargs)
    except MeshError as exc:
        return f"MeshError: {exc}"


class TestAgainstReference:
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_unit_square_generator(self, n):
        assert_same_mesh(
            generate_unit_square_mesh(n),
            reference_build_mesh(*reference_unit_square(n)),
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_cook_generator(self, n):
        mesh = generate_cook_mesh(n)
        assert_same_mesh(mesh, reference_cook_mesh(n))
        assert np.all(triangle_areas(mesh.vertices, mesh.triangles) > 0)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_build_mesh(self, name):
        inputs = INPUTS[name]()
        assert_same_mesh(build_mesh(*inputs), reference_build_mesh(*inputs))

    @pytest.mark.parametrize("split", ["perpendicular", "midpoint"])
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_subdivide(self, name, split):
        mesh = reference_build_mesh(*INPUTS[name]())
        got = outcome(subdivide, mesh, boundary_split=split)
        ref = outcome(reference_subdivide, mesh, boundary_split=split)
        if isinstance(ref, str):
            assert got == ref
            return
        assert_bitwise(got.centroids, ref.centroids)
        assert_bitwise(got.edge_splits, ref.edge_splits)
        assert_bitwise(got.edge_nu, ref.edge_nu)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_validate_mesh(self, name):
        mesh = reference_build_mesh(*INPUTS[name]())
        assert validate_mesh(mesh) == reference_validate_mesh(mesh) == []

    def test_cook_perpendicular_names_edge_9(self):
        mesh = generate_cook_mesh(3)
        got = outcome(subdivide, mesh)
        assert got == outcome(reference_subdivide, mesh)
        assert got.startswith("MeshError: edge 9: centroid projection falls")


def _two_on_one_side(third):
    # triangles (0, 1, 2) and (0, 1, 3) both lie above their shared edge
    return build_mesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], third],
                      [[0, 1, 2], [0, 1, 3]])


SUBDIVIDE_FAILURES = {
    "needle": (
        lambda: build_mesh([[0.0, 0.0], [1.0, 0.0], [10.0, 0.4]], [[0, 1, 2]]),
        "centroid projection falls outside",
    ),
    "parallel": (lambda: _two_on_one_side([2.0, 1.0]), "parallel"),
    "not-crossing": (lambda: _two_on_one_side([0.5, 2.0]), "does not cross"),
    "split-off-edge": (
        lambda: build_mesh([[0.0, 0.0], [1.0, 0.0], [5.0, 0.1], [4.0, -0.1]],
                           [[0, 1, 2], [1, 0, 3]]),
        "split point within",
    ),
}


class TestFailuresAgainstReference:
    @pytest.mark.parametrize("name", sorted(SUBDIVIDE_FAILURES))
    def test_subdivide_message(self, name):
        make, text = SUBDIVIDE_FAILURES[name]
        mesh = make()
        got = outcome(subdivide, mesh)
        assert got == outcome(reference_subdivide, mesh)
        assert text in got

    def test_three_triangles_on_one_edge(self):
        inputs = (
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]],
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
        )
        got = outcome(build_mesh, *inputs)
        assert got == outcome(reference_build_mesh, *inputs)
        assert "shared by more than two triangles" in got

    def test_duplicated_triangles_name_first_overfull_edge(self):
        vertices, triangles, _ = jittered_inputs(6, 7)
        tris = list(triangles)
        tris.insert(40, tris[23])
        tris.append(tris[9])
        got = outcome(build_mesh, vertices, tris)
        assert got == outcome(reference_build_mesh, vertices, tris)
        assert "shared by more than two triangles" in got

    def test_tag_on_interior_edge(self):
        vertices, triangles, tags = reference_unit_square(3)
        tags = {(0, 1): "bottom", (0, 5): "oops", (6, 1): "oops2", **tags}
        got = outcome(build_mesh, vertices, triangles, tags)
        assert got == outcome(reference_build_mesh, vertices, triangles, tags)
        assert "non-boundary edge (0, 5)" in got


def _flipped(mesh, t):
    bad = mesh.triangles.copy()
    bad[t] = bad[t, ::-1]
    return replace(mesh, triangles=bad)


def _retagged(mesh, pick, tag):
    tags = list(mesh.boundary_tags)
    for e in pick(mesh):
        tags[e] = tag
    return replace(mesh, boundary_tags=tuple(tags))


def _with_loose_vertices(mesh, points):
    # the new vertices belong to no triangle
    return replace(mesh, vertices=np.vstack([mesh.vertices, points]))


def _duplicated_vertex(mesh):
    verts = mesh.vertices.copy()
    verts[1] = verts[0]
    return mesh.with_vertices(verts)


BROKEN = {
    "hanging": lambda: build_mesh(
        [[0.0, 0.0], [2.0, 0.0], [1.0, -1.0], [0.0, 2.0], [1.0, 0.0]],
        [[0, 1, 3], [0, 2, 4], [4, 2, 1]],
    ),
    # on edges, in an order unlike that of the edges: the report is sorted
    # by edge, then vertex
    "dangling-on-edges": lambda: _with_loose_vertices(
        generate_unit_square_mesh(4),
        [[0.75, 0.375], [0.5, 0.625], [0.125, 0.0], [0.5, 0.5 + 1e-12],
         [0.0, 0.4], [0.3, 0.3]],
    ),
    # two vertices hang just off the x = 0.5 and y = 0.5 edges, within the
    # 1e-6 |e| tolerance; with 16 vertices in the unit square validate_mesh
    # uses cells of 1/4, so they sit across a cell boundary from their edge
    "off-line-within-tolerance": lambda: _with_loose_vertices(
        generate_unit_square_mesh(2),
        [[0.5 - 2e-7, 0.2], [0.25, 0.5 - 1e-7], [0.1, 0.2], [0.9, 0.2],
         [0.2, 0.9], [0.6, 0.8], [0.8, 0.6]],
    ),
    "flipped": lambda: _flipped(generate_unit_square_mesh(3), 5),
    "duplicated-vertex": lambda: _duplicated_vertex(generate_unit_square_mesh(3)),
    "untagged-boundary": lambda: _retagged(
        generate_unit_square_mesh(3), lambda m: m.boundary_edges[[0, 4]], ""),
    "tagged-interior": lambda: _retagged(
        generate_unit_square_mesh(3),
        lambda m: np.flatnonzero(m.edge_tris[:, 1] >= 0)[[2, 7]], "inner"),
    "jittered-dangling": lambda: _with_loose_vertices(
        reference_build_mesh(*jittered_inputs(12, 8)),
        reference_build_mesh(*jittered_inputs(12, 8)).vertices[[30, 2, 77]]
        + [[0.0, 0.0], [0.0, 0.0], [1e-3, 0.0]],
    ),
}


class TestValidateAgainstReference:
    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_reports_match(self, name):
        mesh = BROKEN[name]()
        report = validate_mesh(mesh)
        assert report
        assert report == reference_validate_mesh(mesh)

    def test_loose_vertices_on_edges_reported_in_edge_order(self):
        report = validate_mesh(BROKEN["dangling-on-edges"]())
        hanging = [r for r in report if r.startswith("hanging")]
        assert len(hanging) == 5
        edges = [int(r.split()[-1]) for r in hanging]
        assert edges == sorted(edges)


# Reference text I/O: the per-line reader and writer that the section-wise
# read_mesh and write_mesh replaced. Where the reference accepts an input,
# the batched code must return a bitwise-equal mesh with the same warnings;
# where it raises MeshFormatError, the same message and line.


def reference_write_mesh(mesh):
    lines = [MESH_FORMAT_HEADER, f"vertices {mesh.num_vertices}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines.append(f"triangles {mesh.num_triangles}")
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    tagged = [
        (a, b, mesh.boundary_tags[e])
        for e, (a, b) in enumerate(mesh.edges)
        if mesh.boundary_tags[e]
    ]
    lines.append(f"boundary {len(tagged)}")
    lines += [f"{a} {b} {tag}" for a, b, tag in tagged]
    return "\n".join(lines) + "\n"


def reference_read_mesh(source):
    lines = source.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            pos += 1
            stripped = lines[pos - 1].strip()
            if stripped:
                return stripped, pos
        raise MeshFormatError("unexpected end of file", len(lines))

    header, ln = next_line()
    if header != MESH_FORMAT_HEADER:
        raise MeshFormatError(
            f"expected header {MESH_FORMAT_HEADER!r}, got {header!r}", ln
        )

    def section(name):
        text, ln = next_line()
        parts = text.split()
        if len(parts) != 2 or parts[0] != name or not parts[1].isdigit():
            raise MeshFormatError(f"expected '{name} <count>', got {text!r}", ln)
        return int(parts[1])

    nv = section("vertices")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        text, ln = next_line()
        parts = text.split()
        if len(parts) != 2:
            raise MeshFormatError(f"expected 'x y', got {text!r}", ln)
        try:
            vertices[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(f"bad coordinate in {text!r}", ln) from None

    nt = section("triangles")
    triangles = np.empty((nt, 3), dtype=np.int64)
    for i in range(nt):
        text, ln = next_line()
        parts = text.split()
        try:
            ijk = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"bad triangle line {text!r}", ln) from None
        if len(ijk) != 3:
            raise MeshFormatError(f"expected 'i j k', got {text!r}", ln)
        for idx in ijk:
            if idx < 0 or idx >= nv:
                raise MeshFormatError(f"vertex index {idx} out of range", ln)
        p = vertices[ijk]
        if 0.5 * _cross2(p[1] - p[0], p[2] - p[0]) < 0:
            warnings.warn(f"line {ln}: reorienting non-CCW triangle {i}")
            ijk = [ijk[0], ijk[2], ijk[1]]
        triangles[i] = ijk

    nb = section("boundary")
    tags = {}
    for _ in range(nb):
        text, ln = next_line()
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError(f"expected 'i j tag', got {text!r}", ln)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad boundary line {text!r}", ln) from None
        if not (0 <= a < nv and 0 <= b < nv):
            raise MeshFormatError(f"vertex index out of range in {text!r}", ln)
        tags[(a, b)] = parts[2]

    try:
        return build_mesh(vertices, triangles, tags)
    except MeshError as exc:
        raise MeshFormatError(str(exc), None) from exc


def read_outcome(read, source):
    """(mesh or 'line: message' of the MeshFormatError, warning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(source)
        except MeshFormatError as exc:
            result = f"{exc.line}: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_read(text):
    got, got_warnings = read_outcome(read_mesh, text)
    ref, ref_warnings = read_outcome(reference_read_mesh, text)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert_same_mesh(got, ref)
        assert got_warnings == ref_warnings
    return got, got_warnings


def _padded(text):
    """The same mesh with blank and whitespace-only lines, tabs, padding and
    CRLF line ends."""
    out = []
    for k, line in enumerate(text.splitlines()):
        if k % 3 == 0:
            out.append("")
        if k % 5 == 1:
            out.append(" \t \x0c")
        if k:
            line = line.replace(" ", "\t" if k % 2 else " \t  ")
        out.append(f"  {line}\t" if k % 4 == 2 else line)
    return "\r\n".join(out) + "\n\n \t\n"


def _text_of(inputs):
    return reference_write_mesh(reference_build_mesh(*inputs))


# coordinates 1_0 = 10, \uff110 = 10 (fullwidth one), +0, 1e-3; separators
# include a no-break and an ideographic space
ODD_TOKENS = (
    "mce-mesh 1\nvertices 4\n0 0\n1_0 +0\n\uff110\t1e-3\n\xa00\u3000 1e-3\n"
    "triangles 2\n+0 \uff11 2\n0 2 3\nboundary 2\n0_0 +1 bottom\n 3 0 left\n"
)

VALID_TEXTS = {
    "square-1": lambda: reference_write_mesh(generate_unit_square_mesh(1)),
    "square-3": lambda: reference_write_mesh(generate_unit_square_mesh(3)),
    "square-64": lambda: reference_write_mesh(generate_unit_square_mesh(64)),
    "cook-2": lambda: reference_write_mesh(generate_cook_mesh(2)),
    "cook-7": lambda: reference_write_mesh(generate_cook_mesh(7)),
    "jittered-12-seed0": lambda: _text_of(jittered_inputs(12, 0)),
    "jittered-20-seed2": lambda: _text_of(jittered_inputs(20, 2)),
    "jittered-9-strong": lambda: _text_of(jittered_inputs(9, 3, jitter=0.45)),
    "shuffled-10-seed4": lambda: _text_of(shuffled_inputs(10, 4)),
    "shuffled-15-seed5": lambda: _text_of(shuffled_inputs(15, 5)),
    "flipped": lambda: reference_write_mesh(
        _flipped(_flipped(_flipped(generate_unit_square_mesh(4), 9), 2), 30)),
    "padded-cook-3": lambda: _padded(reference_write_mesh(generate_cook_mesh(3))),
    "padded-flipped": lambda: _padded(reference_write_mesh(
        _flipped(generate_unit_square_mesh(3), 4))),
    "odd-tokens": lambda: ODD_TOKENS,
    "untagged": lambda: (
        "mce-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 0\n"
    ),
    "tag-given-twice": lambda: (
        "mce-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n"
        "boundary 3\n0 1 a\n2 0 b\n1 0 c\n"
    ),
    "trailing-lines": lambda: (
        reference_write_mesh(generate_unit_square_mesh(2)) + "\n# notes\n1 2 3\n"
    ),
    # Arabic-Indic digit four: a decimal digit, which int() reads
    "count-in-other-script": lambda: _edit({2: "vertices \u0664"}),
    "empty-mesh": lambda: "mce-mesh 1\nvertices 0\ntriangles 0\nboundary 0\n",
}

# two triangles on the unit square; line numbers are those of this text
SQUARE = (
    "mce-mesh 1\nvertices 4\n0 0\n1 0\n1 1\n0 1\n"
    "triangles 2\n0 1 2\n0 2 3\nboundary 1\n0 1 bottom\n"
)


SQUARE_16 = reference_write_mesh(generate_unit_square_mesh(16))


def _edit(changes, text=SQUARE):
    """`text` with line k (1-based) replaced by changes[k]; None deletes it."""
    lines = text.splitlines()
    for k, new in changes.items():
        lines[k - 1] = new
    return "\n".join(line for line in lines if line is not None) + "\n"


def _cut(after, text=SQUARE, tail=""):
    return "\n".join(text.splitlines()[:after]) + "\n" + tail


BROKEN_TEXTS = {
    "empty": "",
    "blank-only": "\n  \n\t\n",
    "bad-header": "nope 2\n",
    "header-only": "mce-mesh 1\n\n",
    "count-missing": _edit({2: "vertices"}),
    "count-negative": _edit({2: "vertices -4"}),
    "count-word": _edit({2: "vertices four"}),
    "count-twice": _edit({2: "vertices 4 4"}),
    "section-misnamed": _edit({2: "vertex 4"}),
    "vertex-width-1": _edit({4: "1"}),
    "vertex-width-3": _edit({4: "1 0 0"}),
    "vertex-bad-float": _edit({4: "1 zero"}),
    "vertex-width-before-float": _edit({4: "a b c"}),
    "triangle-bad-int": _edit({8: "0 1 two"}),
    "triangle-float-index": _edit({8: "0 1 2.0"}),
    "triangle-parse-before-width": _edit({8: "0 1 x 5"}),
    "triangle-width": _edit({8: "0 1"}),
    "triangle-width-before-range": _edit({8: "0 9"}),
    "triangle-index-high": _edit({9: "0 2 4"}),
    "triangle-index-negative": _edit({9: "0 -1 3"}),
    "triangle-index-huge": _edit({9: "0 2 99999999999999999999999"}),
    "boundary-width": _edit({11: "0 1"}),
    "boundary-bad-int": _edit({11: "0 x bottom"}),
    "boundary-index": _edit({11: "0 7 bottom"}),
    "boundary-index-huge": _edit({11: "0 99999999999999999999999 bottom"}),
    "eof-in-vertices": _cut(4),
    "eof-in-vertices-blank-tail": _cut(5, tail="\n \n\n"),
    "eof-in-triangles": _cut(8),
    "eof-before-boundary": _cut(9),
    "eof-in-boundary": _cut(10),
    "count-runs-into-next-section": _edit({7: "triangles 3"}),
    "vertex-count-runs-into-triangles": _edit({2: "vertices 5"}),
    "short-vertex-section-bad-row": _cut(6, _edit({2: "vertices 40", 5: "1 x"})),
    "zero-area": _edit({9: "0 2 2"}),
    "tag-on-interior-edge": _edit({11: "0 2 diagonal"}),
    "edge-in-three-triangles": (
        "mce-mesh 1\nvertices 5\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n"
        "triangles 3\n0 1 2\n1 0 3\n0 1 4\nboundary 0\n"
    ),
    # errors of different kinds on different lines: the earliest line wins
    "float-then-width": _edit({4: "1 x", 6: "0"}),
    "width-then-float": _edit({4: "0", 6: "1 x"}),
    "range-then-parse": _edit({8: "0 1 7", 9: "0 x 3"}),
    "parse-then-range": _edit({8: "0 x 3", 9: "0 1 7"}),
    "width-then-parse": _edit({8: "0 1", 9: "0 1 x"}),
    "range-then-width": _edit({8: "0 1 7", 9: "0 1"}),
    "vertex-before-triangle": _edit({5: "1", 8: "0 1 9"}),
    "flipped-then-range": _edit({8: "0 2 1", 9: "0 1 9"}),
    # errors deep in a long section
    "late-vertex": _edit({272: "0.5"}, SQUARE_16),
    "late-triangles": _edit({553: "0 1 999", 563: "0 1"}, SQUARE_16),
    # a non-finite coordinate on a later line, or after a parse error on its
    # own line, does not move the reported error
    "width-then-non-finite": _edit({4: "1", 6: "nan 0"}),
    "non-finite-and-bad-float": _edit({4: "nan x"}),
    "width-then-inf": _edit({3: "0 0 0", 4: "inf 0"}),
    "count-not-decimal": _edit({2: "vertices \u0663x"}),
    "boundary-width-then-range": _edit(
        {10: "boundary 2", 11: "0 1", 12: "0 9 x"},
        SQUARE + "0 1 bottom\n"),
}


class TestTextIOAgainstReference:
    @pytest.mark.parametrize("name", sorted(VALID_TEXTS))
    def test_valid_text(self, name):
        text = VALID_TEXTS[name]()
        mesh, caught = assert_same_read(text)
        assert isinstance(mesh, MacroMesh)
        for source in (text.encode("utf-8"), io.StringIO(text)):
            again, again_caught = read_outcome(read_mesh, source)
            assert_same_mesh(again, mesh)
            assert again_caught == caught

    def test_warnings_in_order(self):
        _, caught = assert_same_read(VALID_TEXTS["flipped"]())
        assert [text for _, text in caught] == [
            "line 31: reorienting non-CCW triangle 2",
            "line 38: reorienting non-CCW triangle 9",
            "line 59: reorienting non-CCW triangle 30",
        ]

    def test_failed_parse_warns_nothing(self):
        # triangles are reoriented only once their whole section parses, so
        # a later bad row leaves no warning for an earlier flipped one (the
        # per-line reader warned before it raised)
        text = BROKEN_TEXTS["flipped-then-range"]
        got, caught = read_outcome(read_mesh, text)
        ref, ref_caught = read_outcome(reference_read_mesh, text)
        assert got == ref == "9: line 9: vertex index 9 out of range"
        assert caught == [] and len(ref_caught) == 1

    def test_padded_warning_names_padded_line(self):
        _, caught = assert_same_read(VALID_TEXTS["padded-flipped"]())
        assert len(caught) == 1
        assert caught[0][1].endswith("reorienting non-CCW triangle 4")

    def test_odd_tokens(self):
        mesh, _ = assert_same_read(ODD_TOKENS)
        assert mesh.vertices.tolist() == [
            [0.0, 0.0], [10.0, 0.0], [10.0, 1e-3], [0.0, 1e-3]]
        assert sorted(set(mesh.boundary_tags)) == ["", "bottom", "left", "wall"]

    @pytest.mark.parametrize("name", sorted(BROKEN_TEXTS))
    def test_broken_text(self, name):
        text = BROKEN_TEXTS[name]
        got, _ = assert_same_read(text)
        assert isinstance(got, str)

    @pytest.mark.parametrize("name, line", [
        ("float-then-width", 4), ("width-then-float", 4),
        ("range-then-parse", 8), ("parse-then-range", 8),
        ("width-then-parse", 8), ("range-then-width", 8),
        ("vertex-before-triangle", 5), ("flipped-then-range", 9),
        ("boundary-width-then-range", 11), ("width-then-non-finite", 4),
        ("non-finite-and-bad-float", 4), ("width-then-inf", 3),
        ("late-vertex", 272), ("late-triangles", 553),
        ("short-vertex-section-bad-row", 5), ("eof-in-vertices-blank-tail", 8),
    ])
    def test_named_line(self, name, line):
        with pytest.raises(MeshFormatError) as err:
            read_mesh(BROKEN_TEXTS[name])
        assert err.value.line == line

    @pytest.mark.parametrize("name", sorted(VALID_TEXTS))
    def test_write_mesh_byte_identical(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mesh = reference_read_mesh(VALID_TEXTS[name]())
        text = reference_write_mesh(mesh)
        assert write_mesh(mesh) == text
        buf = io.StringIO()
        assert write_mesh(mesh, buf) is None
        assert buf.getvalue() == text

    def test_write_mesh_skips_untagged_edges(self):
        mesh = _retagged(generate_unit_square_mesh(3),
                         lambda m: m.boundary_edges[[0, 4, 5]], "")
        assert write_mesh(mesh) == reference_write_mesh(mesh)
        assert "boundary 9\n" in write_mesh(mesh)


def _section_text(count_line, rows=()):
    return "mce-mesh 1\n" + count_line + "\n" + "".join(r + "\n" for r in rows)


class TestNewRejections:
    """Inputs the per-line reader let through or failed on with an exception
    other than MeshFormatError."""

    @pytest.mark.parametrize("data, line", [
        (b"mce-mesh 1\nvertices 4\n0 0\n1 \xff\n", 4),
        (b"mce-mesh 1\r\nvertices 1\r\n\r\n0 0\r1\xc3\n", 5),
        (b"\xef\xbb\xbfmce-mesh 1\n\x80", 2),
        (b"mce-mesh 1\nvertices 1\n0 \xe2\x82", 3),
    ])
    def test_invalid_utf8_names_line(self, data, line):
        with pytest.raises(MeshFormatError) as err:
            read_mesh(data)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: invalid UTF-8 byte")

    def test_undecodable_text_stream(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_bytes(b"mce-mesh 1\nvertices 4\n0 0\n1 \xff\n")
        with open(path, encoding="utf-8") as stream:
            with pytest.raises(MeshFormatError) as err:
                read_mesh(stream)
        assert err.value.line is None
        assert str(err.value) == "invalid utf-8 byte b'\\xff'"

    def test_utf8_bytes_read_as_text(self):
        assert_same_mesh(read_mesh(ODD_TOKENS.encode("utf-8")),
                         read_mesh(ODD_TOKENS))

    @pytest.mark.parametrize("text", [
        _section_text("vertices 99999999999999", ["0 0", "1 0"]),
        _cut(9, SQUARE.replace("triangles 2", "triangles 99999999999")),
        SQUARE.replace("boundary 1", "boundary 99999999999999999999"),
        # more digits than int() converts by default
        _section_text("vertices " + "9" * 5000, ["0 0"]),
    ])
    def test_count_beyond_end_of_file(self, text):
        with pytest.raises(MeshFormatError) as err:
            read_mesh(text)
        assert str(err.value) == (
            f"line {len(text.splitlines())}: unexpected end of file")

    def test_count_beyond_end_names_earlier_bad_row(self):
        text = _section_text("vertices 99999999999999", ["0 0", "1 y", "2"])
        with pytest.raises(MeshFormatError, match="line 4: bad coordinate"):
            read_mesh(text)

    @pytest.mark.parametrize("row", [
        "nan 0", "0 inf", "1e999 0", "-Infinity 1", "0 NaN"])
    def test_non_finite_coordinate(self, row):
        with pytest.raises(MeshFormatError) as err:
            read_mesh(_edit({5: row}))
        assert str(err.value) == f"line 5: non-finite coordinate in {row!r}"

    def test_non_finite_before_later_width_error(self):
        with pytest.raises(MeshFormatError, match="line 4: non-finite"):
            read_mesh(_edit({4: "nan 0", 6: "1"}))

    @pytest.mark.parametrize("count", ["\xb2", "\u2460"])
    def test_non_decimal_count(self, count):
        # digits that str.isdigit accepts but int() does not
        with pytest.raises(MeshFormatError, match="line 2: expected 'vertices"):
            read_mesh(_section_text(f"vertices {count}"))

    def test_validate_reports_non_finite_vertices(self):
        mesh = generate_unit_square_mesh(2)
        verts = mesh.vertices.copy()
        verts[[7, 3], [0, 1]] = [np.nan, np.inf]
        report = validate_mesh(mesh.with_vertices(verts))
        assert report[:2] == ["non-finite vertex 3", "non-finite vertex 7"]

    def test_validate_reports_empty_mesh(self):
        mesh = read_mesh(VALID_TEXTS["empty-mesh"]())
        assert validate_mesh(mesh) == ["no triangles"]
        loose = read_mesh(_section_text("vertices 1", ["0 0", "triangles 0",
                                                       "boundary 0"]))
        assert validate_mesh(loose) == ["no triangles", "dangling vertex 0"]


# fuzzing: mutations of small valid texts


FUZZ_BASES = [
    SQUARE,
    ODD_TOKENS,
    reference_write_mesh(generate_cook_mesh(1)),
    reference_write_mesh(_flipped(generate_unit_square_mesh(2), 3)),
]

FUZZ_TOKENS = [
    "0", "1", "2", "3", "-1", "7", "99999999999999999999", "0.5", "-0.0",
    "1e308", "nan", "inf", "x", "wall", "1_0", "+2", "\uff11", "\xb2",
    "vertices", "triangles", "boundary", "mce-mesh",
]


@st.composite
def mutated_texts(draw):
    lines = draw(st.sampled_from(FUZZ_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "swap", "token", "bytes"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            tokens = lines[i].split() or [""]
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(FUZZ_TOKENS) | st.text(max_size=3))
            lines[i] = " ".join(tokens)
    data = "\n".join(lines).encode("utf-8") + b"\n"
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


class TestFuzz:
    @given(mutated_texts())
    def test_reads_a_mesh_or_raises_mesh_format_error(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                mesh = read_mesh(data)
            except MeshFormatError:
                return
            assert_same_mesh(read_mesh(write_mesh(mesh)), mesh)
