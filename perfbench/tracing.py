"""Span tracing of mce's public entry points, applied from outside the program.

`Tracer.install()` replaces each entry point in ENTRY_POINTS with a wrapper
in every mce module that binds it by name (`mce.cli` and `mce.bench` import
`subdivide`, `solve`, `build_space` and `write_vtk` directly), and
`uninstall()` puts the originals back, so untraced calls run the unmodified
program. A wrapper records a span (name, start, end, parent, run id) and,
after the span has closed, lets an observer read counters off the call's
arguments and result. Observer work, such as hashing a matrix or checking a
solve's certificate, runs on a paused clock, so it lands in no span.

`ManufacturedCase.domain` captures `generate_unit_square_mesh` when the class
is defined, so mesh time is taken from `build_mesh`, which every
`generate_*` function and `read_mesh` reach through the module global.
"""

import functools
import hashlib
import importlib
import json
import os
import sys
import time
import weakref
from dataclasses import asdict, dataclass

import numpy as np

# Certificate bound of every solve: relative residual or normwise backward
# error (the same 1e-9 as mce.solve and the acceptance suite).
RESIDUAL_LIMIT = 1e-9
# Criterion 8's budget for the per-triangle divergence defect
# |div u_h - Pi0 g|, relative to max(1, max |u_h|).
DIVERGENCE_BUDGET = 1e-9
# Bytes per stored factor entry: an 8-byte value and a 4-byte row index.
LU_BYTES_PER_NNZ = 12

ENTRY_POINTS = (
    # (span name, home module, attribute)
    ("cli.main", "mce.cli", "main"),
    ("mesh.build", "mce.mesh", "build_mesh"),
    ("mesh.subdivide", "mce.mesh", "subdivide"),
    ("mesh.validate", "mce.mesh", "validate_mesh"),
    ("mesh.read", "mce.mesh", "read_mesh"),
    ("space.build", "mce.space", "build_space"),
    ("forms.assemble", "mce.forms", "assemble_elasticity"),
    ("forms.assemble", "mce.forms", "assemble_brinkman"),
    ("forms.assemble", "mce.forms", "assemble_nitsche_elasticity"),
    ("forms.assemble", "mce.forms", "assemble_nitsche_brinkman_tangential"),
    ("forms.assemble", "mce.forms", "assemble_nitsche_slip"),
    ("solve.solve", "mce.solve", "solve"),
    ("solve.solve", "mce.solve", "refine_iteratively"),
    ("bench.error_norms", "mce.bench", "error_norms"),
    ("bench.affine", "mce.bench", "solve_cooks_affine"),
    ("vtk.write", "mce.vtk", "write_vtk"),
)

# Per-layer metric -> (unit, span it is measured at). Times are self times
# summed over the CLI call; "calls", byte counts, boundary faces and failures
# are totals; sizes (unknowns, nnz, dofs, triangles) describe the largest
# instance in the call. A layer that ran zero times reads 0 throughout.
LAYER_METRICS = {
    "solve.solve_s": ("s", "solve.solve"),
    "solve.calls": ("count", "solve.solve"),
    "solve.distinct_ratio": ("ratio", "solve.solve"),
    "solve.unknowns": ("count", "solve.solve"),
    "solve.nnz_lu": ("count", "solve.solve"),
    "solve.fill_ratio": ("ratio", "solve.solve"),
    "solve.lu_mb_computed": ("MB", "solve.solve"),
    "solve.residual_max": ("ratio", "solve.solve"),
    "solve.backward_error_max": ("ratio", "solve.solve"),
    "solve.div_defect_frac": ("ratio", "solve.solve"),
    "solve.failures": ("count", "solve.solve"),
    "mesh.build_s": ("s", "mesh.build"),
    "mesh.build_calls": ("count", "mesh.build"),
    "mesh.distinct_ratio": ("ratio", "mesh.build"),
    "mesh.triangles": ("count", "mesh.build"),
    "mesh.subdivide_s": ("s", "mesh.subdivide"),
    "mesh.subdivide_calls": ("count", "mesh.subdivide"),
    "mesh.midpoint_fallbacks": ("count", "mesh.subdivide"),
    "mesh.validate_s": ("s", "mesh.validate"),
    "mesh.read_s": ("s", "mesh.read"),
    "mesh.read_bytes": ("B", "mesh.read"),
    "space.build_s": ("s", "space.build"),
    "space.calls": ("count", "space.build"),
    "space.velocity_dofs": ("count", "space.build"),
    "space.free_dofs": ("count", "space.build"),
    "forms.assemble_s": ("s", "forms.assemble"),
    "forms.calls": ("count", "forms.assemble"),
    "forms.nnz_a": ("count", "forms.assemble"),
    "forms.boundary_faces": ("count", "forms.assemble"),
    "bench.error_norms_s": ("s", "bench.error_norms"),
    "bench.affine_s": ("s", "bench.affine"),
    "vtk.write_s": ("s", "vtk.write"),
    "vtk.bytes": ("B", "vtk.write"),
    "cli.self_s": ("s", "cli.main"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into the span list; -1 for a root span
    run: int = 0  # index of the CLI call the span belongs to
    failed: bool = False


def self_times(spans):
    """Self time of every span: its duration minus the time its direct
    children cover. Spans nest (one thread), so children never overlap."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def digest(*arrays):
    """Content hash of numpy arrays, used to count distinct inputs."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


class Tracer:
    """Collects spans and counters for a sequence of CLI calls."""

    def __init__(self):
        self.spans = []
        self.run = -1
        self.unmeasured = set()
        self._patches = []
        self._stack = []
        self._paused = 0.0
        # assembled system -> its source term g, for the divergence check
        self.source_terms = weakref.WeakKeyDictionary()

    # clock and spans ------------------------------------------------------

    def clock(self):
        return time.perf_counter() - self._paused

    def begin_run(self):
        self.run += 1
        self._counters = {}
        self._distinct = {}
        self._certificate_errors = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, run=self.run))
        self._stack.append(len(self.spans) - 1)

    def _close(self, failed):
        span = self.spans[self._stack.pop()]
        span.end = self.clock()
        span.failed = failed

    def _observe(self, observer, args, kwargs, result):
        start = time.perf_counter()
        try:
            observer(self, args, kwargs, result)
        finally:
            self._paused += time.perf_counter() - start

    # counters --------------------------------------------------------------

    def add(self, name, value):
        self._counters[name] = self._counters.get(name, 0) + value

    def maximum(self, name, value):
        self._counters[name] = max(self._counters.get(name, value), value)

    def distinct(self, name, key):
        self._distinct.setdefault(name, set()).add(key)

    def certificate_error(self, message):
        self._certificate_errors.append(message)

    # patching ----------------------------------------------------------------

    def install(self):
        """Wrap every entry point where it is bound. A span name none of whose
        entry points exists any more is recorded as unmeasured."""
        mce_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "mce" or n.startswith("mce."))
        ]
        found = set()
        for name, home, attr in ENTRY_POINTS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            found.add(name)
            wrapper = self._wrap(name, original, OBSERVERS.get(attr))
            for module in mce_modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        self.unmeasured = {name for name, _, _ in ENTRY_POINTS} - found

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, observer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(failed=True)
                raise
            self._close(failed=False)
            if observer is not None:
                self._observe(observer, args, kwargs, result)
            return result

        return wrapper

    # results ------------------------------------------------------------------

    def run_metrics(self):
        """Per-layer metrics of the current CLI call, with None for every
        metric whose entry point is unmeasured."""
        spans = [s for s in self.spans if s.run == self.run]
        own = self_times(spans)
        time_s, calls, failed = {}, {}, {}
        for span, t in zip(spans, own):
            time_s[span.name] = time_s.get(span.name, 0.0) + t
            calls[span.name] = calls.get(span.name, 0) + 1
            failed[span.name] = failed.get(span.name, 0) + int(span.failed)
        c = self._counters

        def ratio(num, den):
            return num / den if den else 0.0

        n_solve = calls.get("solve.solve", 0)
        n_build = calls.get("mesh.build", 0)
        unknowns, nnz_lu, nnz_a = c.get("solve.largest", (0, 0, 0))
        values = {
            "solve.solve_s": time_s.get("solve.solve", 0.0),
            "solve.calls": n_solve,
            "solve.distinct_ratio": ratio(
                len(self._distinct.get("solve", ())), n_solve),
            "solve.unknowns": unknowns,
            "solve.nnz_lu": nnz_lu,
            "solve.fill_ratio": ratio(nnz_lu, nnz_a),
            "solve.lu_mb_computed": LU_BYTES_PER_NNZ * nnz_lu / 1e6,
            "solve.residual_max": c.get("solve.residual_max", 0.0),
            "solve.backward_error_max": c.get("solve.backward_error_max", 0.0),
            "solve.div_defect_frac": c.get("solve.div_defect_frac", 0.0),
            "solve.failures": failed.get("solve.solve", 0)
            + c.get("solve.certificate_failures", 0),
            "mesh.build_s": time_s.get("mesh.build", 0.0),
            "mesh.build_calls": n_build,
            "mesh.distinct_ratio": ratio(
                len(self._distinct.get("mesh", ())), n_build),
            "mesh.triangles": c.get("mesh.triangles", 0),
            "mesh.subdivide_s": time_s.get("mesh.subdivide", 0.0),
            "mesh.subdivide_calls": calls.get("mesh.subdivide", 0),
            # mesh-info retries a failed perpendicular split with midpoints
            "mesh.midpoint_fallbacks": failed.get("mesh.subdivide", 0),
            "mesh.validate_s": time_s.get("mesh.validate", 0.0),
            "mesh.read_s": time_s.get("mesh.read", 0.0),
            "mesh.read_bytes": c.get("mesh.read_bytes", 0),
            "space.build_s": time_s.get("space.build", 0.0),
            "space.calls": calls.get("space.build", 0),
            "space.velocity_dofs": c.get("space.velocity_dofs", 0),
            "space.free_dofs": c.get("space.free_dofs", 0),
            "forms.assemble_s": time_s.get("forms.assemble", 0.0),
            "forms.calls": calls.get("forms.assemble", 0),
            "forms.nnz_a": c.get("forms.nnz_a", 0),
            "forms.boundary_faces": c.get("forms.boundary_faces", 0),
            "bench.error_norms_s": time_s.get("bench.error_norms", 0.0),
            "bench.affine_s": time_s.get("bench.affine", 0.0),
            "vtk.write_s": time_s.get("vtk.write", 0.0),
            "vtk.bytes": c.get("vtk.bytes", 0),
            "cli.self_s": time_s.get("cli.main", 0.0),
        }
        for metric, (_, span_name) in LAYER_METRICS.items():
            if span_name in self.unmeasured:
                values[metric] = None
        return values

    def certificate_errors(self):
        return list(self._certificate_errors)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# observers: read counters off an entry point's arguments and result ---------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _observe_build_mesh(tracer, args, kwargs, mesh):
    tracer.distinct("mesh", digest(mesh.vertices, mesh.triangles))
    tracer.maximum("mesh.triangles", mesh.num_triangles)


def _observe_read_mesh(tracer, args, kwargs, mesh):
    source = _arg(args, kwargs, 0, "source")
    if isinstance(source, (str, bytes)):
        tracer.add("mesh.read_bytes", len(source))


def _observe_build_space(tracer, args, kwargs, space):
    tracer.maximum("space.velocity_dofs", space.n_velocity)
    tracer.maximum("space.free_dofs", space.n_free_velocity)


def _boundary_face_count(space, tags):
    mesh = space.mesh
    return sum(
        1 for e in mesh.boundary_edges
        if tags is None or mesh.boundary_tags[e] in tags
    )


def _observe_assembly(faces_of):
    """Observer of one assembler; `faces_of(space, args, kwargs)` counts the
    boundary faces that assembler integrates over."""

    def observe(tracer, args, kwargs, system):
        space = _arg(args, kwargs, 0, "space")
        coeffs = _arg(args, kwargs, 1, "coeffs")
        tracer.maximum("forms.nnz_a", system.matrix.nnz)
        tracer.add("forms.boundary_faces", faces_of(space, args, kwargs))
        tracer.source_terms[system] = getattr(coeffs, "g", None)

    return observe


def _traction_faces(space, args, kwargs):
    tractions = _arg(args, kwargs, 2, "tractions")
    return _boundary_face_count(space, set(tractions)) if tractions else 0


def _normal_zero_faces(space, args, kwargs):
    from mce.space import NormalZero

    mesh = space.mesh
    return sum(
        1 for e in mesh.boundary_edges
        if isinstance(space.bc.get(mesh.boundary_tags[e]), NormalZero)
    )


def _slip_faces(space, args, kwargs):
    slip_tags = kwargs.get("slip_tags")
    return _boundary_face_count(
        space, set(slip_tags) if slip_tags is not None else None)


def _observe_solve(tracer, args, kwargs, report):
    """Size, fill and an independent certificate of one solve: relative
    residual and normwise backward error recomputed from the system, and the
    per-triangle divergence defect of saddle solutions."""
    system = _arg(args, kwargs, 0, "system")
    matrix, rhs, x = system.matrix, system.rhs, report.solution
    tracer.distinct("solve", digest(matrix.data, matrix.indices,
                                    matrix.indptr, rhs))
    nnz_lu = report.diagnostics.get("nnz_L", 0) + report.diagnostics.get(
        "nnz_U", 0)
    # (unknowns, nnz(L+U), nnz(A)) of the largest system solved
    tracer.maximum("solve.largest", (system.size, nnz_lu, matrix.nnz))

    r = float(np.linalg.norm(rhs - matrix @ x))
    norm_b = float(np.linalg.norm(rhs))
    residual = r / norm_b if norm_b > 0 else r
    norm_a = float(abs(matrix).sum(axis=1).max())
    denom = norm_a * float(np.linalg.norm(x)) + norm_b
    backward = r / denom if denom > 0 else r
    tracer.maximum("solve.residual_max", residual)
    tracer.maximum("solve.backward_error_max", backward)
    failed = min(residual, backward) >= RESIDUAL_LIMIT
    if failed:
        tracer.certificate_error(
            f"solve of {system.size} unknowns: residual {residual:.3e} and "
            f"backward error {backward:.3e} not below {RESIDUAL_LIMIT:g}")

    if system.n_pressure:
        from mce.space import GeometryError, macro_divergence, project_p0

        u, _, _ = system.expand(x)
        space = system.space
        try:
            div = macro_divergence(space, u)
        except GeometryError as exc:
            tracer.certificate_error(f"divergence not constant: {exc}")
            failed = True
        else:
            g = tracer.source_terms.get(system)
            target = project_p0(g, space.subdiv) if g is not None else 0.0
            scale = max(1.0, float(np.abs(u).max()))
            frac = float(np.abs(div - target).max()) / (
                DIVERGENCE_BUDGET * scale)
            tracer.maximum("solve.div_defect_frac", frac)
            if frac >= 1.0:
                tracer.certificate_error(
                    f"divergence defect {frac:.3g} of criterion 8's budget")
                failed = True
    tracer.add("solve.certificate_failures", int(failed))


def _observe_write_vtk(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    tracer.add("vtk.bytes", os.path.getsize(path))


OBSERVERS = {
    "build_mesh": _observe_build_mesh,
    "read_mesh": _observe_read_mesh,
    "build_space": _observe_build_space,
    "assemble_elasticity": _observe_assembly(_traction_faces),
    "assemble_brinkman": _observe_assembly(lambda space, a, k: 0),
    "assemble_nitsche_elasticity": _observe_assembly(
        lambda space, a, k: _boundary_face_count(space, None)),
    "assemble_nitsche_brinkman_tangential": _observe_assembly(
        _normal_zero_faces),
    "assemble_nitsche_slip": _observe_assembly(_slip_faces),
    "solve": _observe_solve,
    "refine_iteratively": _observe_solve,
    "write_vtk": _observe_write_vtk,
}
