"""Self-tests of the benchmark: self-time arithmetic, the tracing shim, seed
determinism of the generated input, and the output checks.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracing import LAYER_METRICS, Span, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    JITTER,
    MESH_N,
    STOKES_REFERENCE,
    WORKLOADS,
    jittered_mesh_text,
    locking_errors,
    sign_changes,
    stokes_errors,
)

STOKES_HEADER = ("level,n,NNO,h,err_l2_u,err_h1_u,err_l2_p,err_p0p,err_div,"
                 "slope_div,slope_h1_u,slope_l2_p,slope_l2_u,slope_p0p")


def _stokes_csv(slope_h1_u=1.08, slope_l2_u=2.12, slope_l2_p=1.12,
                err_h1_u=STOKES_REFERENCE["err_h1_u"],
                err_l2_p=STOKES_REFERENCE["err_l2_p"]):
    row = [3, 32, 1089, 0.0303, 2.9e-3, err_h1_u, err_l2_p, 0.129, 1.3e-11,
           -2.4, slope_h1_u, slope_l2_p, slope_l2_u, 1.5]
    return STOKES_HEADER + "\n" + ",".join(map(str, row)) + "\n"


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("solve.solve", 1.0, 4.0, parent=0),
        Span("mesh.build", 2.0, 3.0, parent=1),
        Span("vtk.write", 5.0, 6.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def _traced_call(tracer, argv):
    import mce.cli

    tracer.begin_run()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = mce.cli.main(argv)
    finally:
        tracer.uninstall()
    return rc


def test_traced_call_layers_sum_to_the_root_span(tmp_path):
    import mce.bench

    solve_module = sys.modules["mce.solve"]  # `mce.solve` is the function
    original = mce.bench.solve
    tracer = Tracer()
    rc = _traced_call(tracer, ["stokes", "--levels", "2,3,4",
                               "--out", str(tmp_path)])
    assert rc == 0
    assert mce.bench.solve is original and solve_module.solve is original
    root = [s for s in tracer.spans if s.name == "cli.main"]
    assert len(root) == 1
    layers = tracer.run_metrics()
    total = sum(v for k, v in layers.items()
                if LAYER_METRICS[k][0] == "s")
    assert total == pytest.approx(root[0].end - root[0].start, rel=1e-9)
    assert layers["solve.calls"] == 4  # three levels plus the re-solve
    assert layers["solve.distinct_ratio"] == pytest.approx(3 / 4)
    assert layers["solve.failures"] == 0
    assert tracer.certificate_errors() == []
    assert set(layers) == set(LAYER_METRICS)


def test_missing_entry_point_is_unmeasured_not_zero(monkeypatch):
    import mce.bench

    monkeypatch.delattr(mce.bench, "solve_cooks_affine")
    tracer = Tracer()
    tracer.begin_run()
    tracer.install()
    tracer.uninstall()
    assert tracer.unmeasured == {"bench.affine"}
    layers = tracer.run_metrics()
    assert layers["bench.affine_s"] is None
    assert layers["solve.solve_s"] == 0.0


def test_same_seed_gives_byte_identical_mesh():
    a, b, c = (jittered_mesh_text(s, n=8) for s in (5, 5, 6))
    assert a == b
    assert a != c


def test_jitter_moves_only_interior_vertices_within_bound():
    from mce.mesh import generate_unit_square_mesh, read_mesh

    n = 8
    base = generate_unit_square_mesh(n)
    moved = read_mesh(jittered_mesh_text(11, n=n))
    shift = np.linalg.norm(moved.vertices - base.vertices, axis=1)
    on_boundary = np.any((base.vertices == 0.0) | (base.vertices == 1.0),
                         axis=1)
    assert np.all(shift[on_boundary] == 0.0)
    assert np.all(shift[~on_boundary] > 0.0)
    assert shift.max() <= JITTER / n
    assert moved.boundary_tags == base.boundary_tags
    assert MESH_N == 64


def test_stokes_check_accepts_slopes_inside_windows():
    errors, figures = stokes_errors(_stokes_csv())
    assert errors == []
    assert figures == STOKES_REFERENCE


@pytest.mark.parametrize("kwargs, needle", [
    ({"slope_h1_u": 1.5}, "slope_h1_u"),
    ({"slope_l2_u": 1.7}, "slope_l2_u"),
    ({"slope_l2_p": 0.79}, "slope_l2_p"),
    ({"err_h1_u": 1.3 * STOKES_REFERENCE["err_h1_u"]}, "err_h1_u"),
])
def test_stokes_check_rejects_csv_outside_window(kwargs, needle):
    errors, _ = stokes_errors(_stokes_csv(**kwargs))
    assert len(errors) == 1 and needle in errors[0]


def test_locking_check():
    def table(tip_c, tip_a):
        rows = ["nu,tip_compatible,tip_affine", "0.3,1.83,1.81"]
        rows += [f"{nu},{c},{a}"
                 for nu, c, a in zip((0.4999, 0.49999), tip_c, tip_a)]
        return "\n".join(rows) + "\n"

    errors, figures = locking_errors(table((1.5366, 1.5364), (0.49, 0.42)))
    assert errors == []
    assert figures["lock_drift"] == pytest.approx(0.0002 / 1.5366)
    assert locking_errors(table((1.5, 1.4), (0.49, 0.42)))[0]  # drifts 6.7%
    assert locking_errors(table((1.5366, 1.5364), (1.5, 1.0)))[0]  # locks not


def test_sign_changes_ignores_flat_regions():
    xs = np.linspace(0.0, 2.0, 41)
    assert sign_changes(xs, xs**2) == 0
    assert sign_changes(xs, np.where(np.arange(41) % 2, 1.0, -1.0)) > 2


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    expected["trace.overhead_s"] = "s"
    assert per_layer == expected
