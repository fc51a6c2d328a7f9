"""The benchmark's workloads: CLI arguments, seeded inputs and output checks.

Every workload is one `mce` subcommand. All use fixed inputs except
mesh-import, whose mesh file is generated from the workload seed; the program
sees only the written file. A check reads only what the CLI produced (exit
code, standard output, files in the output directory) and returns a list of
errors, empty when the outputs are correct, plus the figures it read.
"""

import csv
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

# Acceptance windows of the Stokes convergence slopes (criterion 1).
STOKES_WINDOWS = {
    "slope_h1_u": (0.8, 1.2),
    "slope_l2_u": (1.8, 2.2),
    "slope_l2_p": (0.8, 1.2),
}
# Finest-level errors of `mce stokes --levels 8,16,24,32` when the benchmark
# was defined. A faster solver that loses accuracy fails the check once an
# error grows by more than ACCURACY_BOUND of its reference.
STOKES_REFERENCE = {
    "err_h1_u": 6.50897713795840605e-01,
    "err_l2_p": 3.71722465059541318e-01,
}
ACCURACY_BOUND = 0.25
# Cook's membrane: the compatible element may drift by at most 2% between
# nu = 0.4999 and 0.49999, and the plain affine element must lock (tip below
# half of the compatible one) at the largest nu.
LOCK_DRIFT_LIMIT = 0.02
LOCKING_RATIO_LIMIT = 0.5
# Criterion 8: the tangential profile oscillates at mu = 1e-2 (at least two
# sign changes of its second difference) and is smooth at mu = 10.
OSCILLATING_MU, SMOOTH_MU = "0.01", "10"
BRINKMAN_VTK_FILES = 8

# mesh-import input: an n x n diagonal grid of the unit square whose interior
# vertices move by at most JITTER * h in a seeded random direction.
MESH_N = 64
JITTER = 0.15


@dataclass(frozen=True)
class Workload:
    args: tuple  # CLI arguments; "{out}" and "{mesh}" are filled in
    check: object  # (exit code, stdout, output dir) -> (errors, figures)
    make_input: object = None  # (work dir, seed) -> (mesh path, record)
    figure_units: dict = field(default_factory=dict)

    def command(self, work_dir, seed):
        """CLI arguments, output directory and input record of one run."""
        out = os.path.join(work_dir, "out")
        mesh, record = None, {}
        if self.make_input is not None:
            mesh, record = self.make_input(work_dir, seed)
        argv = [a.format(out=out, mesh=mesh) for a in self.args]
        return argv, out, record


# checks ------------------------------------------------------------------


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def stokes_errors(csv_text):
    """Errors of a Stokes convergence CSV: slopes outside their windows and
    finest-level errors beyond the accuracy bound. Returns (errors, figures)."""
    rows = _rows(csv_text)
    if not rows:
        return ["convergence CSV has no rows"], {}
    last = rows[-1]
    errors = []
    for name, (lo, hi) in STOKES_WINDOWS.items():
        slope = float(last[name])
        if not lo <= slope <= hi:
            errors.append(f"{name} = {slope:.4g} outside [{lo}, {hi}]")
    figures = {name: float(last[name]) for name in STOKES_REFERENCE}
    for name, ref in STOKES_REFERENCE.items():
        if not figures[name] <= (1.0 + ACCURACY_BOUND) * ref:
            errors.append(
                f"{name} = {figures[name]:.6g} at n = {last['n']} is worse "
                f"than {1.0 + ACCURACY_BOUND:g} x the reference {ref:.6g}")
    return errors, figures


def check_stokes(rc, stdout, out):
    if rc != 0:
        return [f"exit code {rc}"], {}
    errors, figures = stokes_errors(_read(os.path.join(out,
                                                       "stokes_convergence.csv")))
    if not os.path.isfile(os.path.join(out, "stokes_solution.vtk")):
        errors.append("stokes_solution.vtk not written")
    return errors, figures


def locking_errors(csv_text):
    """Errors of a Cook's membrane tip table. Returns (errors, figures)."""
    rows = {float(r["nu"]): r for r in _rows(csv_text)}
    tips = {nu: float(r["tip_compatible"]) for nu, r in rows.items()}
    missing = [nu for nu in (0.4999, 0.49999) if nu not in tips]
    if missing:
        return [f"tip table lacks nu = {missing}"], {}
    drift = abs(tips[0.49999] - tips[0.4999]) / abs(tips[0.4999])
    nu_max = max(rows)
    ratio = float(rows[nu_max]["tip_affine"]) / tips[nu_max]
    errors = []
    if not drift < LOCK_DRIFT_LIMIT:
        errors.append(f"lock_drift {drift:.4g} not below {LOCK_DRIFT_LIMIT}")
    if not ratio < LOCKING_RATIO_LIMIT:
        errors.append(f"affine/compatible tip {ratio:.4g} at nu = {nu_max} "
                      f"not below {LOCKING_RATIO_LIMIT}")
    return errors, {"lock_drift": drift, "affine_tip_ratio": ratio}


def check_cooks(rc, stdout, out):
    if rc != 0:
        return [f"exit code {rc}"], {}
    errors, figures = locking_errors(_read(os.path.join(out, "cooks_tips.csv")))
    if not os.path.isfile(os.path.join(out, "cooks_solution.vtk")):
        errors.append("cooks_solution.vtk not written")
    return errors, figures


def sign_changes(xs, ys, window=(0.7, 1.3), rel_floor=5e-3):
    """Sign changes of the second difference of ys for x inside the window;
    differences below rel_floor of the largest one count as zero. Kept apart
    from mce.bench's version, so a change there cannot pass its own check."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    d2 = ys[2:] - 2.0 * ys[1:-1] + ys[:-2]
    centers = xs[1:-1]
    d2 = d2[(centers >= window[0]) & (centers <= window[1])]
    if d2.size == 0:
        return 0
    signs = np.sign(d2)
    signs[np.abs(d2) < rel_floor * np.abs(d2).max()] = 0
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _profile_sign_changes(out, mu):
    rows = _rows(_read(os.path.join(out,
                                    f"brinkman_tangential_mu{mu}_profile.csv")))
    return sign_changes([float(r["x"]) for r in rows],
                        [float(r["uy"]) for r in rows])


def check_brinkman(rc, stdout, out):
    if rc != 0:
        return [f"exit code {rc}"], {}
    oscillating = _profile_sign_changes(out, OSCILLATING_MU)
    smooth = _profile_sign_changes(out, SMOOTH_MU)
    errors = []
    if oscillating < 2:
        errors.append(f"{oscillating} sign changes at mu = {OSCILLATING_MU}, "
                      "expected at least 2")
    if smooth >= 2:
        errors.append(f"{smooth} sign changes at mu = {SMOOTH_MU}, "
                      "expected fewer than 2")
    vtk = [f for f in os.listdir(out) if f.endswith(".vtk")]
    if len(vtk) != BRINKMAN_VTK_FILES:
        errors.append(f"{len(vtk)} VTK files, expected {BRINKMAN_VTK_FILES}")
    return errors, {"sign_changes_oscillating": oscillating,
                    "sign_changes_smooth": smooth}


def check_mesh_info(rc, stdout, out):
    lines = stdout.splitlines()
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if "valid: yes" not in lines:
        errors.append("mesh-info did not print 'valid: yes'")
    # A midpoint-split fallback is a counter, not a failure.
    fallback = any(l.startswith("subdivision: midpoint") for l in lines)
    return errors, {"midpoint_fallbacks": int(fallback)}


# seeded input ----------------------------------------------------------------


def jittered_mesh_text(seed, n=MESH_N, jitter=JITTER):
    """mce mesh text of the n x n unit-square grid with every interior vertex
    moved by at most jitter * h; boundary vertices and tags stay."""
    from mce.mesh import generate_unit_square_mesh, write_mesh

    mesh = generate_unit_square_mesh(n)
    vertices = mesh.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    k = int(interior.sum())
    radius = (jitter / n) * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    vertices[interior] += radius[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)])
    return write_mesh(mesh.with_vertices(vertices))


def write_jittered_mesh(work_dir, seed):
    text = jittered_mesh_text(seed)
    path = os.path.join(work_dir, f"jittered-n{MESH_N}-seed{seed}.mesh")
    with open(path, "w") as fh:
        fh.write(text)
    return path, {
        "mesh_file": os.path.basename(path),
        "mesh_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "mesh_bytes": len(text),
        "n": MESH_N,
        "jitter_h": JITTER,
    }


WORKLOADS = {
    "stokes-conv": Workload(
        ("stokes", "--levels", "8,16,24,32", "--out", "{out}"),
        check_stokes,
        figure_units={"err_h1_u": "1", "err_l2_p": "1"},
    ),
    "cook-locking": Workload(
        ("cooks", "--levels", "48", "--out", "{out}"),
        check_cooks,
        figure_units={"lock_drift": "ratio", "affine_tip_ratio": "ratio"},
    ),
    "brinkman-coupling": Workload(
        ("brinkman", "--grid", "40", "--out", "{out}"),
        check_brinkman,
        figure_units={"sign_changes_oscillating": "count",
                      "sign_changes_smooth": "count"},
    ),
    "mesh-import": Workload(
        ("mesh-info", "--mesh-file", "{mesh}"),
        check_mesh_info,
        make_input=write_jittered_mesh,
        figure_units={"midpoint_fallbacks": "count"},
    ),
}
