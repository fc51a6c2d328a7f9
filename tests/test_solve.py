import importlib

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from mce import bench
from mce.forms import (
    ProblemCoefficients,
    assemble_brinkman,
    assemble_elasticity,
)
from mce.mesh import generate_unit_square_mesh, subdivide
from mce.solve import SolverError, solve
from mce.space import build_space

# the package re-exports the function solve under the module's name
solve_module = importlib.import_module("mce.solve")


class FakeSystem:
    """Minimal stand-in exposing the SaddleSystem solve surface."""

    def __init__(self, matrix, rhs, n_pressure=0, has_multiplier=False):
        self.matrix = sparse.csr_matrix(matrix)
        self.rhs = np.asarray(rhs, dtype=float)
        n = self.matrix.shape[0]
        self.blocks = {
            "velocity": slice(0, n - n_pressure),
            "pressure": slice(n - n_pressure, n),
            "multiplier": slice(n, n),
        }
        self.n_pressure = n_pressure
        self.has_multiplier = has_multiplier


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    report = solve(FakeSystem(np.eye(3), b))
    np.testing.assert_allclose(report.solution, b)
    assert report.residual == 0.0


def test_indefinite_2x2():
    report = solve(FakeSystem([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0]))
    np.testing.assert_allclose(report.solution, [2.0, 1.0], rtol=1e-14)


def test_missing_multiplier_names_pressure_block():
    sub = subdivide(generate_unit_square_mesh(2))
    space = build_space(sub, "dirichlet")
    coeffs = ProblemCoefficients(
        mu=1.0, sigma=0.0,
        f=lambda p: np.column_stack([np.ones(len(p)), p[:, 0]]),
    )
    system = assemble_brinkman(space, coeffs, pressure_multiplier=False)
    with pytest.raises(SolverError, match="pressure"):
        solve(system)


def test_determinism():
    sub = subdivide(generate_unit_square_mesh(3))
    space = build_space(sub, "dirichlet")
    coeffs = ProblemCoefficients(
        mu=1.0, sigma=0.0,
        f=lambda p: np.column_stack([p[:, 1], -p[:, 0]]),
    )
    system = assemble_brinkman(space, coeffs)
    x1 = solve(system).solution
    x2 = solve(system).solution
    assert np.array_equal(x1, x2)


def _case_system(case, n, bc_mode=None):
    return bench.solve_case(case, n, bc_mode=bc_mode)[2]


def _coupling_system(scenario, mu_value, n=8):
    _, sub, co = bench.coupling_problem(scenario, mu_value, n=n)
    space = build_space(sub, co.boundary)
    return assemble_brinkman(space, co, pressure_multiplier=False)


def _cooks_system(nu, n):
    problem = bench.case_cooks(nu)
    co = ProblemCoefficients(mu=problem.mu, lam=problem.lam)
    return assemble_elasticity(bench._cooks_space(n), co,
                               tractions={"loaded": problem.traction})


SYSTEMS = {
    "stokes-strong-16": lambda: _case_system(bench.case_stokes(), 16),
    "darcy-nitsche-tangential-16": lambda: _case_system(
        bench.case_darcy(), 16, bc_mode="nitsche-tangential"),
    "darcy-nitsche-slip-8": lambda: _case_system(
        bench.case_darcy(), 8, bc_mode="nitsche-slip"),
    "coupling-normal-mu1e-6": lambda: _coupling_system("normal", 1e-6),
    "coupling-tangential-mu1e-2": lambda: _coupling_system("tangential", 1e-2),
    # nu -> 1/2: the certificate rests on the backward error here, and the
    # solution still agrees with the reference to 1e-9
    "cooks-nu0.49999-16": lambda: _cooks_system(0.49999, 16),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_solution_matches_full_matrix_lu(name):
    system = SYSTEMS[name]()
    report = solve(system)
    assert (report.diagnostics["penalty"] is None) == (system.n_pressure == 0)
    assert report.diagnostics["iterations"] >= 1
    reference = splu(system.matrix.tocsc()).solve(system.rhs)
    error = np.linalg.norm(report.solution - reference)
    assert error <= 1e-7 * np.linalg.norm(reference)


@pytest.mark.parametrize("bc_mode", ["strong", "nitsche-slip"])
def test_penalty_factor_fill_is_bounded(bc_mode):
    # the dense multiplier row and the pressure block stay out of the
    # factorization; at n = 32 the LU of the whole matrix filled 61 x its
    # nnz for Stokes, and 19 x nnz(A) for the slip system
    case = bench.case_stokes() if bc_mode == "strong" else bench.case_darcy()
    system = _case_system(case, 32, bc_mode=bc_mode)
    report = solve(system)
    vel = system.blocks["velocity"]
    nnz_lu = report.diagnostics["nnz_L"] + report.diagnostics["nnz_U"]
    assert nnz_lu <= 10 * system.matrix[vel, vel].nnz


def test_nitsche_slip_fill_near_strong():
    # the slip system's dense mean-zero multiplier row once reached the LU
    # (nnz(L+U) 365,059 for Darcy at n = 16); the penalty factor keeps it
    # out, and the slip fill is 86,812 against 82,806 in strong mode
    fill = {}
    for bc_mode in ("strong", "nitsche-slip"):
        report = bench.solve_case(bench.case_darcy(), 16, bc_mode=bc_mode)[3]
        fill[bc_mode] = report.diagnostics["nnz_L"] + report.diagnostics["nnz_U"]
    assert fill["nitsche-slip"] <= 1.2 * fill["strong"]


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("case", ["stokes", "darcy"])
def test_krylov_steps_stay_under_one_constant(case, n):
    # the penalty scale r tracks h^2 for Darcy, where the plain correction
    # loop took 9, 14 and 28 steps at n = 16, 32 and 64 and failed at 128
    assert solve_module.KRYLOV_STEP_LIMIT <= 30
    system = _case_system(getattr(bench, f"case_{case}")(), n)
    report = solve(system)
    assert report.diagnostics["iterations"] < solve_module.KRYLOV_STEP_LIMIT


def test_penalty_step_cap_raises(monkeypatch):
    system = _case_system(bench.case_stokes(), 4)
    monkeypatch.setattr(solve_module, "KRYLOV_STEP_LIMIT", 1)
    with pytest.raises(SolverError, match="after 1 steps"):
        solve(system)
