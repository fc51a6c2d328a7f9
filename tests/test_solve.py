import importlib

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from mce import bench
from mce.forms import ProblemCoefficients, assemble_brinkman
from mce.mesh import generate_unit_square_mesh, subdivide
from mce.solve import SolverError, refine_iteratively, solve
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


def test_refinement_never_worse():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((40, 40))
    A = M @ M.T + 40 * np.eye(40)
    b = rng.standard_normal(40)
    system = FakeSystem(A, b)
    x0 = np.linalg.solve(A, b) + 1e-4 * rng.standard_normal(40)
    before = np.linalg.norm(b - A @ x0) / np.linalg.norm(b)
    report = refine_iteratively(system, x0)
    assert report.residual <= before


def test_random_spd_refined_below_1e12():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((50, 50))
    A = M @ M.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    system = FakeSystem(A, b)
    report = refine_iteratively(system, np.zeros(50))
    assert report.residual < 1e-12


def test_exact_solution_is_fixed_point():
    A = np.diag([1.0, 2.0, 4.0])
    b = np.array([1.0, 1.0, 1.0])
    x = np.array([1.0, 0.5, 0.25])
    report = refine_iteratively(FakeSystem(A, b), x)
    np.testing.assert_allclose(report.solution, x, rtol=0, atol=0)


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


PENALTY_SYSTEMS = {
    "stokes-strong-16": lambda: _case_system(bench.case_stokes(), 16),
    "darcy-nitsche-tangential-16": lambda: _case_system(
        bench.case_darcy(), 16, bc_mode="nitsche-tangential"),
    "coupling-normal-mu1e-6": lambda: _coupling_system("normal", 1e-6),
    "coupling-tangential-mu1e-2": lambda: _coupling_system("tangential", 1e-2),
}


@pytest.mark.parametrize("name", sorted(PENALTY_SYSTEMS))
def test_penalty_solution_matches_saddle_lu(name):
    system = PENALTY_SYSTEMS[name]()
    report = solve(system)
    assert report.diagnostics["penalty"] is not None
    assert report.diagnostics["iterations"] >= 1
    reference = splu(system.matrix.tocsc()).solve(system.rhs)
    error = np.linalg.norm(report.solution - reference)
    assert error <= 1e-7 * np.linalg.norm(reference)


def test_penalty_factor_fill_is_bounded():
    # the dense multiplier row and the pressure block stay out of the
    # factorization: nnz(L+U) was 61 x nnz(A) for the saddle LU at n = 32
    system = _case_system(bench.case_stokes(), 32)
    report = solve(system)
    nnz_lu = report.diagnostics["nnz_L"] + report.diagnostics["nnz_U"]
    assert nnz_lu <= 10 * system.matrix.nnz


def test_nitsche_slip_certifies_through_lu():
    system = _case_system(bench.case_darcy(), 8, bc_mode="nitsche-slip")
    report = solve(system)
    assert report.diagnostics["penalty"] is None
    assert min(report.residual, report.backward_error) < 1e-9


def test_penalty_step_cap_raises(monkeypatch):
    system = _case_system(bench.case_stokes(), 4)
    monkeypatch.setattr(solve_module, "PENALTY_STEP_LIMIT", 1)
    with pytest.raises(SolverError, match="after 1 steps"):
        solve(system)
