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
    # the closed Stokes system with its multiplier row and column cut off
    sub = subdivide(generate_unit_square_mesh(2))
    space = build_space(sub, "dirichlet")
    coeffs = ProblemCoefficients(
        mu=1.0, sigma=0.0,
        f=lambda p: np.column_stack([np.ones(len(p)), p[:, 0]]),
    )
    system = assemble_brinkman(space, coeffs)
    assert system.has_multiplier
    cut = FakeSystem(system.matrix[:-1, :-1], system.rhs[:-1],
                     n_pressure=system.n_pressure)
    with pytest.raises(SolverError, match="^pressure block nullspace"):
        solve(cut)


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


def _case_system(case, n, bc_mode="strong"):
    return bench.solve_case(case, n, bc_mode=bc_mode)[2]


def _coupling_system(scenario, mu_value, n=8):
    _, sub, co = bench.coupling_problem(scenario, mu_value, n=n)
    space = build_space(sub, bench._coupling_boundary(scenario))
    return assemble_brinkman(space, co)


def _cooks_system(nu, n):
    problem = bench.case_cooks(nu)
    co = ProblemCoefficients(mu=problem.mu, lam=problem.lam)
    return assemble_elasticity(bench._cooks_space(n), co,
                               tractions={"loaded": problem.traction})


SYSTEMS = {
    "stokes-strong-16": lambda: _case_system(bench.case_stokes(), 16),
    "darcy-strong-16": lambda: _case_system(bench.case_darcy(), 16),
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
    assert set(report.diagnostics) == {"nnz_LU", "inverse_growth",
                                       "iterations", "penalty"}
    reference = splu(system.matrix.tocsc()).solve(system.rhs)
    error = np.linalg.norm(report.solution - reference)
    assert error <= 1e-7 * np.linalg.norm(reference)


@pytest.fixture
def factored(monkeypatch):
    """The (matrix, options) of every factorization mce.solve makes while
    the test runs."""
    calls = []
    factor = solve_module.splu

    def record(K, **options):
        calls.append((K, options))
        return factor(K, **options)

    monkeypatch.setattr(solve_module, "splu", record)
    return calls


def _lu_entries(call):
    # the entries of L plus U, counted on a test-local factor of the same K
    # with the same options: the factor's own nnz also counts supernodal
    # padding (99,950 against 86,738 for the Darcy slip system at n = 16)
    K, options = call
    lu = splu(K, **options)
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("bc_mode", ["strong", "nitsche-slip"])
def test_penalty_factor_fill_is_bounded(bc_mode, factored):
    # the dense multiplier row and the pressure block stay out of the
    # factorization; at n = 32 the LU of the whole matrix filled 61 x its
    # nnz for Stokes, and 19 x nnz(A) for the slip system
    case = bench.case_stokes() if bc_mode == "strong" else bench.case_darcy()
    system = _case_system(case, 32, bc_mode=bc_mode)
    vel = system.blocks["velocity"]
    assert _lu_entries(factored[-1]) <= 10 * system.matrix[vel, vel].nnz


def test_nitsche_slip_fill_near_strong(factored):
    # the slip system's dense mean-zero multiplier row once reached the LU
    # (nnz(L+U) 365,059 for Darcy at n = 16); the penalty factor keeps it
    # out, and the slip fill is 86,738 against 82,806 in strong mode
    fill = {}
    for bc_mode in ("strong", "nitsche-slip"):
        bench.solve_case(bench.case_darcy(), 16, bc_mode=bc_mode)
        fill[bc_mode] = _lu_entries(factored[-1])
    assert fill["nitsche-slip"] <= 1.2 * fill["strong"]


def _free_space(n):
    return build_space(subdivide(generate_unit_square_mesh(n)), "free")


def _load(p):
    return np.column_stack([np.ones(len(p)), p[:, 0]])


@pytest.mark.parametrize("n", [8, 64])
def test_pure_traction_elasticity_is_singular(n):
    # the rigid motions span the kernel of K = A
    system = assemble_elasticity(
        _free_space(n), ProblemCoefficients(mu=1.0, lam=1.0, f=_load))
    with pytest.raises(SolverError,
                       match="negligible pivot.*; matrix is singular"):
        solve(system)


def test_free_stokes_is_singular_in_velocity_not_pressure():
    # every edge free and sigma = 0: the constant velocities span the
    # kernel of K; the boundary flux fixes the pressure level, so the
    # system has no multiplier row and no pressure nullspace to name
    system = assemble_brinkman(
        _free_space(8), ProblemCoefficients(mu=1.0, sigma=0.0, f=_load))
    assert not system.has_multiplier
    with pytest.raises(SolverError,
                       match="negligible pivot.*; matrix is singular$"):
        solve(system)


def test_empty_row_is_named():
    with pytest.raises(SolverError, match="empty row 1 in the velocity block"):
        solve(FakeSystem([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0]))


@pytest.mark.parametrize("case", ["stokes", "darcy"])
def test_well_posed_systems_pass_the_pivot_check_at_n128(case):
    report = bench.solve_case(getattr(bench, f"case_{case}")(), 128)[3]
    growth = report.diagnostics["inverse_growth"]
    assert growth < 1e-6 / solve_module._PIVOT_RATIO_LIMIT


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
