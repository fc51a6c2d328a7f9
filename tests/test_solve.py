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
from mce.space import build_space, macro_divergence, project_p0

# the package re-exports the function solve under the module's name
solve_module = importlib.import_module("mce.solve")


class FakeSystem:
    """Minimal stand-in exposing the SaddleSystem solve surface."""

    def __init__(self, matrix, rhs, n_pressure=0):
        self.matrix = sparse.csr_matrix(matrix)
        self.rhs = np.asarray(rhs, dtype=float)
        n = self.matrix.shape[0]
        self.blocks = {
            "velocity": slice(0, n - n_pressure),
            "pressure": slice(n - n_pressure, n),
        }
        self.n_pressure = n_pressure


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    report = solve(FakeSystem(np.eye(3), b))
    np.testing.assert_allclose(report.solution, b)
    assert report.residual == 0.0


def test_indefinite_2x2():
    report = solve(FakeSystem([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0]))
    np.testing.assert_allclose(report.solution, [2.0, 1.0], rtol=1e-14)


def test_nan_load_is_not_certified():
    # the residual and the backward error are NaN, and no comparison of a
    # NaN with the limit may certify the solution
    with pytest.raises(SolverError, match="^non-finite certificate"):
        solve(FakeSystem(np.eye(2), [np.nan, 1.0]))


def test_overflowing_load_is_named_without_a_warning():
    # ||b|| overflows to inf: the certificate is NaN, and the overflow is
    # not warned of (the suite turns a RuntimeWarning into an error)
    with pytest.raises(SolverError, match="^non-finite certificate"):
        solve(FakeSystem(np.eye(2), [1e300, 1e300]))


def test_incompatible_mass_data_is_named():
    # a closed boundary leaves the pressure level free, so the mass
    # sources must sum to the boundary flux, 0 here; g = x sums to 1/2
    space = build_space(subdivide(generate_unit_square_mesh(4)), "dirichlet")
    system = assemble_brinkman(space, ProblemCoefficients(
        mu=1.0, sigma=0.0, g=lambda p: p[:, 0]))
    with pytest.raises(SolverError, match="^relative residual .*; "
                       "incompatible mass data: .* sum to 5.000e-01, not 0$"):
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


def _case_system(case, n):
    return bench.solve_case(case, n)[2]


def _coupling_system(scenario, mu_value, n=8):
    sub = subdivide(bench._square2_mesh(n))
    space = build_space(sub, bench._coupling_boundary(scenario))
    co = bench._coupling_coefficients(scenario, mu_value, sub.centroids)
    return assemble_brinkman(space, co)


def _cooks_system(nu, n):
    problem = bench.case_cooks(nu)
    co = ProblemCoefficients(mu=problem.mu, lam=problem.lam)
    return assemble_elasticity(bench._cooks_space(n), co,
                               tractions={"loaded": bench.COOK_TRACTION})


SYSTEMS = {
    "stokes-strong-16": lambda: _case_system(bench.case_stokes(), 16),
    "darcy-strong-16": lambda: _case_system(bench.case_darcy(), 16),
    "coupling-normal-mu1e-6": lambda: _coupling_system("normal", 1e-6),
    "coupling-tangential-mu1e-2": lambda: _coupling_system("tangential", 1e-2),
    # nu -> 1/2: the certificate rests on the backward error here, and the
    # solution still agrees with the reference to 1e-9
    "cooks-nu0.49999-16": lambda: _cooks_system(0.49999, 16),
}


def _bordered(system):
    """The system's matrix and right-hand side, bordered by the row and
    column of the macro areas where the pressure level is free: the
    reference fixes that level at area-weighted mean zero itself."""
    M, b = system.matrix, system.rhs
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    if not (system.n_pressure
            and solve_module._constant_in_kernel(M[vel, pre])):
        return M, b
    w = np.zeros((1, system.size))
    w[0, pre] = system.space.tables.areas
    return sparse.bmat([[M, w.T], [w, None]]), np.append(b, 0.0)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_solution_matches_full_matrix_lu(name):
    system = SYSTEMS[name]()
    # every assembled system is symmetric
    M = system.matrix
    assert sparse.linalg.norm(M - M.T) <= 1e-12 * sparse.linalg.norm(M)
    report = solve(system)
    assert set(report.diagnostics) == {"nnz_LU", "inverse_growth"}
    K, b = _bordered(system)
    reference = splu(K.tocsc()).solve(b)[:system.size]
    error = np.linalg.norm(report.solution - reference)
    assert error <= 1e-7 * np.linalg.norm(reference)


@pytest.mark.parametrize("name", ["stokes-strong-16", "cooks-nu0.49999-16"])
def test_certificate_values(name):
    system = SYSTEMS[name]()
    report = solve(system)
    M, x, b = system.matrix, report.solution, system.rhs
    r = np.linalg.norm(b - M @ x)
    norm_m = np.abs(M).sum(axis=1).max()
    assert report.residual == r / np.linalg.norm(b)
    assert report.backward_error == r / (norm_m * np.linalg.norm(x)
                                         + np.linalg.norm(b))


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
    # padding (538,034 against 512,638 for Stokes at n = 32)
    K, options = call
    lu = splu(K, **options)
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("case", [bench.case_stokes, bench.case_darcy],
                         ids=["stokes", "darcy"])
def test_factor_fill_is_bounded(case, factored):
    # the pressure block stays out of the factorizations, and the free
    # pressure level is pinned, not bordered; at n = 32 the LU of the whole
    # matrix with a mean-zero border filled 60 x its nnz for Stokes and
    # 15 x for Darcy, the factors of B_b B_b^T and Z^T A Z together 4.3 x
    # and 4.6 x nnz(A)
    system = _case_system(case(), 32)
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    assert solve_module._constant_in_kernel(system.matrix[vel, pre])
    assert len(factored) == 2
    entries = sum(_lu_entries(call) for call in factored)
    assert entries <= 10 * system.matrix[vel, vel].nnz


def _divergence_defect(solution, g):
    """max_T |div u_h - Pi0 g| over max(1, max |u_h|)."""
    space = solution.space
    div = macro_divergence(space, solution.velocity)
    target = 0.0 if g is None else project_p0(g, space.subdiv)
    return (np.abs(div - target).max()
            / max(1.0, np.abs(solution.velocity).max()))


@pytest.mark.parametrize("case", [bench.case_stokes, bench.case_darcy,
                                  lambda: bench.case_darcy(mu=0.1)],
                         ids=["stokes", "darcy", "darcy-mu0.1"])
def test_divergence_exact_on_manufactured_cases(case):
    # D u = g holds by construction, so the defect is rounding; a solve
    # that enforces it only as far as an iteration goes reads 1.3e-9 on
    # Stokes
    solution = bench.solve_case(case(), 64)[0]
    assert _divergence_defect(solution, case().coefficients.g) <= 1e-12


@pytest.mark.parametrize("scenario", bench.SCENARIOS)
def test_divergence_exact_on_every_coupling_value(scenario):
    [run] = bench.run_brinkman_scenarios((scenario,), n=40)
    for solution in run.solutions.values():
        assert _divergence_defect(solution, None) <= 1e-12


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
    # pressure has no nullspace to name
    system = assemble_brinkman(
        _free_space(8), ProblemCoefficients(mu=1.0, sigma=0.0, f=_load))
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    assert not solve_module._constant_in_kernel(system.matrix[vel, pre])
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
def test_one_refinement_certifies(case, n):
    # the exact solve refined once reaches rounding level, far below the
    # certificate's 1e-9
    report = solve(_case_system(getattr(bench, f"case_{case}")(), n))
    assert report.residual <= 1e-12


def test_failed_certificate_is_named(monkeypatch):
    system = _case_system(bench.case_stokes(), 4)
    monkeypatch.setattr(solve_module, "RESIDUAL_LIMIT", 0.0)
    # a well-posed matrix and compatible data: the message names no cause
    with pytest.raises(SolverError,
                       match="^relative residual .* above 0$") as failure:
        solve(system)
    assert "singular" not in str(failure.value)
