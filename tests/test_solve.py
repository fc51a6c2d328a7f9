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
                               tractions={"loaded": problem.traction})


SYSTEMS = {
    "stokes-strong-16": lambda: _case_system(bench.case_stokes(), 16),
    "darcy-strong-16": lambda: _case_system(bench.case_darcy(), 16),
    "coupling-normal-mu1e-6": lambda: _coupling_system("normal", 1e-6),
    "coupling-tangential-mu1e-2": lambda: _coupling_system("tangential", 1e-2),
    # nu -> 1/2: the certificate rests on the backward error here, and the
    # solution still agrees with the reference to 1e-9
    "cooks-nu0.49999-16": lambda: _cooks_system(0.49999, 16),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_solution_matches_full_matrix_lu(name):
    system = SYSTEMS[name]()
    # every assembled system is symmetric, and the multiplier row is there
    # only where D^T 1 = 0: the constant pressure moves no velocity row
    M = system.matrix
    assert sparse.linalg.norm(M - M.T) <= 1e-12 * sparse.linalg.norm(M)
    if system.has_multiplier:
        C = M[system.blocks["velocity"], system.blocks["pressure"]]
        flux = np.abs(C @ np.ones(C.shape[1])).max()
        assert flux <= 1e-10 * sparse.linalg.norm(C, np.inf)
    report = solve(system)
    assert set(report.diagnostics) == {"nnz_LU", "inverse_growth"}
    reference = splu(system.matrix.tocsc()).solve(system.rhs)
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
    # the dense multiplier row and the pressure block stay out of the
    # factorizations; at n = 32 the LU of the whole matrix filled 60 x its
    # nnz for Stokes and 15 x for Darcy, the factors of B_b B_b^T and
    # Z^T A Z together 4.3 x and 4.6 x nnz(A)
    system = _case_system(case(), 32)
    assert system.has_multiplier
    assert len(factored) == 2
    vel = system.blocks["velocity"]
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
    run = bench.run_brinkman_coupling(scenario, n=40)
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
def test_one_refinement_certifies(case, n):
    # the exact solve refined once reaches rounding level, far below the
    # certificate's 1e-9
    report = solve(_case_system(getattr(bench, f"case_{case}")(), n))
    assert report.residual <= 1e-12


def test_failed_certificate_is_named(monkeypatch):
    system = _case_system(bench.case_stokes(), 4)
    monkeypatch.setattr(solve_module, "RESIDUAL_LIMIT", 0.0)
    with pytest.raises(SolverError, match="^relative residual .* above 0;"):
        solve(system)
