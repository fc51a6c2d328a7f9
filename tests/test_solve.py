import importlib
import weakref

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
from mce.cli import main
from mce.mesh import (
    build_mesh,
    generate_cook_mesh,
    generate_unit_square_mesh,
    subdivide,
)
from mce.solve import SolverError, solve
from mce.space import (
    FieldSolution,
    build_space,
    macro_divergence,
    project_p0,
)
from split_meshes import incenter_subdiv

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
    if not (system.n_pressure and system.space.free_pressure_level):
        return M, b
    w = np.zeros((1, system.size))
    w[0, system.blocks["pressure"]] = system.space.tables.areas
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
    # pressure level is fixed by the dual tree, not bordered; at n = 32 the
    # LU of the whole matrix with a mean-zero border filled 60 x its nnz
    # for Stokes and 15 x for Darcy, the one factor, of Z^T A Z, 3.8 x and
    # 4.1 x nnz(A)
    system = _case_system(case(), 32)
    vel = system.blocks["velocity"]
    assert system.space.free_pressure_level
    assert len(factored) == 1
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


def test_stokes_at_incenters_has_constant_divergence():
    # the interior nodes at the incenters: the solve certifies, and the
    # velocity's divergence is one constant, 0, on every macro triangle
    space = build_space(incenter_subdiv(generate_cook_mesh(6)), "dirichlet")
    system = assemble_brinkman(
        space, ProblemCoefficients(mu=1.0, sigma=0.0, f=_load))
    velocity, _, _ = system.expand(solve(system).solution)
    assert _divergence_defect(FieldSolution(space, velocity), None) <= 1e-12


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
    assert not system.space.free_pressure_level
    with pytest.raises(SolverError, match="negligible pivot.*; matrix is "
                       "singular to working precision$"):
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


# the dual tree -------------------------------------------------------------

TREE_SYSTEMS = {
    # closed: the level is free, the tree grows from triangle 0
    "stokes-8": (lambda: _case_system(bench.case_stokes(), 8), True),
    # free top and bottom: the tree grows from the ground
    "coupling-normal": (lambda: _coupling_system("normal", 1e-2), False),
    "coupling-tangential": (lambda: _coupling_system("tangential", 1.0),
                            False),
}


@pytest.mark.parametrize("name", sorted(TREE_SYSTEMS))
def test_tree_block_is_triangular_in_bfs_order(name):
    build, free_level = TREE_SYSTEMS[name]
    system = build()
    space, nt = system.space, system.n_pressure
    rows, cols = space.tree
    assert space.free_pressure_level == free_level
    # a triangle root drops its row, the ground has none
    assert len(rows) == len(cols) == nt - free_level
    assert len(set(rows.tolist())) == len(rows)
    assert (0 not in rows) == free_level
    assert len(set(cols.tolist())) == len(cols)
    assert cols.min() >= space.n_vertex_unknowns
    T = system.matrix[system.blocks["pressure"]][rows][:, cols]
    assert sparse.tril(T, -1).nnz == 0
    assert np.all(T.diagonal() != 0)
    # each tree column leaves its row's triangle: one entry more at most,
    # its parent's, in an earlier row
    T = T.tocoo()
    off = T.row != T.col
    assert len(set(T.col[off].tolist())) == off.sum()
    assert np.all(T.row[off] < T.col[off])


def test_tree_joins_each_triangle_to_an_earlier_one_past_int32_keys():
    # at n = 160 the key nt (nt + 1) of a pair of dual nodes passes the
    # int32 range of the BFS output
    space = build_space(subdivide(generate_unit_square_mesh(160)),
                        "dirichlet")
    rows, cols = space.tree
    nt = space.mesh.num_triangles
    assert nt * (nt + 1) > np.iinfo(np.int32).max
    assert len(rows) == nt - 1
    edges = np.flatnonzero(~space.bubble_fixed)[cols - space.n_vertex_unknowns]
    ends = space.mesh.edge_tris[edges]
    own = ends == rows[:, None]
    assert np.all(own.sum(axis=1) == 1)
    # the other end is an earlier row, or the root, triangle 0
    position = np.full(nt, -1)
    position[rows] = np.arange(len(rows))
    other = ends[~own]
    earlier = position[other]
    assert np.all((other == 0)
                  | ((earlier >= 0) & (earlier < np.arange(len(rows)))))


class _RecordedFactor:
    """A factor whose solves are recorded: (right-hand side, trans,
    solution)."""

    def __init__(self, lu):
        self._lu, self.calls = lu, []

    def solve(self, b, trans="N"):
        x = self._lu.solve(b, trans=trans)
        self.calls.append((b, trans, x))
        return x


@pytest.mark.parametrize("name", sorted(TREE_SYSTEMS))
def test_tree_solves_match_the_dense_block(name):
    system = TREE_SYSTEMS[name][0]()
    space = system.space
    rows, cols = space.tree
    T = space.divergence_block[rows][:, cols].toarray()
    assert np.array_equal(np.triu(T), T)
    recorded = _RecordedFactor(space.tree_factor)
    space.tree_factor = recorded
    solve(system)
    # B u = -g, then the pressure, for the solve and for its refinement
    assert [trans for _, trans, _ in recorded.calls] == ["N", "T"] * 2
    for b, trans, x in recorded.calls:
        exact = np.linalg.solve(T.T if trans == "T" else T, b)
        assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("name", sorted(TREE_SYSTEMS))
def test_tree_factor_stores_no_fill(name):
    # L is the identity and U the tree block: n + nnz(B_T) entries
    space = TREE_SYSTEMS[name][0]().space
    rows, cols = space.tree
    T = space.divergence_block[rows][:, cols]
    assert space.tree_factor.nnz == T.nnz + len(rows)


def test_pressure_free_solve_factors_the_system_matrix(monkeypatch):
    # no sliced copy of the operator: the factor reads the matrix itself
    system = _cooks_system(0.3, 4)
    factored = []
    factor = solve_module._factor

    def record(K, *args):
        factored.append(K)
        return factor(K, *args)

    monkeypatch.setattr(solve_module, "_factor", record)
    solve(system)
    assert len(factored) == 1 and factored[0] is system.matrix


def test_pressure_off_the_tree_is_named():
    # two closed squares that touch at one vertex: each has a pressure
    # level of its own, and the tree from triangle 0 reaches one square
    vertices = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 1], [2, 2],
                         [1, 2]], dtype=float)
    triangles = np.array([[0, 1, 2], [0, 2, 3], [2, 4, 5], [2, 5, 6]])
    sides = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 2)]
    mesh = build_mesh(vertices, triangles, {side: "wall" for side in sides})
    system = assemble_brinkman(
        build_space(subdivide(mesh), "dirichlet"),
        ProblemCoefficients(mu=1.0, sigma=1.0, f=_load))
    with pytest.raises(SolverError, match="^the dual tree of the free "
                       "bubbles reaches 2 of the 4 macro triangles; matrix "
                       "is singular$"):
        solve(system)


def test_each_space_builds_its_kernel_and_tree_once(monkeypatch, tmp_path):
    # two scenarios of four viscosities each: two spaces, eight solves
    space_module = importlib.import_module("mce.space")
    built = []

    def counted(name):
        builder = getattr(space_module, name)

        def build(space):
            built.append((name, space))  # kept alive: ids stay distinct
            return builder(space)
        return build

    for name in ("kernel_basis", "dual_tree"):
        monkeypatch.setattr(space_module, name, counted(name))
    assert main(["brinkman", "--grid", "40", "--out", str(tmp_path)]) == 0
    assert sorted(name for name, _ in built) == ["dual_tree"] * 2 + [
        "kernel_basis"] * 2
    assert len({id(space) for _, space in built}) == 2


def test_no_earlier_level_space_stays_alive(monkeypatch):
    spaces = []
    build = bench.build_space

    def record(*args, **kwargs):
        space = build(*args, **kwargs)
        spaces.append(weakref.ref(space))
        return space

    monkeypatch.setattr(bench, "build_space", record)
    finest = bench.run_convergence(bench.case_stokes(), [8, 16, 24]).finest
    assert len(spaces) == 3
    alive = [ref() for ref in spaces]
    assert alive[:2] == [None, None] and alive[2] is finest.space
    assert {"kernel", "tree"} <= set(vars(finest.space))


def test_no_earlier_scenario_space_stays_alive(monkeypatch):
    # the caller drops each scenario's result before asking for the next:
    # its space, with the factors cached on it, is gone by then
    spaces = []
    sweep = bench._coupling_sweep

    def record(space, *args):
        assert all(ref() is None for ref in spaces)
        spaces.append(weakref.ref(space))
        return sweep(space, *args)

    monkeypatch.setattr(bench, "_coupling_sweep", record)
    for result in bench.run_brinkman_scenarios(bench.SCENARIOS, (1.0,), n=4):
        del result
    assert len(spaces) == 2


def test_plain_affine_space_carries_no_cached_state():
    space = bench._cooks_space(4)
    assert space.kernel is space.kernel and space.tree is space.tree
    assert space.divergence_block is space.divergence_block
    assert space.tree_factor is space.tree_factor
    affine = bench._plain_affine(space)
    assert not {"kernel", "tree", "divergence_block", "tree_factor"} & set(
        vars(affine))
    # the P1 space has no bubble: its kernel basis is its own
    assert affine.kernel.shape[0] == space.n_vertex_unknowns
