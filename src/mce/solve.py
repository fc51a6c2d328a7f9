"""Solution of the assembled sparse systems.

Every system is solved from one sparse factor, used one of two ways.
Refinement: an exact solve from the system's own factor, refined once
with the same factor. Without a pressure block (elasticity) that is the
factor of the system's matrix itself, with no copy. CG: a system without
a pressure block may instead be solved by conjugate gradients
preconditioned with the factor of a nearby SPD matrix, as Cook's operator
mu A_1 + lambda B^T W^-1 B at one nearly incompressible Poisson ratio is
for another (one eigenvalue cluster on ker B, one on its range, so a few
steps). CG runs to its own floor, not to the certificate: at lambda ~
1e5 the backward error alone would pass a loose iterate.

With a pressure block, the own factor is of the discrete kernel: div V_h
is the P0 pressure space exactly, so the velocity-pressure block B
(`FESpace.divergence_block`) has the explicit kernel basis Z of
`mce.space.kernel_basis`, and B_b, the bubble columns of B, is a scaled
incidence matrix of the dual graph. On the spanning tree of
`mce.space.dual_tree` its block B_T is square and upper triangular in BFS
order. A residual (f, g) of the system [[A, -B^T], [-B, 0]] is corrected
by u = -B_T^-1 g on the tree columns plus Z c, with
Z^T A Z c = Z^T (f - A u), so B u = -g holds by construction, and by
p = B_T^-T (A u - f) on the tree rows. Both tree solves read
`FESpace.tree_factor`, the space's fill-free SuperLU factor of B_T, and
Z^T A Z is the one factor of the solve. Z, the tree and its factor are
built once per space.
Every assembled system is symmetric, and none carries a row for the
pressure level: the solve fixes it. Where no free bubble reaches the
boundary (a closed boundary), the constant pressure lies in the kernel of
B^T, the tree grows from triangle 0 and drops its row, and p is shifted to
area-weighted mean zero; mass data whose sum a free level cannot balance
fail the certificate, and the failure names them. A negligible pivot is
found by inverse iteration on a fixed probe, never by reading L or U, of
which SciPy would build and keep CSC copies. Every solve is certified
against the original matrix: relative residual or normwise backward error
below 1e-9, with ||M||_inf read off the row sums of |M.data|, no copy of
M.

SuperLU's default supernode relaxation and panel size, 10 and 20, pad the
small supernodes of these 2-D element matrices and work on panels wider
than they fill. The pair `_SUPERLU_RELAX`, `_SUPERLU_PANEL_SIZE` factored
every matrix the benchmark factors, and Stokes, Darcy and Cook at n = 64
and 128, no slower than the defaults, most of them 5-15 % faster.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

RESIDUAL_LIMIT = 1e-9
# SuperLU's supernode relaxation and panel size (see the module docstring)
_SUPERLU_RELAX = 2
_SUPERLU_PANEL_SIZE = 8
# CG with a nearby factor stops once its updated residual falls below
# _PCG_FLOOR ||b||; without that within _PCG_STEP_CAP steps, the system is
# factored
_PCG_FLOOR = 1e-14
_PCG_STEP_CAP = 30


class SolverError(Exception):
    """Factorization or accuracy failure, with the offending block named
    when it can be identified."""


@dataclass
class SolveReport:
    """Solution vector with its certificate.

    `residual` is ||Ax-b|| / ||b||; `backward_error` is the normwise
    backward error ||Ax-b|| / (||A||_inf ||x|| + ||b||), the meaningful
    certificate when the matrix scale dwarfs the load (lambda -> inf).
    `diagnostics` holds `nnz_LU` (the entries of the one factor, of A or
    of Z^T A Z, supernodal padding included; the space's tree factor is
    not counted),
    `inverse_growth` (max|K| ||K^-1 y||_inf of the factored matrix K,
    from the pivot check, held below 1e13; after CG with a nearby factor,
    that factor's growth times the spread, the bound that was checked)
    and `pcg_steps` (the CG steps, 0 for a solve by the system's own
    factor). `factor` is the `Factor` the solution came from where the
    system has no pressure block, for a nearby system's CG; else None.
    """

    solution: np.ndarray
    residual: float
    backward_error: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0
    factor: "Factor | None" = None


@dataclass(frozen=True)
class Factor:
    """The checked SuperLU factor `lu` of one matrix and its inverse
    growth."""

    lu: object
    growth: float


def _certificate(matrix, x, b, norm_b):
    """(relative residual, normwise backward error) of x, both from the
    one residual b - Mx of the CSR matrix M. ||M||_inf sums |M.data| over
    the rows that hold entries (an empty row sums to 0)."""
    r = np.linalg.norm(b - matrix @ x)
    indptr = matrix.indptr
    filled = indptr[:-1][np.diff(indptr) > 0]
    norm_m = (np.add.reduceat(np.abs(matrix.data), filled).max()
              if filled.size else 0.0)
    denom = norm_m * np.linalg.norm(x) + norm_b
    return (r / norm_b if norm_b > 0 else r), (r / denom if denom > 0 else r)


def _failure_cause(system, singular=""):
    """The cause of a failure where one shows, as "; cause": an empty row,
    named with its block; else `singular`, as a factor or the pivot check
    found it; else, after a failed certificate, mass data that a free
    pressure level cannot balance. An empty string otherwise."""
    matrix = system.matrix.tocsr()
    empty = np.flatnonzero(np.diff(matrix.indptr) == 0)
    if empty.size:
        row = int(empty[0])
        name = next(name for name, sl in system.blocks.items()
                    if sl.start <= row < sl.stop)
        return f"; empty row {row} in the {name} block"
    if singular:
        return f"; {singular}"
    g = system.rhs[system.blocks["pressure"]]
    if (system.n_pressure and system.space.free_pressure_level
            and abs(g.sum()) > 1e-10 * np.abs(g).sum()):
        return (f"; incompatible mass data: the pressure level is free, "
                f"and the mass sources minus the boundary flux sum to "
                f"{-g.sum():.3e}, not 0")
    return ""


_PIVOT_RATIO_LIMIT = 1e-13


def _checked_inverse_growth(lu, scale, system):
    """max|K| ||K^-1 y||_inf after two steps of inverse iteration from the
    fixed probe z_i = cos(i) (each step's y of infinity norm 1), checked
    against 1 / _PIVOT_RATIO_LIMIT. Every pivot of an SPD K is at least its
    smallest eigenvalue, so a negligible pivot means ||K^-1|| >= 1 / pivot;
    the first step can miss that growth where z is nearly orthogonal to the
    null direction, the second step starts from that direction. Reads no
    copy of the factor."""
    x, growth = np.cos(np.arange(lu.shape[0])), 1.0
    with np.errstate(all="ignore"):  # a singular factor may give inf or nan
        for _ in range(2):
            x = lu.solve(x / growth)
            growth = np.abs(x).max(initial=0.0)
    growth *= scale
    if not growth <= 1.0 / _PIVOT_RATIO_LIMIT:  # a non-finite growth too
        cause = _failure_cause(system,
                               "matrix is singular to working precision")
        raise SolverError(
            f"factorization produced a negligible pivot (inverse growth "
            f"{growth:.3e} above {1.0 / _PIVOT_RATIO_LIMIT:.0e} at matrix "
            f"scale {scale:.3e}){cause}"
        )
    return growth


def _factor(K, system, name):
    """Symmetric-mode SuperLU factor of K, the named matrix, and its
    checked inverse growth."""
    K = K.tocsc()
    scale = np.abs(K.data).max(initial=0.0)
    if not np.isfinite(scale):
        raise SolverError(f"{name} holds a non-finite entry: the system "
                          f"overflows double precision")
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  relax=_SUPERLU_RELAX, panel_size=_SUPERLU_PANEL_SIZE,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "ALLOC FAILS" in str(exc).upper():  # SuperLU's own allocation
            raise MemoryError(
                f"factorization of {name}: {str(exc).strip()}") from exc
        raise SolverError(
            f"factorization of {name} failed "
            f"({exc}){_failure_cause(system, 'matrix is singular')}"
        ) from exc
    return lu, _checked_inverse_growth(lu, scale, system)


def _exact_correction(system):
    """Factor once; return the exact correction of a residual of the full
    system and the `Factor` it solves with."""
    M = system.matrix
    if not system.n_pressure:
        lu, growth = _factor(M, system, "the velocity operator")
        return lu.solve, Factor(lu, growth)
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    space = system.space
    free_level = space.free_pressure_level
    rows, cols = space.tree
    if len(rows) + free_level < system.n_pressure:
        raise SolverError(
            f"the dual tree of the free bubbles reaches "
            f"{len(rows) + free_level} of the {system.n_pressure} macro "
            f"triangles{_failure_cause(system, 'matrix is singular')}")
    A = M[vel, vel]
    tree = space.tree_factor
    w = space.tables.areas
    Z = space.kernel
    lu, growth = _factor(Z.T @ A @ Z, system, "the kernel operator Z^T A Z")

    def correction(res):
        f, g = res[vel], res[pre]
        u = np.zeros_like(f)
        u[cols] = tree.solve(-g[rows])  # B u = -g
        u += Z @ lu.solve(Z.T @ (f - A @ u))
        p = np.zeros_like(g)
        p[rows] = tree.solve((A @ u - f)[cols], trans="T")
        if free_level:  # area-weighted mean zero
            p -= (w @ p) / w.sum()
        return np.concatenate([u, p])

    return correction, Factor(lu, growth)


def _pcg(M, b, precondition, norm_b):
    """CG on the SPD system M x = b from x = 0, preconditioned with
    `precondition`: (x, steps) once the updated residual falls below
    _PCG_FLOOR ||b||, or (x, None) if it does not within _PCG_STEP_CAP
    steps."""
    x = np.zeros_like(b)
    r = b.copy()
    p = precondition(r)
    rz = r @ p
    for step in range(1, _PCG_STEP_CAP + 1):
        q = M @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) < _PCG_FLOOR * norm_b:
            return x, step
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x, None


def _nearby_solve(system, nearby, norm_b):
    """(x, residual, backward error, growth bound, CG steps) of CG
    preconditioned with the nearby factor, or None where the bound passes
    the pivot check's limit or CG does not reach its floor and certify."""
    factor, spread = nearby
    growth = factor.growth * spread
    if not growth <= 1.0 / _PIVOT_RATIO_LIMIT:
        return None
    M, b = system.matrix, system.rhs
    x, steps = _pcg(M, b, factor.lu.solve, norm_b)
    if steps is None:
        return None
    res, bwd = _certificate(M, x, b, norm_b)
    if not (res < RESIDUAL_LIMIT or bwd < RESIDUAL_LIMIT):
        return None
    return x, res, bwd, growth, steps


def solve(system, nearby=None):
    """Solve from one sparse factor. Without `nearby`, the system's own:
    an exact solve, refined once with the same factor. `nearby`, for a
    system without a pressure block, is a pair (factor, spread): the
    `Factor` of a nearby SPD matrix K_0 (`SolveReport.factor` of its
    solve) and a spread s >= 1 such that the system's inverse growth is at
    most s times K_0's (for Cook's operator at lambda and lambda_0,
    max(lambda / lambda_0, lambda_0 / lambda)). The system is then solved
    by CG preconditioned with that factor, run to its floor and certified
    against its own matrix; where s times K_0's growth passes the pivot
    check's limit, or CG does not reach its floor and certify within
    _PCG_STEP_CAP steps, the system is factored as without `nearby`.

    Raises SolverError on structural singularity, on a matrix to factor
    that overflows double precision, or on failure to certify the solve
    (neither the relative residual nor the normwise backward error below
    RESIDUAL_LIMIT, a NaN of either or a non-finite ||b|| included)."""
    start = time.perf_counter()
    if nearby is not None and system.n_pressure:
        raise ValueError("CG with a nearby factor needs a system without a "
                         "pressure block")
    M, b = system.matrix, system.rhs
    # an overflow or NaN here is named by the certificate, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        norm_b = np.linalg.norm(b)
        done = (None if nearby is None
                else _nearby_solve(system, nearby, norm_b))
    if done is not None:
        factor = nearby[0]
        x, res, bwd, growth, steps = done
    else:
        correction, factor = _exact_correction(system)
        growth, steps = factor.growth, 0
        with np.errstate(over="ignore", invalid="ignore"):
            x = correction(b)
            x += correction(b - M @ x)
            res, bwd = _certificate(M, x, b, norm_b)
    if not (np.isfinite(norm_b)
            and (res < RESIDUAL_LIMIT or bwd < RESIDUAL_LIMIT)):
        if not np.isfinite([norm_b, res, bwd]).all():
            raise SolverError(
                f"non-finite certificate (relative residual {res:.3e}, "
                f"backward error {bwd:.3e}): the system or the solution "
                f"holds a non-finite value, or a norm of one overflows "
                f"double precision"
            )
        raise SolverError(
            f"relative residual {res:.3e} and backward error {bwd:.3e} "
            f"above {RESIDUAL_LIMIT:g}{_failure_cause(system)}"
        )
    return SolveReport(
        solution=x,
        residual=res,
        backward_error=bwd,
        diagnostics={"nnz_LU": factor.lu.nnz,
                     "inverse_growth": float(growth), "pcg_steps": steps},
        wall_time=time.perf_counter() - start,
        factor=None if system.n_pressure else factor,
    )
