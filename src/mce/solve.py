"""Solution of the assembled sparse systems.

Every system takes one path: an exact solve from one sparse factor,
refined once with the same factor. Without a pressure block (elasticity)
that is the factor of the system's matrix itself, with no copy. With one,
the solve runs on the discrete kernel: div V_h is the P0 pressure space
exactly, so the velocity-pressure block B (`FESpace.divergence_block`)
has the explicit kernel basis Z of `mce.space.kernel_basis`, and B_b, the
bubble columns of B, is a scaled incidence matrix of the dual graph. On
the spanning tree of `mce.space.dual_tree` its block B_T is square and
upper triangular in BFS order. A residual (f, g) of the system
[[A, -B^T], [-B, 0]] is corrected by u = -B_T^-1 g on the tree columns
plus Z c, with Z^T A Z c = Z^T (f - A u), so B u = -g holds by
construction, and by p = B_T^-T (A u - f) on the tree rows. Both tree
solves read `FESpace.tree_factor`, the space's fill-free SuperLU factor of
B_T, and Z^T A Z is the one factor of the solve. Z, the tree and its
factor are built once per space.
Every assembled system is symmetric, and none carries a row for the
pressure level: the solve fixes it. Where no free bubble reaches the
boundary (a closed boundary), the constant pressure lies in the kernel of
B^T, the tree grows from triangle 0 and drops its row, and p is shifted to
area-weighted mean zero; mass data whose sum a free level cannot balance
fail the certificate, and the failure names them. A negligible pivot is
found by inverse iteration on a fixed probe, never by reading L or U, of
which SciPy would build and keep CSC copies. Every solve is certified
against the original matrix: relative residual or normwise backward error
below 1e-9.

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
    not counted)
    and `inverse_growth` (max|K| ||K^-1 y||_inf of the factored matrix K,
    from the pivot check, held below 1e13).
    """

    solution: np.ndarray
    residual: float
    backward_error: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _certificate(matrix, x, b, norm_b):
    """(relative residual, normwise backward error) of x, both from the
    one residual b - Mx."""
    r = np.linalg.norm(b - matrix @ x)
    denom = np.abs(matrix).sum(axis=1).max() * np.linalg.norm(x) + norm_b
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
    system, the entries the factor stores and its growth."""
    M = system.matrix
    if not system.n_pressure:
        lu, growth = _factor(M, system, "the velocity operator")
        return lu.solve, lu.nnz, growth
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

    return correction, lu.nnz, growth


def solve(system):
    """Solve exactly with one sparse factor, refined once with the same
    factor; raises SolverError on structural singularity, on a matrix to
    factor that overflows double precision, or on failure to certify the
    solve (neither the relative residual nor the normwise backward error
    below RESIDUAL_LIMIT, a NaN of either or a non-finite ||b|| included)."""
    start = time.perf_counter()
    correction, nnz, growth = _exact_correction(system)
    M, b = system.matrix, system.rhs
    # an overflow or NaN here is named by the certificate, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        norm_b = np.linalg.norm(b)
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
        diagnostics={"nnz_LU": nnz, "inverse_growth": float(growth)},
        wall_time=time.perf_counter() - start,
    )
