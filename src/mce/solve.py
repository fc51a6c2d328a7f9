"""Solution of the assembled sparse systems.

Every system goes through one path. The SPD velocity operator
K = A + r D^T W^-1 D, with D the pressure-velocity block and W the
diagonal of macro areas, is factored once (K = A when there is no
pressure block, as for elasticity). Right-preconditioned GMRES then runs
on the full saddle matrix, with the iterated-penalty step as the
preconditioner: du = K^-1 (r_u + r D^T W^-1 r_p), dp = r W^-1 (D du - r_p).
Because div V_h equals the P0 pressure space exactly, K^-1 is a
near-exact augmented-Lagrangian preconditioner, a few steps suffice, and
the pressure block and the dense mean-zero multiplier row never enter a
factorization. Every assembled system is symmetric, so the
velocity-pressure block is D^T, and where the mean-zero multiplier row is
present, D^T 1 = 0. A system that leaves its pressure level free, as
only a hand-built one can, is refused before any factoring. The
factor is the one copy of K's LU that a solve keeps: a negligible pivot is
found by inverse iteration on a fixed probe, never by reading L or U, of
which SciPy would build and keep CSC copies. Every solve is certified
against the original matrix: relative residual or normwise backward error
below 1e-9.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .forms import _constant_in_kernel

RESIDUAL_LIMIT = 1e-9
KRYLOV_TOLERANCE = 1e-13  # stop once the estimated ||b - Mx|| <= this * ||b||
KRYLOV_STEP_LIMIT = 30
PENALTY_SCALE = 1e3  # r = this * max diag(A) / max diag(D^T W^-1 D)


class SolverError(Exception):
    """Factorization or accuracy failure, with the offending block named
    when it can be identified."""


@dataclass
class SolveReport:
    """Solution vector with its certificate.

    `residual` is ||Ax-b|| / ||b||; `backward_error` is the normwise
    backward error ||Ax-b|| / (||A||_inf ||x|| + ||b||), the meaningful
    certificate when the matrix scale dwarfs the load (lambda -> inf).
    `diagnostics` holds `nnz_LU` (the entries the factor stores, supernodal
    padding included), `inverse_growth` (max|K| ||K^-1 y||_inf from the
    pivot check, held below 1e13), `iterations` (Krylov steps, one solve
    with the factor each) and `penalty` (r, None without a pressure block).
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


_NULLSPACE_MESSAGE = (
    "pressure block nullspace: the system has a pressure block but "
    "no mean-zero multiplier row and no natural boundary to fix the "
    "pressure level"
)


def _structural_diagnosis(system):
    matrix = system.matrix.tocsr()
    empty = np.flatnonzero(np.diff(matrix.indptr) == 0)
    if empty.size:
        row = int(empty[0])
        for name, sl in system.blocks.items():
            if sl.start <= row < sl.stop:
                return f"empty row {row} in the {name} block"
        return f"empty row {row}"
    return "matrix is singular"


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
        raise SolverError(
            f"factorization produced a negligible pivot (inverse growth "
            f"{growth:.3e} above {1.0 / _PIVOT_RATIO_LIMIT:.0e} at matrix "
            f"scale {scale:.3e}); {_structural_diagnosis(system)}"
        )
    return growth


def _penalty_preconditioner(system):
    """Factor K once; return the penalty step as a map from a residual
    of the full saddle system to a correction, the factor with its
    inverse growth, and r (None without a pressure block)."""
    M = system.matrix
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    A = M[vel, vel]
    r = None
    if system.n_pressure:
        if not system.has_multiplier and _constant_in_kernel(M[vel, pre]):
            raise SolverError(_NULLSPACE_MESSAGE)
        D = M[pre, vel]
        w_inv = 1.0 / system.space.tables.areas
        DWD = (D.T @ sparse.diags(w_inv) @ D).tocsc()
        r = PENALTY_SCALE * A.diagonal().max() / DWD.diagonal().max()
        A = A + r * DWD
        del DWD
    K = A.tocsc()
    del A  # only K is factored: no CSR copy of it lives through splu
    scale = np.abs(K).max()
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            f"factorization of the penalized velocity operator failed "
            f"({exc}); {_structural_diagnosis(system)}"
        ) from exc
    del K  # the factor is the one copy: no CSC copy of L or U is read
    growth = _checked_inverse_growth(lu, scale, system)
    if r is None:
        return lu.solve, lu, growth, r

    if system.has_multiplier:
        mrow = system.blocks["multiplier"].start
        weights = M[pre, mrow].toarray().ravel()

    def step(res):
        res_p = res[pre]
        dx = np.zeros_like(res)
        if system.has_multiplier:
            # the multiplier row is present only where D^T 1 = 0, so
            # summing the pressure rows leaves m sum(w) = sum(res_p)
            dx[mrow] = res_p.sum() / weights.sum()
            res_p = res_p - weights * dx[mrow]
        du = lu.solve(res[vel] + r * (D.T @ (w_inv * res_p)))
        dx[vel] = du
        dx[pre] = r * w_inv * (D @ du - res_p)
        if system.has_multiplier:  # shift p onto the multiplier row
            dx[pre] += (res[mrow] - weights @ dx[pre]) / weights.sum()
        return dx

    return step, lu, growth, r


def _gmres(M, b, beta, precondition):
    """Right-preconditioned GMRES in flexible form from x = 0, with
    beta = ||b||: the preconditioned directions Z are kept, so x = Z y
    needs no further solve. Stops once the least-squares residual estimate
    reaches KRYLOV_TOLERANCE * beta, after KRYLOV_STEP_LIMIT steps, or at a
    step that adds no direction (singular or non-finite), and leaves the
    rest to the caller's certificate. Returns x and the number of steps."""
    if beta == 0:
        return np.zeros_like(b), 0
    m = KRYLOV_STEP_LIMIT
    V, Z = [b / beta], []
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    k = 0
    while k < m and abs(g[k]) > KRYLOV_TOLERANCE * beta:
        Z.append(precondition(V[k]))
        w = M @ Z[k]
        for i in range(k + 1):  # modified Gram-Schmidt
            H[i, k] = V[i] @ w
            w -= H[i, k] * V[i]
        H[k + 1, k] = np.linalg.norm(w)
        V.append(w / H[k + 1, k] if H[k + 1, k] else w)
        for i in range(k):  # the earlier Givens rotations
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    -sn[i] * H[i, k] + cs[i] * H[i + 1, k])
        rho = np.hypot(H[k, k], H[k + 1, k])
        if not rho > 0:
            break
        cs[k], sn[k] = H[k, k] / rho, H[k + 1, k] / rho
        H[k, k], H[k + 1, k] = rho, 0.0
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        k += 1
    x = np.zeros_like(b)
    for z, y in zip(Z, np.linalg.solve(H[:k, :k], g[:k])):  # H triangular
        x += y * z
    return x, k


def solve(system):
    """Solve by GMRES preconditioned with the factored penalized velocity
    operator; raises SolverError on structural singularity, or on failure
    to certify the solve (neither the relative residual nor the normwise
    backward error below 1e-9, a NaN of either included), naming the step
    count when the step limit was reached."""
    start = time.perf_counter()
    precondition, lu, growth, r = _penalty_preconditioner(system)
    # an overflow or NaN here is named by the certificate, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        norm_b = np.linalg.norm(system.rhs)
        x, steps = _gmres(system.matrix, system.rhs, norm_b, precondition)
        res, bwd = _certificate(system.matrix, x, system.rhs, norm_b)
    if not (res < RESIDUAL_LIMIT or bwd < RESIDUAL_LIMIT):
        if not (np.isfinite(res) and np.isfinite(bwd)):
            raise SolverError(
                f"non-finite certificate (relative residual {res:.3e}, "
                f"backward error {bwd:.3e}): the system or the solution "
                f"holds a non-finite value, or a norm of one overflows "
                f"double precision"
            )
        if steps == KRYLOV_STEP_LIMIT:
            raise SolverError(
                f"GMRES stopped after {steps} steps at relative residual "
                f"{res:.3e} (backward error {bwd:.3e})"
            )
        raise SolverError(
            f"relative residual {res:.3e} and backward error {bwd:.3e} "
            f"above 1e-9; {_structural_diagnosis(system)}"
        )
    return SolveReport(
        solution=x,
        residual=res,
        backward_error=bwd,
        diagnostics={
            "nnz_LU": lu.nnz,
            "inverse_growth": float(growth),
            "iterations": steps,
            "penalty": r,
        },
        wall_time=time.perf_counter() - start,
    )
