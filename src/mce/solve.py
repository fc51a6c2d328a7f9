"""Solution of the assembled sparse systems.

A symmetric saddle system (velocity-pressure block C equal to the
transpose of the pressure-velocity block D, empty pressure-pressure block)
is solved by the iterated-penalty (augmented-Lagrangian) method: the SPD
velocity operator K = A + r C W^-1 D, with W the diagonal of macro areas,
is factored once, and corrections on the full saddle residual are taken
until it reaches 1e-13 of the load. Because div V_h equals the P0 pressure
space exactly, a few steps suffice, and the pressure block and the dense
mean-zero multiplier row never enter a factorization. Every other system
(elasticity, and the non-symmetric Nitsche slip system, on which the
iteration stalls) goes through sparse LU with partial pivoting and
iterative refinement. Both paths are certified against the original
matrix: relative residual or normwise backward error below 1e-9.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

RESIDUAL_LIMIT = 1e-9
PENALTY_TOLERANCE = 1e-13  # stop once ||b - Mx|| <= this * ||b||
PENALTY_STEP_LIMIT = 50
PENALTY_SCALE = 1e3  # r = this * max diag(A) / max diag(C W^-1 D)


class SolverError(Exception):
    """Factorization or accuracy failure, with the offending block named
    when it can be identified."""


@dataclass
class SolveReport:
    """Solution vector with its certificate.

    `residual` is ||Ax-b|| / ||b||; `backward_error` is the normwise
    backward error ||Ax-b|| / (||A||_inf ||x|| + ||b||), the meaningful
    certificate when the matrix scale dwarfs the load (lambda -> inf).
    `diagnostics` holds the factor's fill (`nnz_L`, `nnz_U`) and pivot
    range, `iterations` (solves with the factor) and `penalty` (r, None
    on the LU path).
    """

    solution: np.ndarray
    residual: float
    backward_error: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _relative_residual(matrix, x, b):
    norm_b = np.linalg.norm(b)
    r = np.linalg.norm(b - matrix @ x)
    return r / norm_b if norm_b > 0 else r


def _backward_error(matrix, x, b):
    norm_a = np.abs(matrix).sum(axis=1).max()  # infinity norm
    r = np.linalg.norm(b - matrix @ x)
    denom = norm_a * np.linalg.norm(x) + np.linalg.norm(b)
    return r / denom if denom > 0 else r


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
    if system.n_pressure and not system.has_multiplier:
        return _NULLSPACE_MESSAGE
    return "matrix is singular"


_PIVOT_RATIO_LIMIT = 1e-13


def _checked_pivots(lu, matrix, system):
    pivots = np.abs(lu.U.diagonal())
    scale = np.abs(matrix).max()
    if pivots.size and scale > 0 and pivots.min() < _PIVOT_RATIO_LIMIT * scale:
        raise SolverError(
            f"factorization produced a negligible pivot "
            f"({pivots.min():.3e} against matrix scale {scale:.3e}); "
            f"{_structural_diagnosis(system)}"
        )
    return pivots


def _factorize(system):
    try:
        lu = splu(system.matrix.tocsc())
    except RuntimeError as exc:
        raise SolverError(
            f"factorization failed ({exc}); {_structural_diagnosis(system)}"
        ) from exc
    return lu, _checked_pivots(lu, system.matrix, system)


def _diagnostics(lu, pivots, iterations, penalty=None):
    return {
        "nnz_L": lu.L.nnz,
        "nnz_U": lu.U.nnz,
        "min_pivot": float(pivots.min()) if pivots.size else None,
        "max_pivot": float(pivots.max()) if pivots.size else None,
        "iterations": iterations,
        "penalty": penalty,
    }


def _constant_in_kernel(C):
    """True when the constant pressure lies in the kernel of C (up to
    rounding): no boundary term fixes the pressure level."""
    ones = np.ones(C.shape[1])
    return np.abs(C @ ones).max() <= 1e-10 * (np.abs(C) @ ones).max()


def _symmetric_saddle_blocks(system):
    """(A, C, D) when the system is a symmetric saddle system the iterated
    penalty applies to, else None."""
    if not system.n_pressure:
        return None
    M = system.matrix.tocsr()
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    C, D = M[vel, pre], M[pre, vel]
    if M[pre, pre].count_nonzero():
        return None
    scale = np.abs(C).max()
    if abs(C - D.T).max() > 1e-12 * scale:
        return None
    if system.has_multiplier and not _constant_in_kernel(C):
        return None
    return M[vel, vel], C, D


def _solve_lu(system):
    lu, pivots = _factorize(system)
    x = lu.solve(system.rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError(
            f"non-finite solution; {_structural_diagnosis(system)}"
        )
    res = _relative_residual(system.matrix, x, system.rhs)
    sweeps = 0
    while sweeps < 3 and res >= RESIDUAL_LIMIT:
        x = x + lu.solve(system.rhs - system.matrix @ x)
        res = _relative_residual(system.matrix, x, system.rhs)
        sweeps += 1
    return x, _diagnostics(lu, pivots, 1 + sweeps)


def _solve_penalty(system, A, C, D):
    """Iterated penalty in correction form on the full saddle residual."""
    if not system.has_multiplier and _constant_in_kernel(C):
        raise SolverError(_NULLSPACE_MESSAGE)
    w_inv = 1.0 / system.space.tables.areas
    CWD = (C @ sparse.diags(w_inv) @ D).tocsc()
    r = PENALTY_SCALE * A.diagonal().max() / CWD.diagonal().max()
    K = (A + r * CWD).tocsc()
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            f"factorization of the penalized velocity operator failed "
            f"({exc}); {_structural_diagnosis(system)}"
        ) from exc
    pivots = _checked_pivots(lu, K, system)

    M, b = system.matrix, system.rhs
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    x = np.zeros_like(b)
    if system.has_multiplier:
        # C 1 = 0, so summing the pressure rows leaves m sum(w) = sum(h)
        mrow = system.blocks["multiplier"].start
        weights = M[pre, mrow].toarray().ravel()
        x[mrow] = b[pre].sum() / weights.sum()
    tolerance = PENALTY_TOLERANCE * np.linalg.norm(b)
    steps = 0
    while True:
        res = b - M @ x
        norm_res = np.linalg.norm(res)
        if norm_res <= tolerance:
            break
        if steps == PENALTY_STEP_LIMIT or not np.isfinite(norm_res):
            raise SolverError(
                f"iterated penalty stopped after {steps} steps at relative "
                f"residual {norm_res / np.linalg.norm(b):.3e} (r = {r:.3e})"
            )
        res_u, res_p = res[vel], res[pre]
        du = lu.solve(res_u + r * (C @ (w_inv * res_p)))
        x[vel] += du
        x[pre] += r * w_inv * (D @ du - res_p)
        if system.has_multiplier:  # shift p onto the multiplier row
            x[pre] += (b[mrow] - weights @ x[pre]) / weights.sum()
        steps += 1
    return x, _diagnostics(lu, pivots, steps, r)


def solve(system):
    """Solve by iterated penalty (symmetric saddle systems) or sparse LU
    (all others); raises SolverError on structural singularity, on a
    penalty iteration that does not converge, or on failure to certify the
    solve (both the relative residual and the normwise backward error
    above 1e-9)."""
    start = time.perf_counter()
    blocks = _symmetric_saddle_blocks(system)
    if blocks is None:
        x, diagnostics = _solve_lu(system)
    else:
        x, diagnostics = _solve_penalty(system, *blocks)
    res = _relative_residual(system.matrix, x, system.rhs)
    bwd = _backward_error(system.matrix, x, system.rhs)
    if res >= RESIDUAL_LIMIT and bwd >= RESIDUAL_LIMIT:
        raise SolverError(
            f"relative residual {res:.3e} and backward error {bwd:.3e} "
            f"above 1e-9; {_structural_diagnosis(system)}"
        )
    return SolveReport(
        solution=x,
        residual=res,
        backward_error=bwd,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - start,
    )


def refine_iteratively(system, x0, rounds=3):
    """Iterative refinement from an initial guess; the residual never
    increases (each correction is kept only if it improves)."""
    start = time.perf_counter()
    lu, pivots = _factorize(system)
    x = np.asarray(x0, dtype=float).copy()
    res = _relative_residual(system.matrix, x, system.rhs)
    applied = 0
    for _ in range(rounds):
        dx = lu.solve(system.rhs - system.matrix @ x)
        applied += 1
        candidate = x + dx
        cand_res = _relative_residual(system.matrix, candidate, system.rhs)
        if cand_res >= res:
            break
        x, res = candidate, cand_res
    return SolveReport(
        solution=x,
        residual=res,
        backward_error=_backward_error(system.matrix, x, system.rhs),
        diagnostics=_diagnostics(lu, pivots, applied),
        wall_time=time.perf_counter() - start,
    )
