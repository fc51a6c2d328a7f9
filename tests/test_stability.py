"""The element's stability claims, measured: pressure robustness (a
gradient load moves only the pressure) and a discrete inf-sup constant
bounded away from zero (Chapelle & Bathe, Comput. Struct. 1993), against
the bubble-free P1-P0 control that lacks both."""

from functools import cache

import numpy as np
import pytest
import scipy.linalg

from mce import bench
from mce.forms import (
    ProblemCoefficients,
    assemble_brinkman,
    assemble_nitsche_brinkman_tangential,
)
from mce.mesh import generate_cook_mesh, generate_unit_square_mesh, subdivide
from mce.solve import solve
from mce.space import build_space

from split_meshes import jittered_square

# pressure robustness ------------------------------------------------------


def gradient_load(points):
    """10^6 grad(x^3 y): cubic, so the degree-4 load rule integrates f.v
    exactly and the discrete velocity must vanish to rounding."""
    x, y = points[:, 0], points[:, 1]
    return 1e6 * np.column_stack([3.0 * x * x * y, x * x * x])


ROBUST_MESHES = {
    "grid-8": lambda: generate_unit_square_mesh(8),
    "grid-32": lambda: generate_unit_square_mesh(32),
    "jittered-16": lambda: jittered_square(16, seed=1),
    "cook-8": lambda: generate_cook_mesh(8),
}
# (mu, sigma, boundary mode): Darcy takes only the normal condition
ROBUST_MODELS = {
    "stokes-dirichlet": (1.0, 0.0, "dirichlet"),
    "stokes-normal": (1.0, 0.0, "normal"),
    "brinkman-dirichlet": (1e-6, 1.0, "dirichlet"),
    "brinkman-normal": (1e-6, 1.0, "normal"),
    "darcy-normal": (0.0, 1.0, "normal"),
}


@pytest.mark.parametrize("model", sorted(ROBUST_MODELS))
@pytest.mark.parametrize("mesh", sorted(ROBUST_MESHES))
def test_gradient_load_moves_only_the_pressure(mesh, model):
    mu, sigma, mode = ROBUST_MODELS[model]
    space = build_space(subdivide(ROBUST_MESHES[mesh]()), mode)
    system = assemble_nitsche_brinkman_tangential(
        space, ProblemCoefficients(mu=mu, sigma=sigma, f=gradient_load))
    u, p, _ = system.expand(solve(system).solution)
    assert np.abs(u).max() <= 1e-12 * np.abs(p).max()


# inf-sup stability --------------------------------------------------------

INF_SUP_MESHES = {
    "grid": generate_unit_square_mesh,
    "jittered": lambda n: jittered_square(n, seed=1),
    "cook": generate_cook_mesh,
}
LEVELS = (4, 8, 16)


@cache
def schur_eigenvalues(family, n, control):
    """Eigenvalues of S = B A^-1 B^T against W = diag(|T|), A the mu = 1
    velocity block on the no-slip space, by dense `eigh`; the control
    fixes every bubble at zero, leaving vector P1 against P0."""
    space = build_space(subdivide(INF_SUP_MESHES[family](n)), "dirichlet")
    if control:
        space = bench._plain_affine(space)
    system = assemble_brinkman(space, ProblemCoefficients(mu=1.0))
    vel, pre = system.blocks["velocity"], system.blocks["pressure"]
    A = system.matrix[vel, vel].toarray()
    B = system.matrix[pre, vel].toarray()
    S = B @ np.linalg.solve(A, B.T)
    return scipy.linalg.eigh(S, np.diag(space.tables.areas),
                             eigvals_only=True)


def inf_sup(family, n, control=False):
    """beta_h: the square root of the smallest eigenvalue above 1e-10 times
    the largest."""
    values = schur_eigenvalues(family, n, control)
    return float(np.sqrt(values[values >= 1e-10 * values.max()].min()))


@pytest.mark.parametrize("n", LEVELS)
@pytest.mark.parametrize("family", sorted(INF_SUP_MESHES))
def test_only_the_constant_pressure_is_unstable(family, n):
    # measured: 0.405 / 0.398 / 0.396 (grid), 0.387 / 0.389 / 0.380
    # (jittered), 0.229 / 0.205 / 0.177 (Cook) at n = 4 / 8 / 16
    values = schur_eigenvalues(family, n, False)
    assert np.sum(values < 1e-10 * values.max()) == 1
    assert inf_sup(family, n) >= 0.15


@pytest.mark.parametrize("family", sorted(INF_SUP_MESHES))
def test_inf_sup_constant_holds_under_refinement(family):
    assert inf_sup(family, LEVELS[-1]) >= 0.7 * inf_sup(family, LEVELS[0])


@pytest.mark.parametrize("family", sorted(INF_SUP_MESHES))
def test_bubbles_stabilize_the_p1_control(family):
    # the control decays like h: 0.050 (grid), 0.032 (jittered), 0.025
    # (Cook) at n = 16, with 62 zero eigenvalues where the element has one
    n = LEVELS[-1]
    assert inf_sup(family, n) >= 5.0 * inf_sup(family, n, control=True)
