"""Quadrature rules on the reference triangle and reference edge.

The triangle rules are the symmetric Gauss rules of degree 2, 4 (loads)
and 6 (error norms), all with strictly positive weights, stored in
barycentric form. The weights sum to 1/2, the area of the reference
triangle (0,0), (1,0), (0,1), on which x = lambda_1 and y = lambda_2.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def _orbit3(a):
    """Barycentric permutation orbit of (1-2a, a, a)."""
    return [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]


def _orbit6(a, b):
    c = 1 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# barycentric points and weights (weights sum to 1), per exactness degree
_RULES = {
    2: (_orbit3(1 / 6), [1 / 3] * 3),
    4: (
        _orbit3(0.445948490915965) + _orbit3(0.091576213509771),
        [0.223381589678011] * 3 + [0.109951743655322] * 3,
    ),
    6: (
        _orbit3(0.063089014491502)
        + _orbit3(0.249286745170910)
        + _orbit6(0.310352451033785, 0.053145049844816),
        [0.050844906370207] * 3
        + [0.116786275726379] * 3
        + [0.082851075618374] * 6,
    ),
}


def triangle_barycentric(degree):
    """Barycentric coordinates (n, 3) and weights (n,) of the rule exact up
    to `degree` on the reference triangle; weights sum to 1/2 and are all
    positive.

    Raises ValueError for a degree other than 2, 4 or 6.
    """
    if degree not in _RULES:
        raise ValueError(
            f"unsupported quadrature degree {degree}; need 2, 4 or 6")
    bary, w = _RULES[degree]
    return np.array(bary), 0.5 * np.array(w)


# the edge rules computed so far, one read-only (points, weights) pair per
# point count
_EDGE_RULES = {}


def edge_rule(npoints=3):
    """Gauss-Legendre points/weights on [0, 1]; exact to degree 2n-1.

    Each point count's rule is computed once; the arrays are read-only."""
    if npoints not in _EDGE_RULES:
        x, w = leggauss(npoints)
        rule = 0.5 * (x + 1.0), 0.5 * w
        for values in rule:
            values.flags.writeable = False
        _EDGE_RULES[npoints] = rule
    return _EDGE_RULES[npoints]
