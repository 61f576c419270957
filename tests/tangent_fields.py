"""Tangent-field builders for the bracket and Nijenhuis tests.

A tangent field is a plain batched evaluator pts -> (n, ambient_dim), as in
``sphereacs.fields``; these builders give the rotation fields with a
closed-form bracket and the image J X of a field under a structure field.
"""

import numpy as np

from sphereacs.errors import ContractViolation, InvalidManifold


def linear_field(man, factor, skew):
    """Killing field of one factor: X(x) = S x on the geometric sphere for a
    skew ambient matrix S, zero on the other factors."""
    f = man.factors[factor]
    s = np.asarray(skew, dtype=float)
    if s.shape != (f.ambient_dim, f.ambient_dim):
        raise ContractViolation(f"skew matrix must be {f.ambient_dim}x{f.ambient_dim}")
    if np.max(np.abs(s + s.T)) > 1e-12:
        raise ContractViolation("rotation generator must be skew-symmetric")
    sl = man.ambient_slices[factor]
    radius = f.radius

    def fn(pts):
        out = np.zeros_like(pts)
        out[:, sl] = radius * (pts[:, sl] @ s.T)
        return out

    return fn


def cross_matrix(axis):
    """3x3 matrix of v -> axis x v."""
    a = np.asarray(axis, dtype=float)
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def rotation_field(man, factor, axis):
    """Rotation field x -> axis x x on a 2-sphere factor."""
    if man.factors[factor].dim != 2:
        raise InvalidManifold("rotation fields about an axis need a 2-sphere factor")
    return linear_field(man, factor, cross_matrix(axis))


def image(Jf, X):
    """The tangent field J X: q -> J(q) X(q)."""
    return lambda pts: np.einsum("nij,nj->ni", Jf(pts), X(pts))
