"""Products of round spheres and their curvature tensors.

No point ever appears explicitly at this level: every operation is linear
algebra on the tangent space of an implicit point, identified with
R^total_dim carrying the standard inner product and split into one block per
sphere factor.  A round sphere of constant sectional curvature ``kappa`` has
the closed-form curvature endomorphism

    R(x, y)z = kappa * (<y, z> x - <x, z> y)

and the curvature of the product is the block sum of the factor curvatures,
so that the 4-tensor R(w, x, y, z) = <R(w, x)y, z> evaluates to

    sum_a kappa_a * (<x_a, y_a><w_a, z_a> - <w_a, y_a><x_a, z_a>).

With this sign convention R(x, y, x, y) = -kappa for an orthonormal pair
tangent to a single factor, i.e. the sectional curvature is
-R(x, y, x, y) / (|x|^2 |y|^2 - <x, y>^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import ContractViolation, DegenerateInput, InvalidManifold
from .report import AuditReport


@dataclass(frozen=True)
class SphereFactor:
    """A round even-dimensional sphere with positive constant curvature."""

    dim: int
    curvature: float

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise InvalidManifold(f"factor dimension must be even and >= 2, got {self.dim}")
        if not 0 < self.curvature < np.inf:
            raise InvalidManifold(
                f"factor curvature must be positive and finite, got {self.curvature}"
            )

    @property
    def radius(self) -> float:
        """Embedding radius 1/sqrt(curvature)."""
        return float(self.curvature) ** -0.5

    @property
    def ambient_dim(self) -> int:
        """Dimension of the Euclidean space the round sphere embeds in."""
        return self.dim + 1


@dataclass(frozen=True)
class ProductManifold:
    """An ordered Riemannian product of round spheres.

    The tangent space at any point is R^total_dim, block-split per factor;
    ``block_offsets`` gives the starting index of each factor's block.
    """

    factors: tuple[SphereFactor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise InvalidManifold("a product manifold needs at least one factor")
        if not all(isinstance(f, SphereFactor) for f in factors):
            raise InvalidManifold("factors must be SphereFactor instances")
        object.__setattr__(self, "factors", factors)

    @cached_property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @cached_property
    def block_offsets(self) -> tuple[int, ...]:
        offsets, at = [], 0
        for f in self.factors:
            offsets.append(at)
            at += f.dim
        return tuple(offsets)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        return tuple(
            slice(off, off + f.dim) for off, f in zip(self.block_offsets, self.factors)
        )

    @cached_property
    def curvatures(self) -> np.ndarray:
        return np.array([f.curvature for f in self.factors])

    # Embedding layout: each factor sphere lives in R^(dim+1); ambient arrays
    # concatenate those coordinates factor by factor.
    @cached_property
    def ambient_dim(self) -> int:
        return sum(f.ambient_dim for f in self.factors)

    @cached_property
    def ambient_slices(self) -> tuple[slice, ...]:
        slices, at = [], 0
        for f in self.factors:
            slices.append(slice(at, at + f.ambient_dim))
            at += f.ambient_dim
        return tuple(slices)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def block_slice(self, a: int) -> slice:
        if not 0 <= a < self.n_factors:
            raise ContractViolation(f"factor index {a} out of range [0, {self.n_factors})")
        return self.block_slices[a]

    def describe(self) -> str:
        return " x ".join(f"S{f.dim}({f.curvature:g})" for f in self.factors)


def spheres(*dim_curvature: tuple[int, float]) -> ProductManifold:
    """Shorthand: ``spheres((2, 1.0), (4, 1.0))`` = S2(1) x S4(1)."""
    return ProductManifold(tuple(SphereFactor(d, k) for d, k in dim_curvature))


@dataclass(frozen=True)
class FrameVector:
    """A tangent vector in the standard orthonormal product frame."""

    manifold: ProductManifold
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.manifold.total_dim,):
            raise ContractViolation(
                f"frame vector must have length {self.manifold.total_dim}, got {coords.shape}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def block(self, a: int) -> np.ndarray:
        return self.coords[self.manifold.block_slice(a)]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype)


def as_coords(manifold: ProductManifold, v) -> np.ndarray:
    """Coerce a FrameVector or array-like of shape (..., total_dim) to a
    float coordinate array, validating the last axis."""
    a = np.asarray(v, dtype=float)
    if a.shape[-1:] != (manifold.total_dim,):
        raise ContractViolation(
            f"expected vectors of length {manifold.total_dim}, got shape {a.shape}"
        )
    return a


# Samples evaluated per batched pass.  A structure draw holds about five
# (block, n, n) stacks at once; at 256 samples and n = 12 that is about 1.5 MB,
# while the per-call overhead is already small against the work.
SAMPLE_BLOCK = 256


def sample_blocks(count: int):
    """Consecutive slices of at most SAMPLE_BLOCK covering range(count)."""
    for start in range(0, count, SAMPLE_BLOCK):
        yield slice(start, min(start + SAMPLE_BLOCK, count))


def inner(a, b) -> np.ndarray:
    """Inner product over the last axis, broadcasting the leading axes."""
    return np.einsum("...i,...i->...", a, b)


def factor_curvature_endo(
    factor: SphereFactor, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Constant-curvature endomorphism R(x, y)z = kappa (<y,z> x - <x,z> y)."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    for v in (x, y, z):
        if v.shape != (factor.dim,):
            raise ContractViolation(
                f"expected factor vectors of length {factor.dim}, got shape {v.shape}"
            )
    return factor.curvature * (np.dot(y, z) * x - np.dot(x, z) * y)


@dataclass(frozen=True)
class CurvatureOracle:
    """Evaluates the curvature 4-tensor of a product of round spheres."""

    manifold: ProductManifold

    def product_curvature(self, w, x, y, z):
        """R(w, x, y, z) = sum_a <R_a(w_a, x_a) y_a, z_a>.

        The arguments are (..., total_dim) arrays whose leading axes
        broadcast against each other; the result has the broadcast leading
        shape, and is a plain float when every argument is a single vector.
        """
        man = self.manifold
        w, x, y, z = (as_coords(man, v) for v in (w, x, y, z))
        total = 0.0
        for f, sl in zip(man.factors, man.block_slices):
            wa, xa, ya, za = w[..., sl], x[..., sl], y[..., sl], z[..., sl]
            total += f.curvature * (
                inner(xa, ya) * inner(wa, za) - inner(wa, ya) * inner(xa, za)
            )
        return float(total) if np.ndim(total) == 0 else total

    def __call__(self, w, x, y, z):
        return self.product_curvature(w, x, y, z)

    def sectional_curvature(self, x, y):
        """-R(x, y, x, y) normalised by the squared area of the (x, y) plane."""
        man = self.manifold
        x = as_coords(man, x)
        y = as_coords(man, y)
        sq = inner(x, x) * inner(y, y)
        gram = sq - inner(x, y) ** 2
        if np.any(gram <= TOL.degenerate_area * np.maximum(sq, 1e-300)):
            raise DegenerateInput("x, y span a numerically degenerate plane")
        return -self.product_curvature(x, y, x, y) / gram

    def symmetry_audit(self, sample_count: int, seed: int) -> AuditReport:
        """Max violation of the four curvature symmetries and first Bianchi
        over seeded random quadruples, each permuted-argument evaluation a
        separate batched oracle call."""
        if sample_count < 1:
            raise ContractViolation("sample_count must be >= 1")
        man = self.manifold
        rng = np.random.default_rng(seed)
        R = self.product_curvature
        bases = np.empty(sample_count)
        violations = np.empty((sample_count, 4))
        for block in sample_blocks(sample_count):
            quads = rng.standard_normal((block.stop - block.start, 4, man.total_dim))
            w, x, y, z = np.moveaxis(quads, 1, 0)
            base = bases[block] = R(w, x, y, z)
            violations[block] = np.abs(np.stack((
                base + R(x, w, y, z),
                base + R(w, x, z, y),
                base - R(y, z, w, x),
                base + R(x, y, w, z) + R(y, w, x, z),
            ), axis=-1))
        scale = np.max(np.abs(bases), initial=1.0)
        worst = np.max(violations, axis=0, initial=0.0)
        claims = (
            ("antisym-first-pair", "R(w,x,y,z) + R(x,w,y,z) == 0"),
            ("antisym-second-pair", "R(w,x,y,z) + R(w,x,z,y) == 0"),
            ("pair-symmetry", "R(w,x,y,z) - R(y,z,w,x) == 0"),
            ("first-bianchi", "R(w,x,y,z) + R(x,y,w,z) + R(y,w,x,z) == 0"),
        )
        report = AuditReport(
            f"curvature symmetries on {man.describe()} ({sample_count} samples, seed {seed})"
        )
        for (name, claim), value in zip(claims, worst):
            report.add(name, value, 0.0, TOL.linalg * scale, claim)
        return report
