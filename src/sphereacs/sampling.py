"""Deterministic sample-point generators and plain-text point files.

Two generators cover the sphere factors:

* Fibonacci lattice on S^2: point k of n has height y_k = -1 + (2k+1)/n and
  longitude phi_k = k * pi * (3 - sqrt(5)) (the golden angle).  A seeded Haar
  rotation of the whole lattice makes distinct seeds give distinct, equally
  well-spread point sets.

* Kronecker low-discrepancy directions for higher spheres: the generalised
  golden-ratio sequence u_k = frac(u_0 + k * alpha) in [0,1)^m with
  alpha_j = phi^-(j+1), phi the unique real root of x^(m+1) = x + 1, and a
  seeded offset u_0; consecutive pairs are pushed through the Box-Muller map
  to Gaussians and each ambient block is normalised to the unit sphere.
"""

from __future__ import annotations

import numpy as np

from .acs import haar_orthogonal
from .errors import ConfigError, ContractViolation, DegenerateInput
from .manifold import ProductManifold


def fibonacci_sphere(n: int, seed: int | None = None) -> np.ndarray:
    """n points of the Fibonacci lattice on the unit 2-sphere; a seed applies
    a deterministic Haar rotation to the lattice."""
    if n < 1:
        raise ContractViolation("need at least one sample point")
    k = np.arange(n)
    y = -1.0 + (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = k * (np.pi * (3.0 - np.sqrt(5.0)))
    pts = np.column_stack([r * np.cos(phi), y, r * np.sin(phi)])
    if seed is not None:
        rot = haar_orthogonal(3, np.random.default_rng([seed, 2]))
        pts = pts @ rot.T
    return pts


def kronecker_sequence(n: int, dims: int, seed: int) -> np.ndarray:
    """n terms of the seeded generalised golden-ratio sequence in [0,1)^dims."""
    if n < 1 or dims < 1:
        raise ContractViolation("need n >= 1 and dims >= 1")
    # unique real root of x^(dims+1) = x + 1 by fixed-point iteration
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -(1.0 + np.arange(dims))
    u0 = np.random.default_rng([seed, dims]).uniform(size=dims)
    k = np.arange(n)[:, np.newaxis]
    return np.mod(u0 + k * alpha, 1.0)


def low_discrepancy_directions(n: int, ambient_dim: int, seed: int) -> np.ndarray:
    """n seeded low-discrepancy unit vectors in R^ambient_dim: Kronecker
    sequence -> Box-Muller Gaussians -> normalisation."""
    pairs = (ambient_dim + 1) // 2
    u = kronecker_sequence(n, 2 * pairs, seed)
    u1 = u[:, :pairs]
    u2 = u[:, pairs:]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.empty((n, 2 * pairs))
    z[:, 0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[:, 1::2] = radius * np.sin(2.0 * np.pi * u2)
    z = z[:, :ambient_dim]
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DegenerateInput("degenerate low-discrepancy direction")
    return z / norms


def manifold_points(man: ProductManifold, n: int, seed: int) -> np.ndarray:
    """n sample points of the embedded product: Fibonacci lattice per
    2-sphere factor, low-discrepancy directions per higher factor, seeded
    independently per factor."""
    blocks = []
    for a, f in enumerate(man.factors):
        if f.dim == 2:
            blocks.append(fibonacci_sphere(n, seed=int(np.random.default_rng([seed, a]).integers(2**32))))
        else:
            blocks.append(low_discrepancy_directions(n, f.ambient_dim, int(np.random.default_rng([seed, a]).integers(2**32))))
    return np.concatenate(blocks, axis=1)


def chart_safe_points(
    man: ProductManifold, n: int, seed: int, margin: float = 0.05
) -> np.ndarray:
    """Like manifold_points, but drops points whose 4-sphere blocks come
    within ``margin`` of the antipodal bad set of the chart structure, taking
    the first n survivors of a double-size batch (deterministic)."""
    raw = manifold_points(man, 2 * n + 8, seed)
    keep = np.ones(raw.shape[0], dtype=bool)
    for f, sl in zip(man.factors, man.ambient_slices):
        if f.dim == 4:
            keep &= raw[:, sl][:, -1] > -1.0 + margin
    kept = raw[keep]
    if kept.shape[0] < n:
        raise DegenerateInput("too many sample points fell in the excluded chart set")
    return kept[:n]


def save_points(path, pts: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in pts:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def load_points(path, man: ProductManifold) -> np.ndarray:
    """Load a plain-text list of ambient coordinates; each factor block must
    already be a unit vector to 1e-6 and is re-normalised exactly."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = np.array([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: unparseable coordinate: {exc}") from exc
            if row.shape != (man.ambient_dim,):
                raise ConfigError(
                    f"{path}:{lineno}: expected {man.ambient_dim} coordinates, got {row.size}"
                )
            if not np.all(np.isfinite(row)):
                raise ConfigError(f"{path}:{lineno}: non-finite coordinate")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no sample points found")
    pts = np.vstack(rows)
    for sl in man.ambient_slices:
        norms = np.linalg.norm(pts[:, sl], axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ConfigError(f"{path}: factor block not on the unit sphere (|u| off by > 1e-6)")
        pts[:, sl] /= norms[:, np.newaxis]
    return pts
