"""Dense linear-algebra substrate: seeded randomness, uniform
initialization, and global-norm gradient clipping.

Parameters and gradients are plain C-contiguous (row-major) numpy arrays
of float64, the precision gradient checking needs; `uniform_init` draws
matrices and bias vectors alike.  Shapes must match exactly: none of the
public operations broadcast.

Randomness comes from numpy's PCG64 generator, whose stream is fixed by
numpy's stability policy, so a given seed reproduces the same draws on
every platform.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "make_rng",
    "uniform_init",
    "global_norm",
    "clip_by_global_norm",
]


class ShapeError(ValueError):
    """Operand shapes do not match exactly."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is NaN or infinite."""


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Return a PCG64 generator seeded with `seed`, an integer or a
    `SeedSequence` child.

    The same seed always yields the same draw sequence; every random
    choice in this package flows from generators built here.
    """
    return np.random.Generator(np.random.PCG64(seed))


def uniform_init(
    shape: int | tuple[int, ...],
    lo: float,
    hi: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Array of `shape` with entries drawn uniformly from [lo, hi)."""
    if lo >= hi:
        raise ValueError(f"uniform_init requires lo < hi, got [{lo}, {hi})")
    return rng.uniform(lo, hi, size=shape)


def global_norm(arrays: list[np.ndarray]) -> float:
    """L2 norm over all entries of all arrays taken together."""
    total = 0.0
    for a in arrays:
        total += float(np.dot(a.ravel(), a.ravel()))
    return float(np.sqrt(total))


def clip_by_global_norm(
    grads: list[np.ndarray], threshold: float
) -> tuple[list[np.ndarray], float]:
    """Rescale `grads` so their joint L2 norm is at most `threshold`.

    Returns (clipped gradients, original norm).  When the norm is already
    within the threshold the input arrays are returned unchanged, which
    makes the operation exactly idempotent.  Non-finite gradient entries
    raise NonFiniteError: they signal training divergence, not a state
    clipping should paper over.
    """
    if threshold <= 0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    for a in grads:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("non-finite gradient entries before clipping")
    norm = global_norm(grads)
    if norm <= threshold:
        return grads, norm
    scale = threshold / norm
    return [a * scale for a in grads], norm
