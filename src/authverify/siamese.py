"""Siamese verification head: Euclidean distance between document
embeddings, the two-threshold contrastive loss and its analytic
gradient, and the thresholded same-author decision.

The loss pulls same-author pairs below tau1 and pushes different-author
pairs above tau2; the decision threshold is the midpoint (tau1+tau2)/2.
A pair sitting exactly on the midpoint is called different_authors, the
conservative choice for a verification setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ShapeError

__all__ = [
    "SAME_AUTHOR",
    "DIFFERENT_AUTHORS",
    "Thresholds",
    "PairScore",
    "distance",
    "contrastive_loss",
    "loss_at_distance",
    "contrastive_loss_grad",
    "in_batch_negative_loss",
    "decide",
]

SAME_AUTHOR = "same_author"
DIFFERENT_AUTHORS = "different_authors"


@dataclass(frozen=True)
class Thresholds:
    """Distance thresholds with tau1 < tau2; tau1 must be non-negative."""

    tau1: float = 1.0
    tau2: float = 3.0

    def __post_init__(self) -> None:
        if self.tau1 < 0:
            raise ValueError(f"tau1 must be >= 0, got {self.tau1}")
        if not self.tau1 < self.tau2:
            raise ValueError(
                f"thresholds require tau1 < tau2, got {self.tau1} >= {self.tau2}"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.tau1 + self.tau2)


@dataclass(frozen=True)
class PairScore:
    """Decision for one document pair: the embedding distance, the verdict,
    and the signed margin distance - midpoint (negative means same side)."""

    distance: float
    decision: str
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "distance": self.distance,
            "decision": self.decision,
            "margin": self.margin,
        }


def distance(x1: np.ndarray, x2: np.ndarray) -> float:
    """Euclidean distance sqrt(sum_i (x1_i - x2_i)^2)."""
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ShapeError(
            f"distance requires equal 1-D shapes, got {x1.shape} and {x2.shape}"
        )
    diff = x1 - x2
    return float(np.sqrt(np.dot(diff, diff)))


def _check_label(label: int) -> None:
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")


def contrastive_loss(
    x1: np.ndarray, x2: np.ndarray, label: int, thresholds: Thresholds
) -> float:
    """(l/2) max(d - tau1, 0)^2 + ((1-l)/2) max(tau2 - d, 0)^2."""
    return loss_at_distance(distance(x1, x2), label, thresholds)


def loss_at_distance(d: float, label: int, thresholds: Thresholds) -> float:
    """The contrastive loss of a pair whose embeddings lie `d` apart."""
    _check_label(label)
    if label == 1:
        gap = max(d - thresholds.tau1, 0.0)
    else:
        gap = max(thresholds.tau2 - d, 0.0)
    return 0.5 * gap * gap


def contrastive_loss_grad(
    x1: np.ndarray, x2: np.ndarray, label: int, thresholds: Thresholds
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dL/dx1, dL/dx2); always dL/dx1 + dL/dx2 = 0.

    Zero in the flat regions, and zero at d = 0 by subgradient choice
    (any direction would do; zero keeps training deterministic).
    """
    _check_label(label)
    d = distance(x1, x2)
    zero = np.zeros_like(x1)
    if d == 0.0:
        return zero, zero.copy()
    if label == 1:
        if d <= thresholds.tau1:
            return zero, zero.copy()
        g1 = ((d - thresholds.tau1) / d) * (x1 - x2)
    else:
        if d >= thresholds.tau2:
            return zero, zero.copy()
        g1 = (-(thresholds.tau2 - d) / d) * (x1 - x2)
    return g1, -g1


def in_batch_negative_loss(
    embeddings: np.ndarray, owners: np.ndarray, thresholds: Thresholds
) -> tuple[float, np.ndarray]:
    """Label-0 contrastive loss over pairs of rows whose owners differ,
    and its gradient with respect to each embedding row.

    A cross pair (a, b) with tau1 < d_ab < tau2 is active and costs
    (1/2) (tau2 - d_ab)^2; the loss is the mean over the active pairs.
    A pair already within tau1 is skipped, so the term never pushes
    apart documents that the label-1 term has pulled together (rows of
    one author from different owners); it equally leaves alone different
    authors that have collided within tau1.  The count of active pairs
    is held constant in the gradient, so as pairs leave the active band
    the remaining ones weigh more.  Returns (0, zeros) when no pair is
    active.  All pairs come from one (n, n) distance matrix.
    """
    if embeddings.ndim != 2 or owners.shape != (embeddings.shape[0],):
        raise ShapeError(
            f"in_batch_negative_loss requires (n, d) embeddings and (n,) owners, "
            f"got {embeddings.shape} and {owners.shape}"
        )
    diff = embeddings[:, None, :] - embeddings[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    active = (
        (owners[:, None] != owners[None, :])
        & (d > thresholds.tau1)
        & (d < thresholds.tau2)
    )
    # each unordered pair appears twice in the symmetric matrices
    n_active = int(np.count_nonzero(active)) // 2
    if n_active == 0:
        return 0.0, np.zeros_like(embeddings)
    gap = np.where(active, thresholds.tau2 - d, 0.0)
    loss = 0.25 * float(np.sum(gap * gap)) / n_active
    coef = -gap / np.where(active, d, 1.0) / n_active
    return loss, np.einsum("ab,abk->ak", coef, diff)


def decide(d: float, thresholds: Thresholds) -> PairScore:
    """same_author iff d < (tau1+tau2)/2; the tie goes to different_authors."""
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    tau = thresholds.midpoint
    decision = SAME_AUTHOR if d < tau else DIFFERENT_AUTHORS
    return PairScore(distance=d, decision=decision, margin=d - tau)
