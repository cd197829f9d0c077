"""Training loop: Siamese weight sharing, mini-batches, Adadelta updates,
global-norm gradient clipping, variational dropout, per-epoch data
augmentation by reshuffling known-document concatenation order,
cross-validation splits, and early stopping on development accuracy.

Both documents of a pair are encoded by the same parameter object, so the
two Siamese branches share weights by construction; the pair gradient is
the sum of the two branch gradients.

Beyond the paper's recipe, each batch also pushes apart documents drawn
from different instances of the batch (in-batch negatives, weighted by
`TrainConfig.in_batch_weight`; 0 restores the paper's per-pair objective).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable
from .encoder import (
    EncoderParams,
    document_gradients,
    embed_documents,
    encode_documents,
    init_encoder_params,
    sample_dropout_masks,
)
from .numeric import ShapeError, clip_by_global_norm, make_rng
from .preprocess import (
    EmptyDocumentError,
    EncodedDocument,
    VerificationInstance,
    encode_document,
    join_encoded,
)
from .siamese import (
    Thresholds,
    contrastive_loss,
    contrastive_loss_grad,
    distance,
    in_batch_negative_loss,
    loss_at_distance,
)

__all__ = [
    "TrainConfig",
    "AdadeltaState",
    "CvSplit",
    "SplitError",
    "EncodedPair",
    "EncodedInstance",
    "FitResult",
    "adadelta_update",
    "batch_gradients",
    "train_step",
    "augment_epoch",
    "make_cv_splits",
    "encode_texts",
    "encode_instance",
    "fit",
    "fit_encoded",
]


# The values each annotated field type accepts from a config file.
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of the model and its training run.

    Dimension and optimizer defaults follow the reference recipe this
    encoder was built for: 300-d word vectors halved at each level,
    sentence/word caps 123/33, Adadelta at fixed learning rate 1.0,
    dropout 0.3, clip norm 5, batch size 32.

    Two fields depart from that recipe.  `in_batch_weight` weights the
    in-batch negative term of `batch_gradients`, and 0 gives the paper's
    objective.  `learn_scale` trains the encoder's output scale; off, the
    scale's gradient is 0, so it stays at 1.0 and the model is the paper's.
    """

    d_w: int = 300
    d_s: int = 150
    d_d: int = 75
    max_words: int = 33
    max_sentences: int = 123
    batch_size: int = 32
    clip_norm: float = 5.0
    dropout_rate: float = 0.3
    adadelta_lr: float = 1.0
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    tau1: float = 1.0
    tau2: float = 3.0
    max_epochs: int = 30
    patience: int = 10
    seed: int = 0
    init_lo: float = -0.05
    init_hi: float = 0.05
    in_batch_weight: float = 8.0
    learn_scale: bool = True

    def __post_init__(self) -> None:
        for name in ("d_w", "d_s", "d_d", "max_words", "max_sentences",
                     "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not self.adadelta_lr > 0.0:
            raise ValueError("adadelta_lr must be positive")
        if not 0.0 <= self.adadelta_rho < 1.0:
            raise ValueError("adadelta_rho must be in [0, 1)")
        if not self.adadelta_eps > 0.0:
            raise ValueError("adadelta_eps must be positive")
        if not 0.0 <= self.tau1 < self.tau2:
            raise ValueError("0 <= tau1 < tau2 required")
        if not self.init_lo < self.init_hi:
            raise ValueError("init_lo < init_hi required")
        if not self.in_batch_weight >= 0.0:
            raise ValueError("in_batch_weight must be >= 0")

    @property
    def thresholds(self) -> Thresholds:
        return Thresholds(self.tau1, self.tau2)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Config from `to_dict` output.  Anything but a dict, an unknown
        key, or a value not of its field's type (an int passes for a float,
        a bool for nothing else) raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {d!r}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in d.items():
            # bool is an int subclass: a bool passes for no other type
            if isinstance(value, bool) != (types[name] == "bool") or not isinstance(
                value, FIELD_TYPES[types[name]]
            ):
                raise ValueError(
                    f"config field {name!r} must be of type {types[name]}, got {value!r}"
                )
        return cls(**d)

    def updated(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


@dataclass
class AdadeltaState:
    """Per-parameter running averages E[g^2] and E[dx^2], zero-initialized
    and advanced in place by `adadelta_update`."""

    sq_grad_avg: dict[str, np.ndarray]
    sq_update_avg: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, arrays: dict[str, np.ndarray]) -> "AdadeltaState":
        return cls(
            sq_grad_avg={k: np.zeros_like(a) for k, a in arrays.items()},
            sq_update_avg={k: np.zeros_like(a) for k, a in arrays.items()},
        )


def adadelta_update(
    state: AdadeltaState,
    grads: dict[str, np.ndarray],
    lr: float = 1.0,
    rho: float = 0.95,
    eps: float = 1e-6,
) -> tuple[dict[str, np.ndarray], AdadeltaState]:
    """One Adadelta step; returns (applied deltas, `state`), the state
    advanced in place.

    E[g^2] <- rho E[g^2] + (1-rho) g^2
    dx      = -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
    E[dx^2] <- rho E[dx^2] + (1-rho) dx^2
    applied = lr * dx

    Each parameter takes one scratch array besides its delta, and every
    product and sum is the one of the formulas above, in their order, so
    the bits are those of the out-of-place expressions.
    """
    if set(state.sq_grad_avg) != set(grads):
        raise ShapeError(
            f"state keys {sorted(state.sq_grad_avg)} do not match "
            f"gradient keys {sorted(grads)}"
        )
    for key, g in grads.items():  # all checked before any state moves
        if state.sq_grad_avg[key].shape != g.shape:
            raise ShapeError(
                f"gradient {key} shape {g.shape} does not match state "
                f"{state.sq_grad_avg[key].shape}"
            )
    deltas: dict[str, np.ndarray] = {}
    for key, g in grads.items():
        eg2 = state.sq_grad_avg[key]
        edx2 = state.sq_update_avg[key]
        scratch = np.multiply(1.0 - rho, g)  # E[g^2]
        scratch *= g
        eg2 *= rho
        eg2 += scratch
        dx = np.add(edx2, eps)  # dx
        np.sqrt(dx, out=dx)
        np.negative(dx, out=dx)
        np.add(eg2, eps, out=scratch)
        np.sqrt(scratch, out=scratch)
        dx /= scratch
        dx *= g
        np.multiply(1.0 - rho, dx, out=scratch)  # E[dx^2]
        scratch *= dx
        edx2 *= rho
        edx2 += scratch
        dx *= lr
        deltas[key] = dx
    return deltas, state


class EncodedPair(NamedTuple):
    """A verification pair ready for the encoder: the (concatenated) known
    document, the unknown document, and the label."""

    known: EncodedDocument
    unknown: EncodedDocument
    label: int


def batch_gradients(
    params: EncoderParams,
    batch: list[EncodedPair],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[float, EncoderParams]:
    """Loss and parameter gradients of one mini-batch objective.

    The objective is the mean pair loss plus `config.in_batch_weight`
    times `in_batch_negative_loss` over the 2B document embeddings, where
    the two documents of one pair share an owner.  Fresh dropout masks
    are drawn for each document, known before unknown, pair by pair.  One
    taped pass encodes the 2B documents for both terms, and one backward
    walk per level serves each document's summed upstream gradient and
    sums the parameter gradients over the batch.
    With weight 0 this is the mean over the batch of each pair's
    contrastive loss and of the sum of its two branch gradients.  Without
    `config.learn_scale` the scale's gradient is 0.
    """
    if not batch:
        raise ValueError("batch_gradients requires a non-empty batch")
    dims = (config.d_w, config.d_s, config.d_d)
    thresholds = config.thresholds
    n = len(batch)
    docs = [doc for pair in batch for doc in (pair.known, pair.unknown)]
    masks = (
        sample_dropout_masks(dims, config.dropout_rate, rng, len(docs))
        if config.dropout_rate > 0.0 else None
    )
    x, tape = encode_documents(params, docs, masks, record=True)
    upstream = np.empty_like(x)
    loss_sum = 0.0
    for k, pair in enumerate(batch):
        x1, x2 = x[2 * k], x[2 * k + 1]
        loss_sum += contrastive_loss(x1, x2, pair.label, thresholds)
        upstream[2 * k : 2 * k + 2] = contrastive_loss_grad(x1, x2, pair.label, thresholds)
    cross_loss = 0.0
    if config.in_batch_weight > 0.0:
        cross_loss, cross_grad = in_batch_negative_loss(
            x, np.repeat(np.arange(n), 2), thresholds
        )
        # the summed gradient is divided by n below
        cross_grad *= n * config.in_batch_weight
        upstream += cross_grad

    total = document_gradients(params, tape, upstream)
    if not config.learn_scale:
        total.scale[0] = 0.0  # a zero step: the scale stays at 1.0
    mean_loss = loss_sum / n + config.in_batch_weight * cross_loss
    if not np.isfinite(mean_loss):
        raise FloatingPointError(f"non-finite batch loss {mean_loss}")
    for a in total.arrays().values():
        a /= n
    return mean_loss, total


def train_step(
    params: EncoderParams,
    opt_state: AdadeltaState,
    batch: list[EncodedPair],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One mini-batch update; mutates `params` and `opt_state` in place.

    The `batch_gradients` gradient is clipped by global norm and applied
    through Adadelta.  The batch's tapes are used up by its one backward
    pass.  Returns (batch loss, pre-clip gradient norm).
    """
    mean_loss, grads = batch_gradients(params, batch, config, rng)
    grad_arrays = grads.arrays()
    keys = list(grad_arrays)
    clipped, grad_norm = clip_by_global_norm(
        [grad_arrays[k] for k in keys], config.clip_norm
    )
    grads_dict = dict(zip(keys, clipped))
    deltas, _ = adadelta_update(
        opt_state, grads_dict, config.adadelta_lr, config.adadelta_rho,
        config.adadelta_eps,
    )
    param_arrays = params.arrays()
    for key in keys:
        param_arrays[key] += deltas[key]
    return mean_loss, grad_norm


def augment_epoch(known: list[list], rng: np.random.Generator) -> list[list]:
    """Redraw the order of each instance's known documents (one list per
    instance, of texts or encodings) uniformly; a one-item list is passed
    through unchanged and draws nothing."""
    return [
        items if len(items) == 1 else [items[k] for k in rng.permutation(len(items))]
        for items in known
    ]


class SplitError(ValueError):
    """A corpus too small for the cross-validation split asked of it."""


@dataclass(frozen=True)
class CvSplit:
    """One cross-validation fold: disjoint train/dev/test instance ids."""

    fold_index: int
    train_ids: list[int]
    dev_ids: list[int]
    test_ids: list[int]


def make_cv_splits(
    corpus_size: int, k: int = 10, rng: np.random.Generator | None = None
) -> list[CvSplit]:
    """k folds over a shuffled corpus; each instance is in exactly one
    test fold, and the remainder of each fold splits train:dev at 8:1.

    Fold sizes differ by at most one when k does not divide the corpus.
    A corpus that leaves a fold empty or without a train set is rejected.
    """
    if rng is None:
        raise ValueError("make_cv_splits requires an explicit rng")
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if corpus_size < k:
        raise SplitError(f"corpus size {corpus_size} is smaller than k = {k}")
    ids = [int(i) for i in rng.permutation(corpus_size)]
    base, extra = divmod(corpus_size, k)
    folds: list[list[int]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(ids[start : start + size])
        start += size
    splits: list[CvSplit] = []
    for i in range(k):
        rest: list[int] = []
        for j in range(k):
            if j != i:
                rest.extend(folds[j])
        dev_size = max(1, round(len(rest) / 9))
        if len(rest) <= dev_size:
            raise SplitError(f"empty train set: {corpus_size} instances in {k} folds")
        splits.append(
            CvSplit(
                fold_index=i,
                train_ids=rest[dev_size:],
                dev_ids=rest[:dev_size],
                test_ids=folds[i],
            )
        )
    return splits


class EncodedInstance(NamedTuple):
    """An instance's texts, each encoded once: the known texts in their
    order (None for one that segments to nothing), the unknown text, and
    the label."""

    known: list[EncodedDocument | None]
    unknown: EncodedDocument
    label: int

    def joined(self) -> EncodedPair:
        """The pair, its known side joined by `join_encoded` in the
        known texts' current order."""
        return EncodedPair(join_encoded(self.known), self.unknown, self.label)


def encode_texts(
    inst: VerificationInstance, table: EmbeddingTable, config: TrainConfig
) -> EncodedInstance:
    """Every text of the instance encoded once by `encode_document` at the
    config's caps.  A known text that segments to nothing becomes None,
    since it adds no sentence to the known side."""
    caps = (config.max_words, config.max_sentences)
    known = []
    for text in inst.known_docs:
        try:
            known.append(encode_document(text, table, *caps))
        except EmptyDocumentError:
            known.append(None)
    unknown = encode_document(inst.unknown_doc, table, *caps)
    return EncodedInstance(known, unknown, inst.label)


def encode_instance(
    inst: VerificationInstance, table: EmbeddingTable, config: TrainConfig
) -> EncodedPair:
    """Encode both sides of the pair; the known side joins the known
    documents' encodings in their current order."""
    return encode_texts(inst, table, config).joined()


# Pairs embedded together by `pair_distances`: one batch of the default
# config, so scoring a large set holds no more word vectors at once than
# the taped pass of a training step (`embed_documents` gathers one word
# vector per distinct (document, token id) pair it is given).  The chunk
# also sets the rows of the tape-free run's GEMMs, so another value may
# move a distance in its last bits, and with it a digest of distances.
EVAL_CHUNK_PAIRS = 32


def pair_distances(
    params: EncoderParams, pairs: list[EncodedPair]
) -> tuple[list[float], list[int]]:
    """Embedding distance and label for every pair, in order; each chunk
    of EVAL_CHUNK_PAIRS pairs is embedded in one `embed_documents` call."""
    distances = []
    for lo in range(0, len(pairs), EVAL_CHUNK_PAIRS):
        chunk = pairs[lo : lo + EVAL_CHUNK_PAIRS]
        x = embed_documents(params, [doc for p in chunk for doc in (p.known, p.unknown)])
        distances += [distance(x[2 * k], x[2 * k + 1]) for k in range(len(chunk))]
    return distances, [p.label for p in pairs]


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts; positive class is same_author."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def counts_at_threshold(
    distances: list[float], labels: list[int], tau: float
) -> ConfusionCounts:
    """Confusion counts with same_author called strictly below tau."""
    tp = fp = tn = fn = 0
    for d, label in zip(distances, labels):
        same = d < tau
        if same and label == 1:
            tp += 1
        elif same and label == 0:
            fp += 1
        elif not same and label == 1:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class FitResult:
    """Trained parameters plus the per-epoch training log.  `dev_distances`
    are the dev pairs' distances under `params`, in dev-instance order."""

    params: EncoderParams
    thresholds: Thresholds
    log: list[dict] = field(repr=False)
    best_epoch: int = 0
    best_dev_accuracy: float = 0.0
    dev_distances: list[float] = field(default_factory=list, repr=False)


def _dev_metrics(
    params: EncoderParams,
    dev_pairs: list[EncodedPair],
    thresholds: Thresholds,
) -> tuple[float, float, list[float]]:
    """Mean contrastive loss, accuracy at the midpoint threshold, and the
    distances both come from, with the tie rule of `evaluate.evaluate_pairs`."""
    distances, labels = pair_distances(params, dev_pairs)
    loss_sum = 0.0
    for d, label in zip(distances, labels):
        loss_sum += loss_at_distance(d, label, thresholds)
    counts = counts_at_threshold(distances, labels, thresholds.midpoint)
    return loss_sum / len(dev_pairs), (counts.tp + counts.tn) / counts.total, distances


def fit(
    train_instances: list[VerificationInstance],
    dev_instances: list[VerificationInstance],
    table: EmbeddingTable,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Train until development accuracy stops improving: `fit_encoded` on
    every text encoded once (`encode_texts`)."""
    train = [encode_texts(x, table, config) for x in train_instances]
    dev = [encode_texts(x, table, config) for x in dev_instances]
    return fit_encoded(train, dev, config, rng)


def fit_encoded(
    train: list[EncodedInstance],
    dev: list[EncodedInstance],
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """The training body of `fit`, on instances encoded by `encode_texts`.

    Each epoch redraws the known-document concatenation order (data
    augmentation), joins the known sides anew, shuffles mini-batches, and
    logs train loss, dev loss, dev accuracy at the midpoint threshold,
    mean gradient norm, and wall time.  The parameters kept are the ones
    from the best-dev-accuracy epoch; training stops after `patience`
    epochs without improvement or at max_epochs.
    """
    if not train:
        raise ValueError("empty train set")
    if not dev:
        raise ValueError("empty dev set")
    if rng is None:
        rng = make_rng(config.seed)

    params = init_encoder_params(
        config.d_w, config.d_s, config.d_d, config.init_lo, config.init_hi, rng
    )
    opt_state = AdadeltaState.zeros_like(params.arrays())
    thresholds = config.thresholds
    dev_pairs = [x.joined() for x in dev]

    log: list[dict] = []
    best_accuracy = -1.0  # below any accuracy: epoch 1 sets best_params
    best_epoch = 0
    best_distances: list[float] = []
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        known = augment_epoch([x.known for x in train], rng)
        pairs = [x._replace(known=k).joined() for k, x in zip(known, train)]
        order = rng.permutation(len(pairs))
        loss_sum = 0.0
        norm_sum = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [pairs[j] for j in order[lo : lo + config.batch_size]]
            loss, grad_norm = train_step(params, opt_state, batch, config, rng)
            loss_sum += loss * len(batch)
            norm_sum += grad_norm
            n_batches += 1
        dev_loss, dev_accuracy, distances = _dev_metrics(params, dev_pairs, thresholds)
        log.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / len(pairs),
                "dev_loss": dev_loss,
                "dev_accuracy": dev_accuracy,
                "grad_norm_mean": norm_sum / n_batches,
                "seconds": time.perf_counter() - started,
            }
        )
        if dev_accuracy > best_accuracy:
            best_accuracy = dev_accuracy
            best_params = params.copy()
            best_epoch = epoch
            best_distances = distances
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if epochs_since_best >= config.patience:
            break

    return FitResult(
        params=best_params,
        thresholds=thresholds,
        log=log,
        best_epoch=best_epoch,
        best_dev_accuracy=best_accuracy,
        dev_distances=best_distances,
    )
