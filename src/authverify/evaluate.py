"""Metrics, the cross-validation driver, model checkpointing, and pair
verification.

The positive class is same_author (label 1) throughout.  Reports carry
the raw confusion counts next to the derived metrics so every number can
be recomputed, in both fraction and percent form; the aggregate is the
arithmetic mean with the sample (n-1) standard deviation across folds.
All report content is deterministic given the seed: wall-clock timings
stay in the training log and never enter a report.
"""

from __future__ import annotations

import json
import os
import zipfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable
from .encoder import EncoderParams, embed_documents
from .lstm import LstmParams
from .numeric import ShapeError, make_rng
from .preprocess import VerificationInstance, encode_document
from .siamese import PairScore, Thresholds, decide, distance
from .train import (
    ConfusionCounts,
    EncodedInstance,
    EncodedPair,
    FitResult,
    TrainConfig,
    counts_at_threshold,
    encode_texts,
    fit_encoded,
    make_cv_splits,
    pair_distances,
)

__all__ = [
    "ConfusionCounts",
    "Metrics",
    "confusion_metrics",
    "Model",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "pair_distances",
    "counts_at_threshold",
    "calibrate_tau",
    "roc_auc",
    "evaluate_pairs",
    "FoldResult",
    "CvReport",
    "cross_validate",
    "verify_pair",
]

METRIC_NAMES = ("precision", "recall", "f1", "accuracy")


@dataclass(frozen=True)
class Metrics:
    """Derived metrics; `flags` names any 0/0 ratio that was defined as 0."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def confusion_metrics(counts: ConfusionCounts) -> Metrics:
    """precision tp/(tp+fp), recall tp/(tp+fn), f1 2PR/(P+R),
    accuracy (tp+tn)/total; any 0/0 is reported as 0 and flagged."""
    if counts.total == 0:
        raise ValueError("cannot compute metrics over zero pairs")
    flags: list[str] = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            flags.append(f"{name}_undefined")
            return 0.0
        return num / den

    precision = ratio(counts.tp, counts.tp + counts.fp, "precision")
    recall = ratio(counts.tp, counts.tp + counts.fn, "recall")
    if precision + recall == 0.0:
        flags.append("f1_undefined")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    accuracy = (counts.tp + counts.tn) / counts.total
    return Metrics(precision, recall, f1, accuracy, tuple(flags))


@dataclass
class Model:
    """Everything needed to verify a pair: encoder parameters, the
    configuration they were trained under, and the embedding table."""

    params: EncoderParams
    config: TrainConfig
    table: EmbeddingTable

    @property
    def thresholds(self) -> Thresholds:
        return self.config.thresholds


def save_checkpoint(path: str, params: EncoderParams, config: TrainConfig) -> None:
    """Write parameters and config to an .npz container.

    Arrays are stored uncompressed at full precision, so a load returns
    value-exact copies; the config rides along as a JSON string.
    """
    payload = {key.replace(".", "_"): a for key, a in params.arrays().items()}
    payload["config_json"] = np.array(json.dumps(config.to_dict(), sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


# The arrays of a checkpoint: `EncoderParams.arrays()`, "." written "_".
CHECKPOINT_ARRAYS = (
    "level1_w", "level1_u", "level1_b", "level2_w", "level2_u", "level2_b", "scale"
)


class CheckpointError(ValueError):
    """A file that is not a checkpoint of `save_checkpoint`'s form."""


def load_checkpoint(path: str) -> tuple[EncoderParams, TrainConfig]:
    """Inverse of save_checkpoint; round-trips values exactly.  Raises
    CheckpointError for a file that is not an .npz archive or lacks one of
    the arrays or the config, and ShapeError when the arrays do not have
    the stored config's dims."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            config_json = str(archive["config_json"])
            a = {key: archive[key] for key in CHECKPOINT_ARRAYS}
    # ValueError: not numpy's format; TypeError: an .npy array, no archive;
    # KeyError: an array missing; EOFError: empty; BadZipFile: a broken zip
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"not a checkpoint: {exc}") from None
    config = TrainConfig.from_dict(json.loads(config_json))
    params = EncoderParams(
        LstmParams(a["level1_w"], a["level1_u"], a["level1_b"]),
        LstmParams(a["level2_w"], a["level2_u"], a["level2_b"]),
        a["scale"],
    )
    dims = (params.d_w, params.d_s, params.d_d)
    if dims != (config.d_w, config.d_s, config.d_d):
        raise ShapeError(f"checkpoint {path!r}: arrays of dims {dims}, config {config}")
    return params, config


def calibrate_tau(distances: list[float], labels: list[int]) -> float:
    """Decision threshold maximizing accuracy on the given distances.

    Candidates are midpoints between consecutive sorted distances plus
    one below the minimum and one above the maximum; ties resolve to the
    smallest candidate, so the result is deterministic.
    """
    if not distances:
        raise ValueError("cannot calibrate a threshold on zero pairs")
    ordered = sorted(set(distances))
    candidates = [ordered[0] / 2.0 if ordered[0] > 0 else 0.0]
    candidates += [0.5 * (a + b) for a, b in zip(ordered, ordered[1:])]
    candidates.append(ordered[-1] + 1.0)
    best_tau = candidates[0]
    best_correct = -1
    for tau in candidates:
        correct = sum(
            1 for d, label in zip(distances, labels) if (d < tau) == (label == 1)
        )
        if correct > best_correct:
            best_correct = correct
            best_tau = tau
    return float(best_tau)


def roc_auc(distances: list[float], labels: list[int]) -> float:
    """Area under the ROC curve with same_author (label 1) scored by
    closeness: the share of (same-author, different-author) pairs whose
    same-author distance is the smaller, a tie counting half.  The wins
    and ties are counted exactly, in integers."""
    d, y = np.asarray(distances, dtype=np.float64), np.asarray(labels)
    same, diff = np.sort(d[y == 1]), d[y == 0]
    if len(same) + len(diff) != len(d) or not len(same) or not len(diff):
        raise ValueError("AUC needs labels of 0 and 1 only, and both present")
    below = np.searchsorted(same, diff, side="left")
    ties = np.searchsorted(same, diff, side="right") - below
    return (2 * int(below.sum()) + int(ties.sum())) / (2 * len(same) * len(diff))


def evaluate_pairs(
    params: EncoderParams,
    pairs: list[EncodedPair],
    thresholds: Thresholds,
) -> ConfusionCounts:
    """Decide every pair at the midpoint threshold and tally the confusion.

    Same tie rule as `decide`: a distance exactly at the midpoint counts
    as different_authors.
    """
    distances, labels = pair_distances(params, pairs)
    return counts_at_threshold(distances, labels, thresholds.midpoint)


@dataclass
class FoldResult:
    """Outcome of one cross-validation fold.

    `counts`/`metrics` use the fixed midpoint threshold; the calibrated
    fields re-evaluate the fold's test pairs at the threshold that
    maximizes accuracy on its development pairs.
    """

    fold_index: int
    counts: ConfusionCounts
    metrics: Metrics
    best_epoch: int
    epochs_run: int
    calibrated_tau: float = 0.0
    counts_calibrated: ConfusionCounts | None = None
    metrics_calibrated: Metrics | None = None


@dataclass
class CvReport:
    """Per-fold results plus mean and sample standard deviation, the
    `aggregate` always computed from the folds."""

    folds: list[FoldResult]
    seed: int
    config: TrainConfig
    aggregate: dict = field(init=False)

    def __post_init__(self) -> None:
        self.aggregate = out = {}
        for name in METRIC_NAMES:
            values = [getattr(f.metrics, name) for f in self.folds]
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            out[name] = {"mean": mean, "std": std}
        calibrated = [
            f.metrics_calibrated for f in self.folds if f.metrics_calibrated
        ]
        if len(calibrated) == len(self.folds) and calibrated:
            values = [m.accuracy for m in calibrated]
            out["accuracy_calibrated"] = {
                "mean": float(np.mean(values)),
                "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
            }

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "num_folds": len(self.folds),
            "config": self.config.to_dict(),
            "folds": [
                {
                    "fold": f.fold_index,
                    "tp": f.counts.tp,
                    "fp": f.counts.fp,
                    "tn": f.counts.tn,
                    "fn": f.counts.fn,
                    "metrics": f.metrics.as_dict(),
                    "flags": list(f.metrics.flags),
                    "best_epoch": f.best_epoch,
                    "epochs_run": f.epochs_run,
                    "calibrated_tau": f.calibrated_tau,
                    "metrics_calibrated": (
                        f.metrics_calibrated.as_dict()
                        if f.metrics_calibrated
                        else None
                    ),
                }
                for f in self.folds
            ],
            "aggregate": self.aggregate,
            "aggregate_percent": {
                name: {
                    "mean": 100.0 * stats["mean"],
                    "std": 100.0 * stats["std"],
                }
                for name, stats in self.aggregate.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2)


def _run_fold(
    split,
    encoded: list[EncodedInstance],
    config: TrainConfig,
    seed_seq: np.random.SeedSequence,
) -> FoldResult:
    rng = make_rng(seed_seq)
    result: FitResult = fit_encoded(
        [encoded[i] for i in split.train_ids],
        [encoded[i] for i in split.dev_ids],
        config,
        rng=rng,
    )
    test_pairs = [encoded[i].joined() for i in split.test_ids]
    test_distances, test_labels = pair_distances(result.params, test_pairs)
    counts = counts_at_threshold(
        test_distances, test_labels, config.thresholds.midpoint
    )

    dev_labels = [encoded[i].label for i in split.dev_ids]
    tau = calibrate_tau(result.dev_distances, dev_labels)
    counts_cal = counts_at_threshold(test_distances, test_labels, tau)

    return FoldResult(
        fold_index=split.fold_index,
        counts=counts,
        metrics=confusion_metrics(counts),
        best_epoch=result.best_epoch,
        epochs_run=len(result.log),
        calibrated_tau=tau,
        counts_calibrated=counts_cal,
        metrics_calibrated=confusion_metrics(counts_cal),
    )


def _run_folds(
    run_fold: Callable[[int], FoldResult], k: int, processes: int
) -> list[FoldResult]:
    """`run_fold(i)` for every i in range(k), in index order.

    With `processes` > 1 the caller forks `processes` - 1 children, and
    every process, the caller included, claims the next unclaimed fold
    whenever it is free, so folds that stop at different epochs still
    balance.  A child sends each result, or the exception that ended it,
    over its own pipe; the caller drains the pipes between its own folds.
    Every way out kills and reaps every child.
    """
    if processes == 1:
        return [run_fold(i) for i in range(k)]
    # Imported here: serial runs and importing this module need neither.
    import multiprocessing
    import traceback
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    next_fold = ctx.Value("l", 0)

    def claim() -> Iterator[int]:
        while True:
            with next_fold.get_lock():
                i = next_fold.value
                next_fold.value = i + 1
            if i >= k:
                return
            yield i

    def serve(sender) -> None:
        try:
            for i in claim():
                sender.send((i, run_fold(i)))
        except BaseException as exc:
            exc.add_note(f"in fold process {os.getpid()}:\n{traceback.format_exc()}")
            sender.send(exc)

    children: list = []
    receivers: dict = {}
    results: dict[int, FoldResult] = {}

    def collect(timeout: float | None) -> None:
        for receiver in wait(list(receivers), timeout):
            try:
                message = receiver.recv()
            except EOFError:
                child = receivers.pop(receiver)
                receiver.close()
                child.join()
                if child.exitcode != 0:
                    raise RuntimeError(
                        f"fold process {child.pid} ended with exit code "
                        f"{child.exitcode} before reporting its folds"
                    ) from None
                continue
            if isinstance(message, BaseException):
                raise message
            i, result = message
            results[i] = result

    try:
        for _ in range(processes - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=serve, args=(sender,), daemon=True)
            child.start()
            children.append(child)
            sender.close()
            receivers[receiver] = child
        for i in claim():
            results[i] = run_fold(i)
            collect(0)
        while receivers:
            collect(None)
    finally:
        for child in children:
            child.kill()
            child.join()
        for receiver in receivers:
            receiver.close()
    return [results[i] for i in range(k)]


def cross_validate(
    instances: list[VerificationInstance],
    table: EmbeddingTable,
    config: TrainConfig,
    k: int = 10,
    threads: int = 1,
) -> CvReport:
    """k-fold cross-validation: fit on train with dev early stopping, then
    test each fold's held-out instances at the midpoint threshold.

    Every text is encoded once (`encode_texts`), before the folds; each
    fold joins its pairs from those encodings.  `threads` is the number
    of processes doing fold work: with n = min(threads, k) > 1 the caller
    runs folds too and forks n - 1 children by POSIX `fork`, which
    inherit the encodings rather than receive them pickled; call it from
    the main thread of a process that can fork.  Every fold derives
    its own random stream from the config seed, so the report is
    identical whichever process runs a fold; folds are aggregated in
    index order either way.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    split_rng = make_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    splits = make_cv_splits(len(instances), k=k, rng=split_rng)
    fold_seeds = np.random.SeedSequence(
        entropy=config.seed, spawn_key=(1,)
    ).spawn(k)
    encoded = [encode_texts(x, table, config) for x in instances]
    folds = _run_folds(
        lambda i: _run_fold(splits[i], encoded, config, fold_seeds[i]),
        k,
        min(threads, k),
    )
    return CvReport(folds=folds, seed=config.seed, config=config)


def verify_pair(model: Model, doc_a: str, doc_b: str) -> PairScore:
    """Full inference pipeline on two raw texts: normalize, segment,
    tokenize, encode, measure, decide.  Deterministic for a fixed model.
    The two documents are embedded together in one call."""
    caps = (model.config.max_words, model.config.max_sentences)
    enc_a = encode_document(doc_a, model.table, *caps)
    enc_b = encode_document(doc_b, model.table, *caps)
    x_a, x_b = embed_documents(model.params, [enc_a, enc_b])
    return decide(distance(x_a, x_b), model.thresholds)
