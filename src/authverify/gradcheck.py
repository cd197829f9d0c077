"""Finite-difference verification of the analytic gradients.

Central differences with a configurable step; comparisons use relative
error against the analytic value, switching to an absolute criterion for
near-zero entries.  Everything runs in float64.  Exercised both by the
test suite and by the `gradcheck` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, document_gradients, encode_documents
from .lstm import LstmParams, LstmState, lstm_run, lstm_run_backward
from .numeric import make_rng
from .preprocess import EncodedDocument
from .siamese import Thresholds, contrastive_loss, contrastive_loss_grad, distance

__all__ = [
    "GradCheckFailure",
    "GradCheckReport",
    "compare_grads",
    "numeric_gradient",
    "check_lstm_config",
    "check_pipeline_config",
    "run_suite",
]

EPS = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-7
SMALL = 1e-6


@dataclass(frozen=True)
class GradCheckFailure:
    array: str
    index: tuple
    analytic: float
    numeric: float
    error: float


@dataclass
class GradCheckReport:
    label: str
    checked: int
    failures: list[GradCheckFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def compare_grads(
    name: str,
    analytic: np.ndarray,
    numeric: np.ndarray,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
    small: float = SMALL,
) -> list[GradCheckFailure]:
    """Elementwise comparison: relative error below rel_tol, or absolute
    error below abs_tol when the analytic value is below `small`."""
    failures: list[GradCheckFailure] = []
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    for index in np.ndindex(analytic.shape):
        a = float(analytic[index])
        n = float(numeric[index])
        err = abs(a - n)
        if abs(a) < small:
            if err >= abs_tol:
                failures.append(GradCheckFailure(name, index, a, n, err))
        elif err / abs(a) >= rel_tol:
            failures.append(GradCheckFailure(name, index, a, n, err / abs(a)))
    return failures


def numeric_gradient(loss_fn, array: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. every entry,
    perturbing `array` in place and restoring it."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = loss_fn()
        flat[j] = orig - eps
        down = loss_fn()
        flat[j] = orig
        out[j] = (up - down) / (2.0 * eps)
    return grad


def check_lstm_config(
    d_in: int,
    d_out: int,
    steps: int | tuple[int, ...],
    seed: int,
    label: str = "",
) -> GradCheckReport:
    """One random cell configuration: checks gradients w.r.t. every
    parameter, every input, and the initial state.

    `steps` is one sequence's length, or a tuple of lengths run together
    as rows of one batch, packed row after row; rows not in
    non-increasing length order exercise the run's reordering of the
    initial state.  The scalar test loss is sum(h_final) +
    0.5 * sum(c_final) over every row, which exercises both upstream
    paths of the backward pass.
    """
    rng = make_rng(seed)
    lengths = np.atleast_1d(steps)
    rows = len(lengths)
    params = LstmParams.init_uniform(d_in, d_out, -0.5, 0.5, rng)
    xs = rng.uniform(-1.0, 1.0, size=(lengths.sum(), d_in))
    h0 = rng.uniform(-0.5, 0.5, size=(rows, d_out))
    c0 = rng.uniform(-0.5, 0.5, size=(rows, d_out))

    def loss() -> float:
        final, _ = lstm_run(params, xs, lengths, init=LstmState(h0, c0))
        return float(np.sum(final.h) + 0.5 * np.sum(final.c))

    _, tape = lstm_run(params, xs, lengths, init=LstmState(h0, c0), record=True)
    grads, input_grads, d_h0, d_c0 = lstm_run_backward(
        params, tape, np.ones((rows, d_out)), np.full((rows, d_out), 0.5)
    )

    failures: list[GradCheckFailure] = []
    checked = 0
    for name, analytic, target in [
        ("w", grads.w, params.w),
        ("u", grads.u, params.u),
        ("b", grads.b, params.b),
        ("inputs", input_grads, xs),
        ("h0", d_h0, h0),
        ("c0", d_c0, c0),
    ]:
        numeric = numeric_gradient(loss, target)
        failures.extend(compare_grads(name, analytic, numeric))
        checked += analytic.size
    return GradCheckReport(
        label=label or f"lstm d_in={d_in} d_out={d_out} steps={steps} seed={seed}",
        checked=checked,
        failures=failures,
    )


def _random_document(
    rng: np.random.Generator,
    d_w: int,
    n_sentences: int,
    words_per_sentence: int,
    max_words: int,
    max_sentences: int,
) -> EncodedDocument:
    words = np.zeros((max_sentences, max_words, d_w))
    lengths = np.full(n_sentences, words_per_sentence, dtype=np.int64)
    for k in range(n_sentences):
        words[k, :words_per_sentence] = rng.uniform(
            -1.0, 1.0, size=(words_per_sentence, d_w)
        )
    return EncodedDocument(
        words=words, sent_lengths=lengths, num_sentences=n_sentences
    )


def check_pipeline_config(
    seed: int,
    label_value: int,
    d_w: int = 3,
    d_s: int = 2,
    d_d: int = 2,
    label: str = "",
    scale: float = 1.5,
) -> GradCheckReport:
    """Encoder plus contrastive loss on one document pair, dropout off,
    every parameter checked, the output scale at `scale`.

    The pair takes training's path: one taped `encode_documents` call and
    one `document_gradients` walk, which sums the two documents'
    gradients.  Thresholds are set from the pair's actual embedding
    distance (tau1 = d/2, tau2 = 2d) so both labels land deep in the
    curved region of the loss, far from the kinks finite differences must
    avoid.  A scale other than 1 checks that level 2 is walked back from
    s * dL/dx.
    """
    rng = make_rng(seed)
    params = EncoderParams(
        level1=LstmParams.init_uniform(d_w, d_s, -0.5, 0.5, rng),
        level2=LstmParams.init_uniform(d_s, d_d, -0.5, 0.5, rng),
        scale=np.array([scale]),
    )
    docs = [_random_document(rng, d_w, 2, 2, 2, 2) for _ in range(2)]

    (x1, x2), tape = encode_documents(params, docs, record=True)
    d = distance(x1, x2)
    assert d > 1e-8, "degenerate fixture: identical embeddings"
    thresholds = Thresholds(0.5 * d, 2.0 * d)

    def loss() -> float:
        a, b = encode_documents(params, docs, record=True)[0]
        return contrastive_loss(a, b, label_value, thresholds)

    upstream = np.stack(contrastive_loss_grad(x1, x2, label_value, thresholds))
    analytic_arrays = document_gradients(params, tape, upstream).arrays()

    failures: list[GradCheckFailure] = []
    checked = 0
    for name, target in params.arrays().items():
        numeric = numeric_gradient(loss, target)
        failures.extend(compare_grads(name, analytic_arrays[name], numeric))
        checked += numeric.size
    return GradCheckReport(
        label=label or f"pipeline l={label_value} seed={seed}",
        checked=checked,
        failures=failures,
    )


def run_suite(n_lstm_configs: int = 20, seed: int = 0) -> list[GradCheckReport]:
    """The full verification suite: random small LSTM configurations,
    every other one a run of three rows, plus the two-label encoder+loss
    pipeline checks."""
    rng = make_rng(seed)
    reports: list[GradCheckReport] = []
    for k in range(n_lstm_configs):
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 5))
        if k % 2:
            # three rows in increasing length: the run steps them reversed
            lengths = np.sort(rng.choice(5, 3, replace=False) + 1)
            steps = tuple(int(n) for n in lengths)
        else:
            steps = int(rng.integers(1, 6))
        config_seed = int(rng.integers(0, 2**31))
        reports.append(check_lstm_config(d_in, d_out, steps, config_seed))
    reports.append(check_pipeline_config(seed=seed + 1, label_value=1))
    reports.append(check_pipeline_config(seed=seed + 2, label_value=0))
    return reports
