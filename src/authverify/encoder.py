"""Two-level document encoder.

Level 1 maps each sentence's word vectors to a sentence embedding (the
word LSTM's final hidden state); level 2 runs over the sentence
embeddings and its final hidden state is the document embedding.  Both
levels start from zero states.

Every encoding takes the same path: the real word vectors of a list of
documents are gathered into one array, level 1 is one `lstm_run` with a
row per sentence of every document, and level 2 is one `lstm_run` with a
row per document.  Each row's matrix-vector products are separate gemv
calls, so every document gets the bits it would get encoded alone.
`encode_document_training` encodes one document and keeps the tapes
`encoder_backward` walks back through; `embed_documents` encodes a whole
list without tapes, and every embedding that needs no gradient goes
through it, `encode_document` included.  Variational dropout masks, when
given, multiply the input and recurrent activations at every step of a
sequence; one level-1 mask pair is shared by all sentences of a
document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lstm import (
    LstmParams,
    LstmTape,
    lstm_backward_dz,
    lstm_run,
    lstm_run_backward,
    param_gradients,
)
from .numeric import ShapeError
from .preprocess import EncodedDocument

__all__ = [
    "EncoderParams",
    "DropoutMasks",
    "DocumentTape",
    "init_encoder_params",
    "sample_dropout_masks",
    "embed_documents",
    "encode_document",
    "encode_document_training",
    "encoder_backward",
]


@dataclass
class EncoderParams:
    """Parameters of both hierarchy levels.

    level1: words -> sentence cell (d_in = word dim, d_out = sentence dim).
    level2: sentences -> document cell (d_in = sentence dim, d_out = doc dim).
    """

    level1: LstmParams
    level2: LstmParams

    def __post_init__(self) -> None:
        if self.level2.d_in != self.level1.d_out:
            raise ShapeError(
                f"level2 input dim {self.level2.d_in} must equal "
                f"level1 output dim {self.level1.d_out}"
            )

    @property
    def d_w(self) -> int:
        return self.level1.d_in

    @property
    def d_s(self) -> int:
        return self.level1.d_out

    @property
    def d_d(self) -> int:
        return self.level2.d_out

    def arrays(self) -> dict[str, np.ndarray]:
        """Flat named view of all parameter arrays, in a fixed order."""
        out: dict[str, np.ndarray] = {}
        for level_name, level in (("level1", self.level1), ("level2", self.level2)):
            for key, a in level.arrays().items():
                out[f"{level_name}.{key}"] = a
        return out

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.level1.copy(), self.level2.copy())

    @classmethod
    def zeros(cls, d_w: int, d_s: int, d_d: int) -> "EncoderParams":
        return cls(level1=LstmParams.zeros(d_w, d_s), level2=LstmParams.zeros(d_s, d_d))

    def add_(self, other: "EncoderParams") -> None:
        """In-place element-wise accumulation (gradient summing)."""
        self.level1.w += other.level1.w
        self.level1.u += other.level1.u
        self.level1.b += other.level1.b
        self.level2.w += other.level2.w
        self.level2.u += other.level2.u
        self.level2.b += other.level2.b


def init_encoder_params(
    d_w: int = 300,
    d_s: int = 150,
    d_d: int = 75,
    lo: float = -0.05,
    hi: float = 0.05,
    rng: np.random.Generator | None = None,
) -> EncoderParams:
    """Uniform [lo, hi) initialization of every matrix and bias.

    Default dims halve per level from a 300-dimensional word embedding;
    draw order is level1 (w, u, b) then level2 (w, u, b).
    """
    if rng is None:
        raise ValueError("init_encoder_params requires an explicit rng")
    return EncoderParams(
        level1=LstmParams.init_uniform(d_w, d_s, lo, hi, rng),
        level2=LstmParams.init_uniform(d_s, d_d, lo, hi, rng),
    )


@dataclass
class DropoutMasks:
    """Inverted-dropout masks, sampled once per document and reused at
    every time step (the variational property).

    Entries are 0 or 1/(1-rate).  input1/recurrent1 apply to the level-1
    cell, input2/recurrent2 to the level-2 cell.
    """

    input1: np.ndarray
    recurrent1: np.ndarray
    input2: np.ndarray
    recurrent2: np.ndarray


def sample_dropout_masks(
    dims: tuple[int, int, int],
    rate: float,
    rng: np.random.Generator,
) -> DropoutMasks:
    """Bernoulli(1-rate) masks scaled by 1/(1-rate) for dims (d_w, d_s, d_d).

    rate = 0 yields all-ones masks.  Draw order: input1, recurrent1,
    input2, recurrent2.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    d_w, d_s, d_d = dims
    keep = 1.0 - rate

    def draw(dim: int) -> np.ndarray:
        return (rng.random(dim) >= rate).astype(np.float64) / keep

    return DropoutMasks(
        input1=draw(d_w),
        recurrent1=draw(d_s),
        input2=draw(d_s),
        recurrent2=draw(d_d),
    )


@dataclass
class DocumentTape:
    """Forward caches of a whole document encoding, for encoder_backward."""

    level1_tape: LstmTape = field(repr=False)  # one row per sentence
    level2_tape: LstmTape = field(repr=False)  # one row over the sentence embeddings


def _encode(
    params: EncoderParams,
    docs: list[EncodedDocument],
    masks: list[DropoutMasks] | None,
    record: bool,
) -> tuple[np.ndarray, DocumentTape | None]:
    """Embeddings (len(docs), d_d) of documents in two runs, with both
    runs' tapes if `record`.

    Level 1's input is the real word vectors gathered into one
    (tokens, d_w) array; `masks`, one DropoutMasks per document, become
    per-row masks of both runs.
    """
    counts = np.array([doc.num_sentences for doc in docs])
    lengths = np.concatenate([doc.sent_lengths for doc in docs])
    words = np.empty((lengths.sum(), params.d_w))
    start = 0
    for doc in docs:
        real = np.arange(doc.words.shape[1]) < doc.sent_lengths[:, None]
        stop = start + doc.token_count
        words[start:stop] = doc.words[: doc.num_sentences][real]
        start = stop
    if masks is None:
        level1_masks = level2_masks = (None, None)
    else:
        level1_masks = (
            np.repeat(np.stack([m.input1 for m in masks]), counts, axis=0),
            np.repeat(np.stack([m.recurrent1 for m in masks]), counts, axis=0),
        )
        level2_masks = (
            np.stack([m.input2 for m in masks]),
            np.stack([m.recurrent2 for m in masks]),
        )
    # the sentence embeddings, document after document, are level 2's steps
    sentences, level1_tape = lstm_run(
        params.level1, words, lengths, None, *level1_masks, record=record
    )
    final, level2_tape = lstm_run(
        params.level2, sentences.h, counts, None, *level2_masks, record=record
    )
    return final.h, DocumentTape(level1_tape, level2_tape) if record else None


def encode_document_training(
    params: EncoderParams,
    doc: EncodedDocument,
    masks: DropoutMasks | None = None,
) -> tuple[np.ndarray, DocumentTape]:
    """Document embedding plus the tape bundle needed for the backward pass."""
    x, tape = _encode(params, [doc], None if masks is None else [masks], record=True)
    return x[0], tape


def embed_documents(
    params: EncoderParams,
    docs: list[EncodedDocument],
    masks: list[DropoutMasks] | None = None,
) -> np.ndarray:
    """Embeddings (len(docs), d_d) of documents, in order and without a
    tape; row j equals `encode_document_training(params, docs[j],
    masks[j])[0]` bit for bit."""
    if not docs:
        return np.empty((0, params.d_d))
    return _encode(params, docs, masks, record=False)[0]


def encode_document(
    params: EncoderParams,
    doc: EncodedDocument,
    masks: DropoutMasks | None = None,
) -> np.ndarray:
    """Document embedding by `embed_documents`; without masks this is
    deterministic inference."""
    return embed_documents(params, [doc], None if masks is None else [masks])[0]


def encoder_backward(
    params: EncoderParams,
    tape: DocumentTape,
    d_xd: np.ndarray,
) -> EncoderParams:
    """Exact parameter gradients of a scalar loss given dL/d(document embedding).

    Level-2 input gradients become the upstream hidden-state gradients of
    the sentence rows of level 1, which walks back through every sentence
    at once; word-vector gradients are never formed because the
    embeddings are pretrained, not trained here.  A tape recorded with
    other dimensions raises ShapeError from `lstm_backward_dz`.
    """
    zero_d = np.zeros((1, params.d_d), dtype=params.level1.w.dtype)
    grads2, d_sent, _, _ = lstm_run_backward(
        params.level2, tape.level2_tape, d_xd[None], zero_d
    )
    dz, _, _ = lstm_backward_dz(
        params.level1, tape.level1_tape, d_sent, np.zeros_like(d_sent)
    )
    return EncoderParams(level1=param_gradients(dz, tape.level1_tape), level2=grads2)
