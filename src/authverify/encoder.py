"""Two-level document encoder.

Level 1 maps each sentence's word vectors to a sentence embedding (the
word LSTM's final hidden state); level 2 runs over the sentence
embeddings, and its final hidden state h_T, times a learned scale s, is
the document embedding.  h_T lies in (-1, 1)^d_d; the scale lets the
loss's distances reach past that box.  Both levels start from zero
states.

Every encoding takes the same path, `encode_documents`: level 1 is one
`lstm_run` with a row per sentence of every document, and level 2 is one
`lstm_run` with a row per document.  Level 1's input rows are the
distinct (document, token id) pairs of the call, each word vector
gathered once under its document's input mask, so its U x is computed
once however often the word occurs.  Training encodes a batch with
tapes, and `document_gradients` walks each level back once for all of
it and returns the gradient summed over its documents; one document is
a batch of one.  Embeddings that need no gradient go through
`embed_documents`.  Every run takes GEMMs, so a document's embedding and
its share of a gradient can move in their last bits with the other
documents of the call, never between two calls on the same documents.
Variational dropout masks, when given, multiply the input and recurrent
activations at every step of a sequence, a row per document: the encoder
masks each level's input rows, `lstm_run` the recurrent state.  One
level-1 mask pair is shared by all sentences of a document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lstm import (
    LstmParams,
    LstmTape,
    input_gradients,
    lstm_backward_dz,
    lstm_run,
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
    "encode_documents",
    "embed_documents",
    "encode_document",
    "document_gradients",
]


@dataclass
class EncoderParams:
    """Parameters of both hierarchy levels and the output scale.

    level1: words -> sentence cell (d_in = word dim, d_out = sentence dim).
    level2: sentences -> document cell (d_in = sentence dim, d_out = doc dim).
    scale: (1,), s of the document embedding s * h_T; 1.0 unless given.
    """

    level1: LstmParams
    level2: LstmParams
    scale: np.ndarray = field(default_factory=lambda: np.ones(1))

    def __post_init__(self) -> None:
        if self.level2.d_in != self.level1.d_out:
            raise ShapeError(
                f"level2 input dim {self.level2.d_in} must equal "
                f"level1 output dim {self.level1.d_out}"
            )
        if self.scale.shape != (1,):
            raise ShapeError(f"scale must be (1,), got {self.scale.shape}")

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
        """Flat named view of all parameter arrays, in a fixed order, the
        scale last."""
        out: dict[str, np.ndarray] = {}
        for level_name, level in (("level1", self.level1), ("level2", self.level2)):
            for key, a in level.arrays().items():
                out[f"{level_name}.{key}"] = a
        out["scale"] = self.scale
        return out

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.level1.copy(), self.level2.copy(), self.scale.copy())

    @classmethod
    def zeros(cls, d_w: int, d_s: int, d_d: int) -> "EncoderParams":
        return cls(
            LstmParams.zeros(d_w, d_s), LstmParams.zeros(d_s, d_d), np.zeros(1)
        )

    def add_(self, other: "EncoderParams") -> None:
        """In-place element-wise accumulation (gradient summing)."""
        theirs = other.arrays()
        for key, a in self.arrays().items():
            a += theirs[key]


def init_encoder_params(
    d_w: int = 300,
    d_s: int = 150,
    d_d: int = 75,
    lo: float = -0.05,
    hi: float = 0.05,
    rng: np.random.Generator | None = None,
) -> EncoderParams:
    """Uniform [lo, hi) initialization of every matrix and bias, and the
    scale at 1.0, which draws nothing.

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
    """Inverted-dropout masks of n documents, row j sampled for document
    j and reused at every time step (the variational property).

    Each field is (n, d), entries 0 or 1/(1-rate).  input1/recurrent1
    apply to the level-1 cell, input2/recurrent2 to the level-2 cell.
    """

    input1: np.ndarray
    recurrent1: np.ndarray
    input2: np.ndarray
    recurrent2: np.ndarray


def sample_dropout_masks(
    dims: tuple[int, int, int],
    rate: float,
    rng: np.random.Generator,
    n: int = 1,
) -> DropoutMasks:
    """Bernoulli(1-rate) masks scaled by 1/(1-rate) for dims (d_w, d_s, d_d),
    of n documents.

    rate = 0 yields all-ones masks.  One draw of n rows: a row holds
    document j's input1, recurrent1, input2 and recurrent2, in that
    order, and the generator fills the rows in order, so the masks and
    the generator's next state are those of n one-document draws.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    d_w, d_s, d_d = dims
    drawn = (rng.random((n, d_w + 2 * d_s + d_d)) >= rate).astype(np.float64)
    drawn /= 1.0 - rate
    return DropoutMasks(*np.split(drawn, np.cumsum([d_w, d_s, d_s]), axis=1))


@dataclass
class DocumentTape:
    """Forward caches of an encoding of documents, for document_gradients:
    both runs' tapes, level 2's input mask and its final hidden states, a
    row per document."""

    level1_tape: LstmTape = field(repr=False)  # one row per sentence
    level2_tape: LstmTape = field(repr=False)  # one row per document
    input2: np.ndarray | None = field(repr=False)  # (n, d_s), or None
    final: np.ndarray = field(repr=False)  # (n, d_d): h_T, before the scale


def encode_documents(
    params: EncoderParams,
    docs: list[EncodedDocument],
    masks: DropoutMasks | None = None,
    record: bool = False,
) -> tuple[np.ndarray, DocumentTape | None]:
    """Embeddings s * h_T, (len(docs), d_d), of documents in two runs,
    with both runs' tapes if `record`.

    Level 1's input rows are the word vectors of each document's distinct
    token ids, from its own matrix and under its own input mask, keyed by
    (document, id) because documents differ in both; every token reads
    its key's row; level 2's are the sentence embeddings, each under its
    document's input mask.  The recurrent masks of `masks`, row j for
    document j, become per-row masks of both runs.
    """
    counts = np.array([doc.num_sentences for doc in docs])
    lengths = np.concatenate([doc.sent_lengths for doc in docs])
    span = max(len(doc.matrix) for doc in docs)
    owner = np.repeat(np.arange(len(docs)), [doc.token_count for doc in docs])
    keys, x_index = np.unique(
        owner * span + np.concatenate([doc.ids for doc in docs]), return_inverse=True
    )
    distinct = np.bincount(keys // span, minlength=len(docs))  # rows of each document
    ids = np.split(keys % span, np.cumsum(distinct)[:-1])
    words = np.concatenate([doc.matrix[doc_ids] for doc, doc_ids in zip(docs, ids)])
    if masks is None:
        recurrent1 = input2 = recurrent2 = None
    else:
        words *= np.repeat(masks.input1, distinct, axis=0)
        recurrent1 = np.repeat(masks.recurrent1, counts, axis=0)
        input2, recurrent2 = masks.input2, masks.recurrent2
    sentences, level1_tape = lstm_run(
        params.level1, words, lengths, rec_mask=recurrent1, record=record,
        x_index=x_index,
    )
    # the sentence embeddings, document after document, are level 2's steps
    steps = sentences.h
    if input2 is not None:
        steps = steps * np.repeat(input2, counts, axis=0)
    final, level2_tape = lstm_run(
        params.level2, steps, counts, rec_mask=recurrent2, record=record
    )
    tape = DocumentTape(level1_tape, level2_tape, input2, final.h) if record else None
    return final.h * params.scale, tape


def embed_documents(
    params: EncoderParams,
    docs: list[EncodedDocument],
    masks: DropoutMasks | None = None,
) -> np.ndarray:
    """Embeddings (len(docs), d_d) of documents, in order and without a
    tape; row j equals the embedding of docs[j] alone under row j of each
    of `masks`, up to rounding that depends on the other documents."""
    if not docs:
        return np.empty((0, params.d_d))
    return encode_documents(params, docs, masks)[0]


def encode_document(
    params: EncoderParams,
    doc: EncodedDocument,
    masks: DropoutMasks | None = None,
) -> np.ndarray:
    """Document embedding by `embed_documents`, `masks` holding one row;
    without masks this is deterministic inference."""
    return embed_documents(params, [doc], masks)[0]


def document_gradients(
    params: EncoderParams, tape: DocumentTape, d_x: np.ndarray
) -> tuple[EncoderParams]:
    """Exact parameter gradients of a scalar loss given dL/d(embedding)
    of each encoded document, (n, d_d), summed over the documents: a
    one-item tuple `(grads,)`.

    The scale's gradient is sum_j d_x[j] . h_T[j], and level 2 is walked
    back from s * d_x.  Each level is walked back once for all documents,
    spending the tapes, and takes one product per parameter array; level
    2's input gradients, times its input mask, are the upstream
    hidden-state gradients of level 1's sentence rows (word vectors are
    pretrained, so get none).  Other dimensions raise ShapeError.
    """
    level1, level2 = tape.level1_tape, tape.level2_tape
    d_h = d_x * params.scale
    lstm_backward_dz(params.level2, level2, d_h, np.zeros_like(d_h))
    d_sent = input_gradients(params.level2, level2)
    if tape.input2 is not None:
        d_sent *= np.repeat(tape.input2, level2.lengths, axis=0)
    lstm_backward_dz(params.level1, level1, d_sent, np.zeros_like(d_sent))
    scale = np.array([np.vdot(d_x, tape.final)])
    return (EncoderParams(param_gradients(level1), param_gradients(level2), scale),)
