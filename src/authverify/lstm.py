"""A single LSTM cell built from scratch: exact forward dynamics, runs of
many sequences at once over their real steps only, and an analytic
backward pass (backpropagation through time).

Gate layout
-----------
The four gates f, i, o, c share stacked parameter storage: `w` holds the
four recurrent matrices stacked row-wise, `u` the four input matrices and
`b` the four bias vectors, always in GATE_ORDER (forget, input, output,
candidate).  Gate k of a cell with output width d owns rows
k*d .. (k+1)*d of each array; that is the only parameter layout.

Rows run together
-----------------
There is one forward run, `lstm_run`.  It steps R sequences (rows) of
different lengths together; one sequence is a run of one row.  Its input
holds only the real steps, packed row after row, so padding never
reaches the cell, or distinct input vectors that the steps index; an
input dropout mask is the caller's product, and a run takes only the
recurrent mask, a row per sequence.  It keeps a tape only when asked:
training asks, for every document of a batch at once; embeddings that
need no gradient do not.  U x is taken once for every input vector
before the first step, W h for the running rows at each step, each by
one GEMM (`_gemm`).  `lstm_backward_dz` walks the rows back together,
one GEMM per step, and leaves each step's dz in the tape, from which
`param_gradients` and `input_gradients` take one product each over the
whole run; `param_gradients` sums dz per input row in the tape's `h_in`,
which it no longer needs, so the backward pass adds no tape-sized
array.  The same run on the same host gives the same bytes, but a row's
last bits depend on the other rows of its run, since a GEMM's rounding
can depend on its shape, and on the BLAS library, its thread count and
the CPU kernels it picks.

Live prefixes
-------------
The rows are stepped in order of non-increasing length (a stable sort),
so the rows still running at step t are a prefix of that order, and step
t computes that prefix alone, forward and backward.  A row whose length
is reached is never touched again: its state stays as its last real step
left it, and its upstream gradients wait unchanged until the backward
walk reaches that step.  Nothing is computed for a step past a row's
length, so there is nothing to copy or discard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import ShapeError, uniform_init

__all__ = [
    "GATE_ORDER",
    "LstmParams",
    "LstmState",
    "LstmTape",
    "sigmoid",
    "lstm_run",
    "lstm_run_backward",
    "lstm_backward_dz",
    "param_gradients",
    "input_gradients",
]

GATE_ORDER = ("f", "i", "o", "c")


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, exp taken of -|z| only:
    1 / (1 + t) where z >= 0 and t / (1 + t) elsewhere, t = exp(-|z|).

    The numerator is max(t, z >= 0), which is exact: where z >= 0, t <= 1
    and the max is 1.0; elsewhere it is t, as t >= 0; a NaN stays NaN.
    """
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.maximum(t, z >= 0.0, out=t)
    return np.divide(t, d, out=out)


@dataclass
class LstmParams:
    """Parameters of one LSTM cell.

    w: (4*d_out, d_out) recurrent weights, gate blocks in GATE_ORDER.
    u: (4*d_out, d_in) input weights.
    b: (4*d_out,) biases.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.w.ndim != 2 or self.u.ndim != 2 or self.b.ndim != 1:
            raise ShapeError(
                f"LstmParams expects 2-D w, 2-D u, 1-D b, got "
                f"{self.w.shape}, {self.u.shape}, {self.b.shape}"
            )
        d_out = self.w.shape[1]
        if self.w.shape[0] != 4 * d_out:
            raise ShapeError(f"w must be (4*d_out, d_out), got {self.w.shape}")
        if self.u.shape[0] != 4 * d_out:
            raise ShapeError(
                f"u rows {self.u.shape[0]} must equal 4*d_out = {4 * d_out}"
            )
        if self.b.shape[0] != 4 * d_out:
            raise ShapeError(
                f"b length {self.b.shape[0]} must equal 4*d_out = {4 * d_out}"
            )

    @property
    def d_out(self) -> int:
        return self.w.shape[1]

    @property
    def d_in(self) -> int:
        return self.u.shape[1]

    @classmethod
    def zeros(cls, d_in: int, d_out: int) -> "LstmParams":
        return cls(
            w=np.zeros((4 * d_out, d_out)),
            u=np.zeros((4 * d_out, d_in)),
            b=np.zeros(4 * d_out),
        )

    @classmethod
    def init_uniform(
        cls,
        d_in: int,
        d_out: int,
        lo: float,
        hi: float,
        rng: np.random.Generator,
    ) -> "LstmParams":
        """All entries drawn uniformly from [lo, hi); draw order w, u, b."""
        return cls(
            w=uniform_init((4 * d_out, d_out), lo, hi, rng),
            u=uniform_init((4 * d_out, d_in), lo, hi, rng),
            b=uniform_init(4 * d_out, lo, hi, rng),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Canonical storage in a fixed order, for optimizers and clipping."""
        return {"w": self.w, "u": self.u, "b": self.b}

    def copy(self) -> "LstmParams":
        return LstmParams(self.w.copy(), self.u.copy(), self.b.copy())


@dataclass
class LstmState:
    """Hidden states h and memory states c of R rows, each (R, d_out)."""

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        if self.h.shape != self.c.shape or self.h.ndim != 2:
            raise ShapeError(
                f"state h {self.h.shape} and c {self.c.shape} must be equal 2-D"
            )

    @classmethod
    def zeros(cls, rows: int, d_out: int, dtype=np.float64) -> "LstmState":
        return cls(
            h=np.zeros((rows, d_out), dtype=dtype),
            c=np.zeros((rows, d_out), dtype=dtype),
        )


@dataclass
class LstmTape:
    """Forward-pass record of a run, for the backward pass.

    The tape's step arrays are packed step after step: step t's block
    holds the live[t] rows still running at step t, in stepping order
    (`order`), so a step's block is one contiguous slice and the arrays
    have one entry per real step.  `index` gives, for every real step in
    the input's row-after-row order, its place in the packed arrays, and
    `x_rows`, for every packed step, the row of `x_in`, the input rows,
    that it read.
    tanh of the memory state is recomputed in the backward pass, so a
    step stores 6 * d_out floats per row.

    A tape is used up in two stages, and holds no copy of itself: the
    backward walk writes dz over `gates` (`spent`), and `param_gradients`
    then sums dz per input row in the storage of `h_in` (`consumed`).
    Reading `h_in` after that, or walking or summing a second time,
    raises ValueError; `input_gradients` reads only dz, so may follow.
    """

    lengths: np.ndarray  # (R,) real steps of each row
    order: np.ndarray  # (R,) the rows in stepping order
    live: np.ndarray  # (T,) rows still running at each step
    index: np.ndarray = field(repr=False)  # (tokens,) packed place of each input step
    x_in: np.ndarray = field(repr=False)  # (n, d_in): the rows of xs
    x_rows: np.ndarray = field(repr=False)  # (tokens,) x_in row of each packed step
    _h_in: np.ndarray = field(repr=False)  # (tokens, d_out), masked, packed
    gates: np.ndarray = field(repr=False)  # (tokens, 4*d_out): f, i, o, c~, packed
    c: np.ndarray = field(repr=False)  # (tokens, d_out): c after each step, packed
    c0: np.ndarray = field(repr=False)  # (R, d_out): the initial c, stepping order
    rec_mask: np.ndarray | None = None  # (R, d_out), stepping order
    spent: bool = False  # walked back: `gates` holds dz
    consumed: bool = False  # parameter gradients taken: `h_in` holds scratch

    @property
    def h_in(self) -> np.ndarray:
        if self.consumed:
            raise ValueError(
                "param_gradients used this tape's h_in as scratch: record the run again"
            )
        return self._h_in


def _gemm(a: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None):
    """`rows @ a.T`, written to `out` if given: one GEMM over the rows of
    `rows` (n, d), whose last bits may depend on n."""
    return np.matmul(rows, a.T, out=out)


def lstm_run(
    params: LstmParams,
    xs: np.ndarray,
    lengths: np.ndarray | list[int],
    init: LstmState | None = None,
    rec_mask: np.ndarray | None = None,
    record: bool = False,
    x_index: np.ndarray | None = None,
) -> tuple[LstmState, LstmTape | None]:
    """Apply the cell to R sequences at once, row r for lengths[r] steps.

    Each step computes, from the input x and the masked previous hidden
    state h,
    f = sigmoid(W_f h + U_f x + b_f), i and o analogous,
    c~ = tanh(W_c h + U_c x + b_c), c' = f*c + i*c~, h' = o*tanh(c').
    `rec_mask`, (R, d_out) with one row per sequence, multiplies the
    recurrent hidden state entering the gate preactivations (variational
    dropout); an input mask is the caller's product, taken before the run.

    `xs` holds only the real steps, row after row: (sum(lengths), d_in).
    Given `x_index`, (sum(lengths),), real step j reads row x_index[j] of
    `xs` (n, d_in) instead.  The rows start from `init` (zero states if
    None) and are stepped in order of non-increasing length, step t
    computing only the rows still running (see the module docstring).
    Returns the state after each row's last step, each (R, d_out) in the
    caller's row order, and the tape if `record`, else None.  Each step
    adds W h, U x and b in that order; U x is one GEMM (`_gemm`) over the
    rows of `xs` before the first step, and W h one GEMM per step.
    """
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or len(lengths) == 0 or lengths.min() < 1:
        raise ValueError("a run requires at least one row, each of length >= 1")
    rows = len(lengths)
    if rec_mask is not None and rec_mask.shape != (rows, params.d_out):
        raise ShapeError(
            f"rec_mask shape {rec_mask.shape} must be ({rows}, {params.d_out})"
        )
    xs = np.asarray(xs)
    tokens = int(lengths.sum())
    indexed = x_index is not None
    if xs.shape != (len(xs) if indexed else tokens, params.d_in) or (
        indexed and x_index.shape != (tokens,)
    ):
        raise ShapeError(
            f"xs shape {xs.shape} must be (sum of lengths, d_in) = ({tokens}, "
            f"{params.d_in}), or (n, d_in) with a ({tokens},) x_index"
        )
    d = params.d_out
    dtype = params.w.dtype
    if init is not None and init.h.shape != (rows, d):
        raise ShapeError(
            f"init state shape {init.h.shape} does not match ({rows}, {d})"
        )
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())[:, None]
    running = steps < lengths[order]  # (T, R): row t marks a prefix of `order`
    live = np.count_nonzero(running, axis=1)
    first = np.cumsum(live) - live  # where step t's block starts in the packed steps
    # the input step of every packed step, and the packed place of every input step
    source = ((np.cumsum(lengths) - lengths)[order] + steps)[running]
    index = np.empty_like(source)
    index[source] = np.arange(tokens)
    if init is None:
        h, c = np.zeros((rows, d), dtype=dtype), np.zeros((rows, d), dtype=dtype)
    else:
        h, c = init.h[order], init.c[order]
    rec_m = None if rec_mask is None else rec_mask[order]
    ux = _gemm(params.u, xs)  # U x of every row of xs, before the first step
    x_rows = x_index[source] if indexed else source  # the xs row of each packed step
    # Without a tape the step arrays are one step's scratch: every step
    # writes from row 0, where the rows it computes sit.
    kept = tokens if record else rows
    at = first if record else np.zeros_like(first)
    h_in = np.empty((kept, d), dtype=dtype)
    gates = np.empty((kept, 4 * d), dtype=dtype)
    cs = np.empty((kept, d), dtype=dtype)
    tape = LstmTape(
        lengths, order, live, index, xs, x_rows, h_in, gates, cs, c, rec_m
    ) if record else None
    for k, at_t, first_t in zip(live.tolist(), at.tolist(), first.tolist()):
        block = slice(at_t, at_t + k)
        h_t = h[:k]
        if rec_m is not None:
            h_t = np.multiply(h_t, rec_m[:k], out=h_in[block])
        elif record:
            h_t = h_in[block]
            h_t[...] = h[:k]
        g = _gemm(params.w, h_t, out=gates[block])
        g += ux[x_rows[first_t : first_t + k]]
        g += params.b
        # the gates overwrite their preactivations
        sigmoid(g[:, : 3 * d], out=g[:, : 3 * d])
        np.tanh(g[:, 3 * d :], out=g[:, 3 * d :])
        c_t = cs[block]
        np.multiply(g[:, :d], c[:k], out=c_t)
        c_t += g[:, d : 2 * d] * g[:, 3 * d :]
        c = c_t
        h_t = np.tanh(c_t, out=h[:k])
        h_t *= g[:, 2 * d : 3 * d]
    state = LstmState(np.empty_like(h), np.empty_like(h))
    state.h[order] = h
    # each row's last c sits in the block of its last step
    state.c[order] = cs[at[lengths[order] - 1] + np.arange(rows)]
    return state, tape


def lstm_run_backward(
    params: LstmParams,
    tape: LstmTape,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
) -> tuple[LstmParams, np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients through a run.

    Given dL/dh_final and dL/dc_final, each (R, d_out), returns
    (parameter gradients as an LstmParams-shaped container, input
    gradients of shape (sum(lengths), d_in), row after row like the run's
    input, dL/dh_0, dL/dc_0).  The tape is used up (see `LstmTape`).
    """
    dh, dc = lstm_backward_dz(params, tape, d_h_final, d_c_final)
    return param_gradients(tape), input_gradients(params, tape), dh, dc


def _walked(tape: LstmTape) -> LstmTape:
    if not tape.spent:
        raise ValueError("a tape holds dz only once lstm_backward_dz has walked it")
    return tape


def param_gradients(tape: LstmTape) -> LstmParams:
    """Parameter gradients of a walked run, summed over all its rows:
    dW and db by one product and one sum over the packed steps, and dU by
    one product over the input rows that the steps read, each row's dz
    summed first, so an input row read by many steps is multiplied once.

    Once dW is taken, `h_in` is scratch: each gate block of dz is
    gathered there in input-row order and summed per row, so no
    tape-sized array is made.  The tape is then consumed (see `LstmTape`).
    """
    h_in = _walked(tape).h_in
    tape.consumed = True
    gates = tape.gates
    by_row = np.argsort(tape.x_rows, kind="stable")
    x_rows = tape.x_rows[by_row]
    first = np.flatnonzero(np.diff(x_rows, prepend=-1))  # each row's first step
    w = gates.T @ h_in
    d = h_in.shape[1]
    dz_rows = np.empty((len(first), 4 * d), dtype=gates.dtype)
    blocks = gates.reshape(-1, d)  # row 4 j + k: gate block k of packed step j
    for k in range(4):
        # every index is a row of `blocks`, so "clip" clips nothing; unlike
        # "raise", it lets take write straight into `out`, and a contiguous
        # source is read without a copy
        np.take(blocks, 4 * by_row + k, axis=0, out=h_in, mode="clip")
        np.add.reduceat(h_in, first, out=dz_rows[:, k * d : (k + 1) * d])
    return LstmParams(
        w=w,
        u=dz_rows.T @ tape.x_in[x_rows[first]],
        b=gates.sum(axis=0),
    )


def input_gradients(params: LstmParams, tape: LstmTape) -> np.ndarray:
    """Input gradients of every step of a walked run, row after row, by
    one product over the packed steps.  An input mask the caller took is
    the caller's to take of them too."""
    return (_walked(tape).gates @ params.u)[tape.index]


def lstm_backward_dz(
    params: LstmParams,
    tape: LstmTape,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagation through the real steps of a run, all rows together.

    Returns dL/dh_0 and dL/dc_0, each (R, d_out), and writes each step's
    gate preactivation gradients dL/dz (GATE_ORDER) over its gates, which
    no other step reads; the tape is then spent, and a second walk raises
    ValueError.  The walk goes back over the forward's live prefixes, so a
    row's upstream gradients wait unchanged until its last step is
    reached; each step's local derivatives are taken at the step, and
    dL/dh goes back through W^T by one GEMM over the step's rows.
    """
    if tape.x_in.shape[1] != params.d_in or tape.c0.shape[1] != params.d_out:
        raise ShapeError(
            f"tape dims ({tape.x_in.shape[1]}, {tape.c0.shape[1]}) do not match "
            f"params ({params.d_in}, {params.d_out})"
        )
    shape = (len(tape.lengths), params.d_out)
    if d_h_final.shape != shape or d_c_final.shape != shape:
        raise ShapeError(f"upstream gradient shapes must be {shape}")
    if tape.spent:
        raise ValueError("this tape was walked back already: record the run again")
    tape.spent = True

    d = params.d_out
    order, live = tape.order, tape.live.tolist()
    ends = np.cumsum(live).tolist()
    dh = np.asarray(d_h_final, dtype=params.w.dtype)[order]
    dc = np.asarray(d_c_final, dtype=params.w.dtype)[order]
    rec_m = tape.rec_mask

    for t in range(len(live) - 1, -1, -1):
        k, end = live[t], ends[t]
        g = tape.gates[end - k : end]
        f, i, o, c_tilde = (g[:, j * d : (j + 1) * d] for j in range(4))
        # c entering the step: c_0, or the first k rows of the step before's
        c_prev = tape.c0 if t == 0 else tape.c[end - k - live[t - 1] :][:k]
        tanh_c = np.tanh(tape.c[end - k : end])
        dc_t = dh[:k] * (o * (1.0 - tanh_c * tanh_c))
        dc_t += dc[:k]
        # each gate's dz is written once the step has read that gate
        np.multiply(dh[:k], tanh_c * o * (1.0 - o), out=o)
        d_zc = i * (1.0 - c_tilde * c_tilde)
        np.multiply(dc_t, c_tilde * i * (1.0 - i), out=i)
        np.multiply(dc_t, d_zc, out=c_tilde)
        np.multiply(dc_t, f, out=dc[:k])
        np.multiply(dc_t, c_prev * f * (1.0 - f), out=f)
        np.matmul(g, params.w, out=dh[:k])
        if rec_m is not None:
            dh[:k] *= rec_m[:k]

    dh_0, dc_0 = np.empty_like(dh), np.empty_like(dc)
    dh_0[order], dc_0[order] = dh, dc
    return dh_0, dc_0
