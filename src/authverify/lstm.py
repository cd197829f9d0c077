"""A single LSTM cell built from scratch: exact forward dynamics, runs of
many sequences at once with a state-freezing padding rule, and an
analytic backward pass (backpropagation through time).

Gate layout
-----------
The four gates f, i, o, c share stacked parameter storage: `w` holds the
four recurrent matrices stacked row-wise, `u` the four input matrices and
`b` the four bias vectors, always in GATE_ORDER (forget, input, output,
candidate).  Gate k of a cell with output width d owns rows
k*d .. (k+1)*d of each array; that is the only parameter layout.

Rows run together
-----------------
There are two forward runs, and each steps R sequences (rows) of
different lengths together; one sequence is a run of one row.
`lstm_run` keeps a tape, the record `lstm_backward_dz` walks back
through, so training's per-pair pass uses it.  `lstm_run_final` keeps
no tape and returns only the final hidden states: it serves every
embedding that needs no gradient (in-batch negatives, evaluation,
inference).  Both compute the same numpy expressions in the same order,
and every matrix-vector product is its own gemv call, made for all rows
by one stacked matmul, so a row gets the bits it would get running
alone, in either run; a GEMM over the rows would sum in another order.
`lstm_backward_dz` walks the rows back together, one W^T gemv per row
and step.

State freezing
--------------
A row shorter than the run keeps hidden and memory state fixed once its
length is reached.  In `lstm_run` the frozen steps are exact copies made
by `np.where`, not multiplications by a mask, so the final state after
freezing is bit-identical to the state after the last real step;
gradients flow through the copies untouched, and gradients for padded
inputs are zero.  `lstm_run_final` sorts the rows by length and steps
only the prefix of rows still live, so a finished row is never touched.
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
    "lstm_run_final",
    "lstm_run_backward",
    "lstm_backward_dz",
    "param_gradients",
]

GATE_ORDER = ("f", "i", "o", "c")


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, exp taken of -|z| only:
    1 / (1 + t) where z >= 0 and t / (1 + t) elsewhere, t = exp(-|z|)."""
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.copyto(t, 1.0, where=z >= 0.0)
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

    R rows are stepped together for T steps, T being the longest row's
    length.  Row r's real steps are 0 .. lengths[r] - 1; its entries past
    them belong to frozen steps, which the backward pass skips.  `length`
    is the number of steps the inputs were padded to (>= T).  The inputs
    are held by reference and masked again in the backward pass, and tanh
    of the memory state is recomputed there, so a step stores 6 * d_out
    floats per row.
    """

    d_in: int
    d_out: int
    lengths: np.ndarray  # (R,) real steps of each row
    length: int
    xs: np.ndarray = field(repr=False)  # (R, T, d_in), unmasked
    h_in: np.ndarray = field(repr=False)  # (R, T, d_out), masked
    gates: np.ndarray = field(repr=False)  # (R, T, 4*d_out): f, i, o, c~
    c: np.ndarray = field(repr=False)  # (R, T + 1, d_out): c_0 .. c_T
    in_mask: np.ndarray | None = None  # (d_in,) or (R, d_in)
    rec_mask: np.ndarray | None = None  # (d_out,) or (R, d_out)

    @property
    def x_in(self) -> np.ndarray:
        return self.xs if self.in_mask is None else self.xs * _per_step(self.in_mask)

    @property
    def real(self) -> np.ndarray:
        """(R, T) booleans, True at each row's real steps."""
        return np.arange(self.xs.shape[1]) < self.lengths[:, None]


def _per_step(mask: np.ndarray) -> np.ndarray:
    """A (d,) mask as it is, an (R, d) mask as (R, 1, d): either scales
    every step of an (R, T, d) array."""
    return mask if mask.ndim == 1 else mask[:, None, :]


def _gemv(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`a @ r` for every vector r along the last axis of `rows`.

    The stacked matmul makes one gemv call per vector, so each result has
    the bits of `a @ r` computed alone.  A GEMM (`rows @ a.T`) would sum
    in another order and change the last bits.
    """
    return np.matmul(a, rows[..., None])[..., 0]


def _check_run(
    params: LstmParams,
    rows: int,
    lengths: np.ndarray | list[int],
    in_mask: np.ndarray | None,
    rec_mask: np.ndarray | None,
) -> np.ndarray:
    """The lengths of a run of `rows` rows as an array, once the lengths
    and masks have the shapes of such a run."""
    lengths = np.asarray(lengths)
    if lengths.shape != (rows,):
        raise ShapeError(f"lengths shape {lengths.shape} must be ({rows},)")
    if rows == 0 or lengths.min() < 1:
        raise ValueError("a run requires at least one row, each of length >= 1")
    for name, mask, dim in (
        ("in_mask", in_mask, params.d_in), ("rec_mask", rec_mask, params.d_out)
    ):
        if mask is not None and mask.shape not in ((dim,), (rows, dim)):
            raise ShapeError(
                f"{name} shape {mask.shape} must be ({dim},) or ({rows}, {dim})"
            )
    return lengths


def lstm_run(
    params: LstmParams,
    xs: np.ndarray,
    lengths: np.ndarray | list[int],
    init: LstmState | None = None,
    in_mask: np.ndarray | None = None,
    rec_mask: np.ndarray | None = None,
) -> tuple[LstmState, LstmTape]:
    """Apply the cell to R sequences at once, row r for lengths[r] steps.

    Each real step t computes, from the masked input x and the masked
    previous hidden state h,
    f = sigmoid(W_f h + U_f x + b_f), i and o analogous,
    c~ = tanh(W_c h + U_c x + b_c), c' = f*c + i*c~, h' = o*tanh(c').
    Optional masks, (d,) shared by every row or (R, d) one per row,
    multiply the input and the recurrent hidden state entering the gate
    preactivations (variational dropout).

    `xs` is (R, length, d_in) with length >= max(lengths); a row's inputs
    past its length are ignored.  The input projection U x of every step
    is taken before the recurrence.  All rows step together; a row past
    its length keeps h and c through `np.where` copies, so the returned
    state, each (R, d_out), is exactly the state after each row's last
    real step however far the rows are padded.  Every matrix-vector
    product is its own gemv call (`_gemv`), so a row gets the same bits
    whether it runs alone or beside others.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3 or xs.shape[2] != params.d_in:
        raise ShapeError(
            f"xs shape {xs.shape} does not match (rows, steps, d_in={params.d_in})"
        )
    rows = xs.shape[0]
    lengths = _check_run(params, rows, lengths, in_mask, rec_mask)
    shortest, steps = int(lengths.min()), int(lengths.max())
    if steps > xs.shape[1]:
        raise ValueError(f"row length {steps} exceeds the {xs.shape[1]} steps of xs")
    d = params.d_out
    dtype = params.w.dtype
    state = LstmState.zeros(rows, d, dtype=dtype) if init is None else init
    if state.h.shape != (rows, d):
        raise ShapeError(
            f"init state shape {state.h.shape} does not match ({rows}, {d})"
        )
    h_in = np.empty((rows, steps, d), dtype=dtype)
    gates = np.empty((rows, steps, 4 * d), dtype=dtype)
    cs = np.empty((rows, steps + 1, d), dtype=dtype)
    cs[:, 0] = state.c
    h = state.h
    length = xs.shape[1]
    xs = xs[:, :steps]
    # U x of every real step at once; padded steps are left at zero
    real = np.arange(steps) < lengths[:, None]
    x_in = xs if in_mask is None else xs * _per_step(in_mask)
    ux = np.zeros((rows, steps, 4 * d), dtype=dtype)
    ux[real] = _gemv(params.u, x_in[real])
    for t in range(steps):
        h_t = h_in[:, t]
        if rec_mask is None:
            h_t[...] = h
        else:
            np.multiply(h, rec_mask, out=h_t)
        z = _gemv(params.w, h_t)
        z += ux[:, t]
        z += params.b
        g = gates[:, t]
        sigmoid(z[:, : 3 * d], out=g[:, : 3 * d])
        np.tanh(z[:, 3 * d :], out=g[:, 3 * d :])
        c = cs[:, t + 1]
        np.multiply(g[:, :d], cs[:, t], out=c)
        c += g[:, d : 2 * d] * g[:, 3 * d :]
        h_new = np.tanh(c)
        h_new *= g[:, 2 * d : 3 * d]
        if t >= shortest:  # before that every row is live
            live = (t < lengths)[:, None]
            cs[:, t + 1] = np.where(live, cs[:, t + 1], cs[:, t])
            h_new = np.where(live, h_new, h)
        h = h_new
    state = LstmState(h, cs[:, steps].copy())
    tape = LstmTape(
        d_in=params.d_in,
        d_out=d,
        lengths=lengths,
        length=length,
        xs=xs,
        h_in=h_in,
        gates=gates,
        c=cs,
        in_mask=in_mask,
        rec_mask=rec_mask,
    )
    return state, tape


def lstm_run_final(
    params: LstmParams,
    xs: np.ndarray,
    lengths: np.ndarray | list[int],
    in_mask: np.ndarray | None = None,
    rec_mask: np.ndarray | None = None,
) -> np.ndarray:
    """The final hidden states (R, d_out) of `lstm_run` from zero states,
    bit for bit, without a tape.

    `xs` holds only the real steps, row after row: (sum(lengths), d_in),
    the rows of `lstm_run`'s input `xs[np.arange(T) < lengths[:, None]]`.
    Rows may come in any order; masks are those of `lstm_run`.  The rows
    are stepped in order of non-increasing length, so the rows still live
    at step t are a prefix of them, and step t computes that prefix alone:
    the same expressions as `lstm_run` in the same order, with one gemv
    per row for U x as well as for W h.  A row's state is left as it is
    once its length is reached, which needs no copy, and nothing of the
    shape (R, T, .) is allocated.
    """
    lengths = _check_run(params, len(lengths), lengths, in_mask, rec_mask)
    xs = np.asarray(xs)
    if xs.shape != (lengths.sum(), params.d_in):
        raise ShapeError(
            f"xs shape {xs.shape} must be (sum of lengths, d_in) = "
            f"({lengths.sum()}, {params.d_in})"
        )
    order = np.argsort(-lengths, kind="stable")
    # where each row's steps start in xs, in stepping order
    starts = (np.cumsum(lengths) - lengths)[order]
    # live[t]: rows still running at step t, a prefix of `order`
    live = np.count_nonzero(lengths > np.arange(lengths.max())[:, None], axis=1)
    # masks as (1, d) or sorted (R, d), so [:k] selects those of the live rows
    in_mask, rec_mask = (
        None if m is None else m[None] if m.ndim == 1 else m[order]
        for m in (in_mask, rec_mask)
    )
    d = params.d_out
    h = np.zeros((len(order), d), dtype=params.w.dtype)
    c = np.zeros_like(h)
    for t, k in enumerate(live):
        h_t = h[:k] if rec_mask is None else h[:k] * rec_mask[:k]
        x_t = xs[starts[:k] + t]
        if in_mask is not None:
            x_t *= in_mask[:k]
        z = _gemv(params.w, h_t)
        z += _gemv(params.u, x_t)
        z += params.b
        g = z  # the gates overwrite their preactivations
        sigmoid(z[:, : 3 * d], out=g[:, : 3 * d])
        np.tanh(z[:, 3 * d :], out=g[:, 3 * d :])
        c_t = c[:k]
        np.multiply(g[:, :d], c_t, out=c_t)
        c_t += g[:, d : 2 * d] * g[:, 3 * d :]
        h_t = np.tanh(c_t, out=h[:k])
        h_t *= g[:, 2 * d : 3 * d]
    out = np.empty_like(h)
    out[order] = h
    return out


def lstm_run_backward(
    params: LstmParams,
    tape: LstmTape,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
) -> tuple[LstmParams, np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients through a run.

    Given dL/dh_final and dL/dc_final, each (R, d_out), returns
    (parameter gradients as an LstmParams-shaped container, input
    gradients of shape (R, length, d_in) with zero rows at every step past
    a row's length, dL/dh_0, dL/dc_0).
    """
    dz_steps, dh, dc = lstm_backward_dz(params, tape, d_h_final, d_c_final)
    real = tape.real
    input_grads = np.zeros(
        (len(tape.lengths), tape.length, params.d_in), dtype=params.w.dtype
    )
    run_grads = input_grads[:, : real.shape[1]]
    run_grads[real] = dz_steps[real] @ params.u
    if tape.in_mask is not None:
        run_grads *= _per_step(tape.in_mask)
    return param_gradients(dz_steps, tape), input_grads, dh, dc


def param_gradients(dz_steps: np.ndarray, tape: LstmTape) -> LstmParams:
    """Parameter gradients from the preactivation gradients of a run.

    The real steps of every row are gathered in row-major order (row 0's
    steps first) with the (masked) recurrent and external inputs of the
    same steps; one matrix product per parameter sums over all of them.
    """
    real = tape.real
    dz = dz_steps[real]
    return LstmParams(
        w=dz.T @ tape.h_in[real], u=dz.T @ tape.x_in[real], b=dz.sum(axis=0)
    )


def lstm_backward_dz(
    params: LstmParams,
    tape: LstmTape,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through the real steps of a run, all rows together.

    Returns the gate preactivation gradients dL/dz as an (R, T, 4*d_out)
    array in GATE_ORDER, zero at frozen steps, then dL/dh_0 and dL/dc_0,
    each (R, d_out).  `param_gradients` turns the first into parameter
    gradients.  Frozen steps are identity copies, so a row's upstream
    gradients pass them unchanged (again by `np.where` copies) and its
    walk starts at its last real step.  dL/dh goes back through W^T with
    one gemv per row.
    """
    if tape.d_in != params.d_in or tape.d_out != params.d_out:
        raise ShapeError(
            f"tape dims ({tape.d_in}, {tape.d_out}) do not match params "
            f"({params.d_in}, {params.d_out})"
        )
    rows, steps = tape.gates.shape[:2]
    shape = (rows, params.d_out)
    if d_h_final.shape != shape or d_c_final.shape != shape:
        raise ShapeError(f"upstream gradient shapes must be {shape}")

    d = params.d_out
    dtype = params.w.dtype
    gates = tape.gates
    f = gates[..., :d]
    i = gates[..., d : 2 * d]
    o = gates[..., 2 * d : 3 * d]
    c_tilde = gates[..., 3 * d :]
    tanh_c = np.tanh(tape.c[:, 1:])
    # local derivatives of every step, taken for all steps at once
    d_c_from_h = o * (1.0 - tanh_c * tanh_c)
    d_zf = tape.c[:, :-1] * f * (1.0 - f)
    d_zi = c_tilde * i * (1.0 - i)
    d_zo = tanh_c * o * (1.0 - o)
    d_zc = i * (1.0 - c_tilde * c_tilde)
    dz_steps = np.empty((rows, steps, 4 * d), dtype=dtype)
    dh = np.asarray(d_h_final, dtype=dtype).copy()
    dc = np.asarray(d_c_final, dtype=dtype).copy()
    w_t = params.w.T
    shortest = int(tape.lengths.min())

    for t in range(steps - 1, -1, -1):
        dz = dz_steps[:, t]
        np.multiply(dh, d_zo[:, t], out=dz[:, 2 * d : 3 * d])
        dc_t = dh * d_c_from_h[:, t]
        dc_t += dc
        np.multiply(dc_t, d_zf[:, t], out=dz[:, :d])
        np.multiply(dc_t, d_zi[:, t], out=dz[:, d : 2 * d])
        np.multiply(dc_t, d_zc[:, t], out=dz[:, 3 * d :])
        dh_t = _gemv(w_t, dz)
        if tape.rec_mask is not None:
            dh_t *= tape.rec_mask
        dc_t *= f[:, t]
        if t >= shortest:  # below that every row is live
            live = (t < tape.lengths)[:, None]
            dh_t = np.where(live, dh_t, dh)
            dc_t = np.where(live, dc_t, dc)
        dh, dc = dh_t, dc_t

    dz_steps[~tape.real] = 0.0
    return dz_steps, dh, dc
