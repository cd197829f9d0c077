"""A single LSTM cell built from scratch: exact forward dynamics, sequence
application with a state-freezing padding rule, and an analytic backward
pass (backpropagation through time).

Gate layout
-----------
The four gates f, i, o, c share stacked parameter storage: `w` holds the
four recurrent matrices stacked row-wise, `u` the four input matrices and
`b` the four bias vectors, always in GATE_ORDER (forget, input, output,
candidate).  Gate k of a cell with output width d owns rows
k*d .. (k+1)*d of each array; that is the only parameter layout.

State freezing
--------------
A sequence shorter than its unrolled length keeps hidden and memory state
fixed once the true length is reached.  The frozen steps are exact copies,
not multiplications by a mask, so the final state after freezing is
bit-identical to the state after the last real step; gradients flow
through the copies untouched, and gradients for padded inputs are zero.
`lstm_run_frozen` is the one forward pass; a single cell update is a run
of one step.
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
    "lstm_run_frozen",
    "lstm_backward",
    "lstm_backward_dz",
    "param_gradients",
]

GATE_ORDER = ("f", "i", "o", "c")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, exp taken of -|z| only."""
    t = np.exp(-np.abs(z))
    d = 1.0 + t
    return np.where(z >= 0.0, 1.0 / d, t / d)


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
    """Hidden state h and memory state c of one cell."""

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        if self.h.shape != self.c.shape or self.h.ndim != 1:
            raise ShapeError(
                f"state h {self.h.shape} and c {self.c.shape} must be equal 1-D"
            )

    @classmethod
    def zeros(cls, d_out: int, dtype=np.float64) -> "LstmState":
        return cls(h=np.zeros(d_out, dtype=dtype), c=np.zeros(d_out, dtype=dtype))


@dataclass
class LstmTape:
    """Forward-pass record for lstm_backward.

    One row per real step; frozen steps carry no rows because they are
    exact copies.  `length` is the unrolled length the sequence was padded
    to, `true_len` the number of real steps.  The inputs are held by
    reference and masked again in the backward pass, and tanh of the
    memory state is recomputed there, so a step stores 6 * d_out floats.
    """

    d_in: int
    d_out: int
    true_len: int
    length: int
    xs: np.ndarray = field(repr=False)  # (true_len, d_in), unmasked
    h_in: np.ndarray = field(repr=False)  # (true_len, d_out), masked
    gates: np.ndarray = field(repr=False)  # (true_len, 4*d_out): f, i, o, c~
    c: np.ndarray = field(repr=False)  # (true_len + 1, d_out): c_0 .. c_T
    in_mask: np.ndarray | None = None
    rec_mask: np.ndarray | None = None

    @property
    def x_in(self) -> np.ndarray:
        return self.xs if self.in_mask is None else self.xs * self.in_mask


def lstm_run_frozen(
    params: LstmParams,
    xs: np.ndarray,
    true_len: int,
    length: int,
    init: LstmState | None = None,
    in_mask: np.ndarray | None = None,
    rec_mask: np.ndarray | None = None,
) -> tuple[LstmState, LstmTape]:
    """Apply the cell over `xs` for `true_len` steps, frozen up to `length`.

    Each real step t computes, from the masked input x and the masked
    previous hidden state h,
    f = sigmoid(W_f h + U_f x + b_f), i and o analogous,
    c~ = tanh(W_c h + U_c x + b_c), c' = f*c + i*c~, h' = o*tanh(c').
    Optional masks multiply the input and the recurrent hidden state
    entering the gate preactivations (variational dropout).

    Steps beyond true_len keep h and c fixed, so the returned final state
    is exactly the state after step true_len no matter how far the
    sequence is padded.  `xs` is (>= true_len, d_in); rows past true_len
    are ignored.
    """
    if true_len == 0:
        raise ValueError("lstm_run_frozen requires true_len >= 1")
    if true_len > length:
        raise ValueError(f"true_len {true_len} exceeds unrolled length {length}")
    xs = np.asarray(xs)
    if xs.ndim != 2 or xs.shape[1] != params.d_in:
        raise ShapeError(
            f"xs shape {xs.shape} does not match (steps, d_in={params.d_in})"
        )
    if xs.shape[0] < true_len:
        raise ValueError(f"xs has {xs.shape[0]} rows, needs at least {true_len}")
    state = LstmState.zeros(params.d_out, dtype=params.w.dtype) if init is None else init
    if state.h.shape != (params.d_out,):
        raise ShapeError(
            f"init state shape {state.h.shape} does not match d_out {params.d_out}"
        )
    d = params.d_out
    dtype = params.w.dtype
    h_in = np.empty((true_len, d), dtype=dtype)
    gates = np.empty((true_len, 4 * d), dtype=dtype)
    cs = np.empty((true_len + 1, d), dtype=dtype)
    cs[0] = state.c
    h = state.h
    xs = xs[:true_len]
    xs_in = xs if in_mask is None else xs * in_mask
    for t in range(true_len):
        if rec_mask is None:
            h_in[t] = h
        else:
            np.multiply(h, rec_mask, out=h_in[t])
        z = params.w @ h_in[t] + params.u @ xs_in[t] + params.b
        g = gates[t]
        g[: 3 * d] = sigmoid(z[: 3 * d])
        g[3 * d :] = np.tanh(z[3 * d :])
        np.add(g[:d] * cs[t], g[d : 2 * d] * g[3 * d :], out=cs[t + 1])
        h = g[2 * d : 3 * d] * np.tanh(cs[t + 1])
    state = LstmState(h, cs[true_len].copy())
    tape = LstmTape(
        d_in=params.d_in,
        d_out=d,
        true_len=true_len,
        length=length,
        xs=xs,
        h_in=h_in,
        gates=gates,
        c=cs,
        in_mask=in_mask,
        rec_mask=rec_mask,
    )
    return state, tape


def lstm_backward(
    params: LstmParams,
    tape: LstmTape,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
) -> tuple[LstmParams, np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients through a frozen run.

    Given dL/dh_final and dL/dc_final, returns (parameter gradients as an
    LstmParams-shaped container, input gradients of shape (length, d_in)
    with zero rows for padded steps, dL/dh_0, dL/dc_0).  Frozen steps are
    identity copies, so the upstream gradients pass through them
    unchanged and the loop starts at the last real step.
    """
    dz_steps, dh, dc = lstm_backward_dz(params, tape, d_h_final, d_c_final)
    input_grads = np.zeros((tape.length, params.d_in), dtype=params.w.dtype)
    input_grads[: tape.true_len] = dz_steps @ params.u
    if tape.in_mask is not None:
        input_grads[: tape.true_len] *= tape.in_mask
    return param_gradients(dz_steps, tape.h_in, tape.x_in), input_grads, dh, dc


def param_gradients(
    dz_steps: np.ndarray, h_in: np.ndarray, x_in: np.ndarray
) -> LstmParams:
    """Parameter gradients from the preactivation gradients of real steps
    and the (masked) recurrent and external inputs of the same steps,
    stacked row-wise; one matrix product per parameter."""
    return LstmParams(
        w=dz_steps.T @ h_in, u=dz_steps.T @ x_in, b=dz_steps.sum(axis=0)
    )


def lstm_backward_dz(
    params: LstmParams,
    tape: LstmTape,
    d_h_final: np.ndarray,
    d_c_final: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through the real steps of a frozen run.

    Returns the gate preactivation gradients dL/dz of every real step as a
    (true_len, 4*d_out) array in GATE_ORDER, then dL/dh_0 and dL/dc_0.
    `param_gradients` turns the first into parameter gradients.
    """
    if tape.d_in != params.d_in or tape.d_out != params.d_out:
        raise ShapeError(
            f"tape dims ({tape.d_in}, {tape.d_out}) do not match params "
            f"({params.d_in}, {params.d_out})"
        )
    if d_h_final.shape != (params.d_out,) or d_c_final.shape != (params.d_out,):
        raise ShapeError("upstream gradient shapes must be (d_out,)")

    d = params.d_out
    dtype = params.w.dtype
    n = tape.true_len
    gates = tape.gates
    f = gates[:, :d]
    i = gates[:, d : 2 * d]
    o = gates[:, 2 * d : 3 * d]
    c_tilde = gates[:, 3 * d :]
    tanh_c = np.tanh(tape.c[1:])
    # local derivatives of every step, taken for all steps at once
    d_c_from_h = o * (1.0 - tanh_c * tanh_c)
    d_zf = tape.c[:-1] * f * (1.0 - f)
    d_zi = c_tilde * i * (1.0 - i)
    d_zo = tanh_c * o * (1.0 - o)
    d_zc = i * (1.0 - c_tilde * c_tilde)
    dz_steps = np.empty((n, 4 * d), dtype=dtype)
    dh = np.asarray(d_h_final, dtype=dtype).copy()
    dc = np.asarray(d_c_final, dtype=dtype).copy()
    w_t = params.w.T

    for t in range(n - 1, -1, -1):
        dz = dz_steps[t]
        np.multiply(dh, d_zo[t], out=dz[2 * d : 3 * d])
        dc = dc + dh * d_c_from_h[t]
        np.multiply(dc, d_zf[t], out=dz[:d])
        np.multiply(dc, d_zi[t], out=dz[d : 2 * d])
        np.multiply(dc, d_zc[t], out=dz[3 * d :])
        dh = w_t @ dz
        if tape.rec_mask is not None:
            dh = dh * tape.rec_mask
        dc = dc * f[t]

    return dz_steps, dh, dc
