import numpy as np
import pytest

from authverify.gradcheck import check_lstm_config, compare_grads, numeric_gradient
from authverify.lstm import (
    LstmParams,
    LstmState,
    lstm_run,
    lstm_run_backward,
    param_gradients,
    sigmoid,
)
from authverify.numeric import ShapeError, make_rng

# 0.5 * tanh(0.5 * tanh(1)), the scalar cell worked out by hand
SCALAR_H = 0.18169974219452623
SCALAR_C = 0.3807970779778824


class TestSigmoid:
    def test_extremes_do_not_overflow(self):
        z = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
        s = sigmoid(z)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0
        assert s[2] == 0.5

    def test_matches_reference(self):
        z = np.linspace(-30, 30, 201)
        np.testing.assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)

    @staticmethod
    def masked_copy_sigmoid(z, out=None):
        """The earlier body of `sigmoid`, which set the numerator to 1.0
        where z >= 0 by a masked copy: the byte reference of the max."""
        t = np.abs(z)
        np.negative(t, out=t)
        np.exp(t, out=t)
        d = t + 1.0
        np.copyto(t, 1.0, where=z >= 0.0)
        return np.divide(t, d, out=out)

    @pytest.mark.parametrize("aliased", [False, True])
    @pytest.mark.parametrize("sliced", [False, True])
    def test_bytes_match_masked_copy(self, sliced, aliased):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                   710.0, -710.0, 800.0, -800.0]
        rng = make_rng(17)
        z = rng.normal(size=(40, 24)) * rng.choice([1.0, 10.0, 100.0], size=(40, 1))
        z[0, : len(special)] = special
        z[-1, 4 : 4 + len(special)] = special
        ref_in, new_in = z.copy(), z.copy()
        if sliced:  # column slices, as the LSTM's gate blocks are
            ref_in, new_in = ref_in[:, 2:18], new_in[:, 2:18]
            assert not new_in.flags.c_contiguous
        ref = self.masked_copy_sigmoid(ref_in, out=ref_in if aliased else None)
        got = sigmoid(new_in, out=new_in if aliased else None)
        assert (got is new_in) == aliased
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


class TestLstmParams:
    def test_init_uniform_range_and_determinism(self):
        a = LstmParams.init_uniform(3, 2, -0.05, 0.05, make_rng(4))
        b = LstmParams.init_uniform(3, 2, -0.05, 0.05, make_rng(4))
        for x, y in zip(a.arrays().values(), b.arrays().values()):
            np.testing.assert_array_equal(x, y)
            assert np.all(x >= -0.05) and np.all(x < 0.05)

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ShapeError):
            LstmParams(w=np.zeros((8, 2)), u=np.zeros((8, 3)), b=np.zeros(7))
        with pytest.raises(ShapeError):
            LstmParams(w=np.zeros((6, 2)), u=np.zeros((6, 3)), b=np.zeros(6))


class TestLstmStep:
    def test_all_zero_params_zero_state(self, rng):
        p = LstmParams.zeros(3, 2)
        out, _ = lstm_run(p, rng.normal(size=3)[None], [1],
                          init=LstmState.zeros(1, 2))
        np.testing.assert_array_equal(out.h[0], np.zeros(2))
        np.testing.assert_array_equal(out.c[0], np.zeros(2))

    def test_scalar_hand_computation(self):
        p = LstmParams.zeros(1, 1)
        p.u[3:] = 1.0  # candidate block
        out, _ = lstm_run(p, np.array([[1.0]]), [1], init=LstmState.zeros(1, 1))
        assert out.c[0, 0] == pytest.approx(SCALAR_C, abs=1e-12)
        assert out.h[0, 0] == pytest.approx(SCALAR_H, abs=1e-12)

    def test_zero_input_zero_state_zero_bias(self, rng):
        p = LstmParams(
            w=rng.normal(size=(8, 2)),
            u=rng.normal(size=(8, 3)),
            b=np.zeros(8),
        )
        out, _ = lstm_run(p, np.zeros((1, 3)), [1], init=LstmState.zeros(1, 2))
        np.testing.assert_array_equal(out.h[0], np.zeros(2))

    def test_gate_ranges(self, rng):
        p = LstmParams.init_uniform(3, 4, -0.5, 0.5, rng)
        xs = rng.normal(size=(6, 3))
        _, tape = lstm_run(p, xs, [6], record=True)
        sigmoid_gates, c_tilde = tape.gates[:, :12], tape.gates[:, 12:]
        assert np.all(sigmoid_gates > 0.0) and np.all(sigmoid_gates < 1.0)
        assert np.all(np.abs(c_tilde) < 1.0)
        assert np.all(np.abs(np.tanh(tape.c)) < 1.0)

    def test_shape_errors(self):
        p = LstmParams.zeros(3, 2)
        with pytest.raises(ShapeError):
            lstm_run(p, np.zeros((1, 4)), [1], init=LstmState.zeros(1, 2))
        with pytest.raises(ShapeError):
            lstm_run(p, np.zeros((1, 3)), [1], init=LstmState.zeros(1, 5))


class TestLstmRunFrozen:
    def test_full_length_equals_plain_unroll(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        xs = rng.normal(size=(4, 3))
        state = LstmState.zeros(1, 2)
        for t in range(4):
            state, _ = lstm_run(p, xs[t : t + 1], [1], init=state)
        final, _ = lstm_run(p, xs, [4])
        # runs without a tape take GEMMs, whose last bits depend on the shape
        np.testing.assert_allclose(final.h, state.h, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(final.c, state.c, rtol=1e-12, atol=1e-15)

    def test_rejects_bad_lengths(self, rng):
        p = LstmParams.zeros(3, 2)
        xs = np.zeros((4, 3))
        with pytest.raises(ValueError):
            lstm_run(p, xs, [0])
        with pytest.raises(ValueError):
            lstm_run(p, xs, [5])
        with pytest.raises(ValueError):
            lstm_run(p, xs[:1], [3])


class TestLstmBackward:
    def test_zero_upstream_zero_grads(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        xs = rng.normal(size=(4, 3))
        _, tape = lstm_run(p, xs, [4], record=True)
        grads, input_grads, dh0, dc0 = lstm_run_backward(
            p, tape, np.zeros((1, 2)), np.zeros((1, 2))
        )
        for a in grads.arrays().values():
            assert np.all(a == 0.0)
        assert np.all(input_grads == 0.0)
        assert np.all(dh0 == 0.0) and np.all(dc0 == 0.0)

    def test_scalar_cell_finite_difference(self):
        p = LstmParams.zeros(1, 1)
        p.u[3:] = 1.0  # candidate block
        xs = np.array([[1.0]])

        def loss():
            final, _ = lstm_run(p, xs, [1])
            return float(final.h[0, 0])

        _, tape = lstm_run(p, xs, [1], record=True)
        grads, _, _, _ = lstm_run_backward(p, tape, np.ones((1, 1)), np.zeros((1, 1)))
        for name, target in (("w", p.w), ("u", p.u), ("b", p.b)):
            numeric = numeric_gradient(loss, target)
            analytic = grads.arrays()[name]
            failures = compare_grads(name, analytic, numeric, rel_tol=1e-6)
            assert not failures, failures

    def test_matches_per_step_reference(self, rng):
        # the per-step loop with outer products, read from the tape's
        # arrays row by row; only the summation order differs
        p = LstmParams.init_uniform(4, 3, -0.5, 0.5, rng)
        xs = rng.normal(size=(7, 4))
        in_mask, rec_mask = rng.uniform(0.5, 1.5, size=4), rng.uniform(0.5, 1.5, size=3)
        dh_final, dc_final = rng.normal(size=3), rng.normal(size=3)
        # the caller masks the input rows; the run takes the recurrent mask
        _, tape = lstm_run(p, xs[:5] * in_mask, [5], rec_mask=rec_mask[None],
                           record=True)

        ref = LstmParams.zeros(4, 3)
        ref_inputs = np.zeros((5, 4))
        dh, dc = dh_final.copy(), dc_final.copy()
        cs = np.concatenate((tape.c0, tape.c))  # c_0 .. c_5 of the one row
        for t in range(4, -1, -1):
            f, i, o, c_tilde = np.split(tape.gates[t], 4)
            c_prev, tanh_c = cs[t], np.tanh(cs[t + 1])
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dz = np.concatenate((
                dc * c_prev * f * (1.0 - f),
                dc * c_tilde * i * (1.0 - i),
                do * o * (1.0 - o),
                dc * i * (1.0 - c_tilde * c_tilde),
            ))
            ref.w += np.outer(dz, tape.h_in[t])
            ref.u += np.outer(dz, tape.x_in[t])
            ref.b += dz
            ref_inputs[t] = (p.u.T @ dz) * in_mask
            dh = (p.w.T @ dz) * rec_mask
            dc = dc * f

        grads, input_grads, dh0, dc0 = lstm_run_backward(
            p, tape, dh_final[None], dc_final[None]
        )
        for name, a in grads.arrays().items():
            np.testing.assert_allclose(a, ref.arrays()[name], rtol=1e-12, atol=1e-15)
        # the input mask's product, where the caller applied the mask
        np.testing.assert_allclose(
            input_grads * in_mask, ref_inputs, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(dh0[0], dh, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dc0[0], dc, rtol=1e-12, atol=1e-15)

    def test_tape_params_mismatch(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        other = LstmParams.zeros(4, 2)
        _, tape = lstm_run(p, rng.normal(size=(3, 3)), [3], record=True)
        with pytest.raises(ShapeError):
            lstm_run_backward(other, tape, np.zeros((1, 2)), np.zeros((1, 2)))

    def test_spent_tape_refuses_a_second_walk(self, rng):
        # the walk writes dz over the gates: gradients need the walk first,
        # and a second walk, which would read dz as gates, raises
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        _, tape = lstm_run(p, rng.normal(size=(5, 3)), [3, 2], record=True)
        with pytest.raises(ValueError, match="walked"):
            param_gradients(tape)
        dh, dc = rng.normal(size=(2, 2, 2))
        lstm_run_backward(p, tape, dh, dc)
        with pytest.raises(ValueError, match="walked back already"):
            lstm_run_backward(p, tape, dh, dc)

    def test_random_configs_against_finite_differences(self):
        rng = make_rng(2024)
        for _ in range(5):
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 6))
            report = check_lstm_config(d_in, d_out, steps, int(rng.integers(1 << 30)))
            assert report.ok, report.failures[:5]


class TestBatchedRun:
    LENGTHS = [4, 1, 7, 3, 7]

    def make_case(self, rng, with_masks):
        """Parameters, the real steps of each row, initial states, and the
        rows' (R, d_in) input masks and (R, d_out) recurrent masks; without
        masks, input masks of ones and no recurrent mask."""
        p = LstmParams.init_uniform(3, 4, -0.5, 0.5, rng)
        rows = len(self.LENGTHS)
        xs = rng.normal(size=(rows, 9, 3))
        xs = xs[np.arange(9) < np.array(self.LENGTHS)[:, None]]  # the real steps
        init = LstmState(rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4)))
        masks = (rng.uniform(0.5, 1.5, size=(rows, 3)),
                 rng.uniform(0.5, 1.5, size=(rows, 4)))
        if not with_masks:
            masks = (np.ones((rows, 3)), None)
        return p, xs, init, masks

    @pytest.mark.parametrize("with_masks", [False, True])
    def test_rows_match_one_row_runs(self, rng, with_masks):
        p, xs, init, (in_mask, rec_mask) = self.make_case(rng, with_masks)
        # the caller masks each row's steps, as the encoder does
        step_masks = np.repeat(in_mask, self.LENGTHS, axis=0)
        final, tape = lstm_run(p, xs * step_masks, self.LENGTHS, init=init,
                               rec_mask=rec_mask, record=True)
        dh, dc = rng.normal(size=(2, len(self.LENGTHS), 4))
        # the tape's step arrays, row after row like the input, read before
        # the walk writes dz over the gates
        h_in, gates, cs = (a[tape.index] for a in (tape.h_in, tape.gates, tape.c))
        c0 = tape.c0[np.argsort(tape.order)]  # in the caller's row order
        grads, in_grads, dh0, dc0 = lstm_run_backward(p, tape, dh, dc)

        ref = LstmParams.zeros(3, 4)
        stop = 0
        for r, n in enumerate(self.LENGTHS):
            start, stop = stop, stop + n
            one_final, one = lstm_run(
                p, xs[start:stop] * in_mask[r], [n],
                init=LstmState(init.h[r : r + 1], init.c[r : r + 1]),
                rec_mask=None if rec_mask is None else rec_mask[r : r + 1],
                record=True,
            )
            # a run's GEMMs may round a row differently with other rows
            close = dict(rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(final.h[r], one_final.h[0], **close)
            np.testing.assert_allclose(final.c[r], one_final.c[0], **close)
            np.testing.assert_allclose(h_in[start:stop], one.h_in, **close)
            np.testing.assert_allclose(gates[start:stop], one.gates, **close)
            np.testing.assert_allclose(c0[r], one.c0[0], **close)
            np.testing.assert_allclose(cs[start:stop], one.c, **close)

            g, one_in, one_dh0, one_dc0 = lstm_run_backward(
                p, one, dh[r : r + 1], dc[r : r + 1]
            )
            for name, a in g.arrays().items():
                ref.arrays()[name] += a
            np.testing.assert_allclose(
                in_grads[start:stop] * step_masks[start:stop], one_in * in_mask[r],
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(dh0[r], one_dh0[0], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(dc0[r], one_dc0[0], rtol=1e-12, atol=1e-15)
        for name, a in grads.arrays().items():
            np.testing.assert_allclose(a, ref.arrays()[name], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("d_in,d_out", [(20, 10), (300, 150)])
    @pytest.mark.parametrize("lengths", [
        LENGTHS,  # any order, ties, a length-1 row
        [6, 6, 6],  # every row live at every step
        [1, 1],
        [2, 9, 1, 5, 1, 9, 3],
    ])
    @pytest.mark.parametrize("masks", ["none", "per_row"])
    def test_tape_free_run_matches_lstm_run(self, d_in, d_out, lengths, masks):
        rng = make_rng(d_in + len(lengths))
        p = LstmParams.init_uniform(d_in, d_out, -0.05, 0.05, rng)
        rows = len(lengths)
        xs = rng.normal(size=(rows, max(lengths) + 2, d_in))
        in_mask, rec_mask = (
            None if masks == "none" else rng.uniform(0.5, 1.5, size=(rows, dim))
            for dim in (d_in, d_out)
        )
        if in_mask is not None:
            xs *= in_mask[:, None]
        real_steps = xs[np.arange(xs.shape[1]) < np.array(lengths)[:, None]]
        final, _ = lstm_run(p, real_steps, lengths, rec_mask=rec_mask, record=True)
        h, tape = lstm_run(p, real_steps, lengths, rec_mask=rec_mask)
        assert tape is None
        # the tape-free run takes GEMMs where the taped run takes gemvs
        np.testing.assert_allclose(h.h, final.h, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h.c, final.c, rtol=1e-12, atol=1e-15)
        again, _ = lstm_run(p, real_steps, lengths, rec_mask=rec_mask)
        assert again.h.tobytes() == h.h.tobytes()
        assert again.c.tobytes() == h.c.tobytes()

    def test_three_rows_against_finite_differences(self):
        report = check_lstm_config(3, 2, (3, 1, 5), seed=17)
        assert report.ok, report.failures[:5]
        assert check_lstm_config(2, 3, (2, 2, 4), seed=18).ok

    def test_rejects_mismatched_rows(self, rng):
        p = LstmParams.zeros(3, 2)
        steps = rng.normal(size=(6, 3))
        with pytest.raises(ShapeError):
            lstm_run(p, steps, [4])
        with pytest.raises(ShapeError):
            lstm_run(p, steps, [4, 2], rec_mask=np.ones((3, 2)))
        with pytest.raises(ShapeError):  # one mask shared by the rows: no such form
            lstm_run(p, steps, [4, 2], rec_mask=np.ones(2))
        with pytest.raises(ShapeError):
            lstm_run(p, steps, [4, 2], rec_mask=np.ones((1, 2)))
        with pytest.raises(ShapeError):
            lstm_run(p, steps, [4, 3])
        with pytest.raises(ShapeError):
            lstm_run(p, steps.reshape(2, 3, 3), [4, 2])
        with pytest.raises(ValueError):
            lstm_run(p, steps, [6, 0])
