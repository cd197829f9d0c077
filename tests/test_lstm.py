import numpy as np
import pytest

from authverify.gradcheck import check_lstm_config, compare_grads, numeric_gradient
from authverify.lstm import (
    LstmParams,
    LstmState,
    lstm_backward,
    lstm_run_frozen,
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
        out, _ = lstm_run_frozen(p, rng.normal(size=3)[None], 1, 1,
                                 init=LstmState.zeros(2))
        np.testing.assert_array_equal(out.h, np.zeros(2))
        np.testing.assert_array_equal(out.c, np.zeros(2))

    def test_scalar_hand_computation(self):
        p = LstmParams.zeros(1, 1)
        p.u[3:] = 1.0  # candidate block
        out, _ = lstm_run_frozen(p, np.array([1.0])[None], 1, 1,
                                 init=LstmState.zeros(1))
        assert out.c[0] == pytest.approx(SCALAR_C, abs=1e-12)
        assert out.h[0] == pytest.approx(SCALAR_H, abs=1e-12)

    def test_zero_input_zero_state_zero_bias(self, rng):
        p = LstmParams(
            w=rng.normal(size=(8, 2)),
            u=rng.normal(size=(8, 3)),
            b=np.zeros(8),
        )
        out, _ = lstm_run_frozen(p, np.zeros(3)[None], 1, 1, init=LstmState.zeros(2))
        np.testing.assert_array_equal(out.h, np.zeros(2))

    def test_gate_ranges(self, rng):
        p = LstmParams.init_uniform(3, 4, -0.5, 0.5, rng)
        xs = rng.normal(size=(6, 3))
        _, tape = lstm_run_frozen(p, xs, 6, 6)
        sigmoid_gates, c_tilde = tape.gates[:, :12], tape.gates[:, 12:]
        assert np.all(sigmoid_gates > 0.0) and np.all(sigmoid_gates < 1.0)
        assert np.all(np.abs(c_tilde) < 1.0)
        assert np.all(np.abs(np.tanh(tape.c[1:])) < 1.0)

    def test_shape_errors(self):
        p = LstmParams.zeros(3, 2)
        with pytest.raises(ShapeError):
            lstm_run_frozen(p, np.zeros(4)[None], 1, 1, init=LstmState.zeros(2))
        with pytest.raises(ShapeError):
            lstm_run_frozen(p, np.zeros(3)[None], 1, 1, init=LstmState.zeros(5))


class TestLstmRunFrozen:
    def test_full_length_equals_plain_unroll(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        xs = rng.normal(size=(4, 3))
        state = LstmState.zeros(2)
        for t in range(4):
            state, _ = lstm_run_frozen(p, xs[t][None], 1, 1, init=state)
        final, _ = lstm_run_frozen(p, xs, 4, 4)
        np.testing.assert_array_equal(final.h, state.h)
        np.testing.assert_array_equal(final.c, state.c)

    def test_frozen_tail_keeps_state(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        xs = rng.normal(size=(5, 3))
        short, _ = lstm_run_frozen(p, xs[:2], 2, 2)
        frozen, _ = lstm_run_frozen(p, xs, 2, 5)
        np.testing.assert_array_equal(short.h, frozen.h)
        np.testing.assert_array_equal(short.c, frozen.c)

    def test_padding_invariance_bitwise(self, rng):
        p = LstmParams.init_uniform(4, 3, -0.5, 0.5, rng)
        xs = rng.normal(size=(3, 4))
        a, _ = lstm_run_frozen(p, xs, 3, 5)
        b, _ = lstm_run_frozen(p, xs, 3, 50)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.c, b.c)

    def test_rejects_bad_lengths(self, rng):
        p = LstmParams.zeros(3, 2)
        xs = np.zeros((4, 3))
        with pytest.raises(ValueError):
            lstm_run_frozen(p, xs, 0, 4)
        with pytest.raises(ValueError):
            lstm_run_frozen(p, xs, 5, 4)
        with pytest.raises(ValueError):
            lstm_run_frozen(p, xs[:1], 3, 4)


class TestLstmBackward:
    def test_zero_upstream_zero_grads(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        xs = rng.normal(size=(4, 3))
        _, tape = lstm_run_frozen(p, xs, 4, 4)
        grads, input_grads, dh0, dc0 = lstm_backward(
            p, tape, np.zeros(2), np.zeros(2)
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
            final, _ = lstm_run_frozen(p, xs, 1, 1)
            return float(final.h[0])

        _, tape = lstm_run_frozen(p, xs, 1, 1)
        grads, _, _, _ = lstm_backward(p, tape, np.ones(1), np.zeros(1))
        for name, target in (("w", p.w), ("u", p.u), ("b", p.b)):
            numeric = numeric_gradient(loss, target)
            analytic = grads.arrays()[name]
            failures = compare_grads(name, analytic, numeric, rel_tol=1e-6)
            assert not failures, failures

    def test_frozen_run_matches_unpadded_gradients(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        xs = rng.normal(size=(5, 3))
        dh, dc = rng.normal(size=2), rng.normal(size=2)
        _, tape_short = lstm_run_frozen(p, xs[:2], 2, 2)
        _, tape_frozen = lstm_run_frozen(p, xs, 2, 5)
        g_short, in_short, dh0_s, dc0_s = lstm_backward(p, tape_short, dh, dc)
        g_frozen, in_frozen, dh0_f, dc0_f = lstm_backward(p, tape_frozen, dh, dc)
        for a, b in zip(g_short.arrays().values(), g_frozen.arrays().values()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(in_short, in_frozen[:2])
        assert np.all(in_frozen[2:] == 0.0)
        np.testing.assert_array_equal(dh0_s, dh0_f)
        np.testing.assert_array_equal(dc0_s, dc0_f)

    def test_matches_per_step_reference(self, rng):
        # the per-step loop with outer products, read from the tape's
        # arrays row by row; only the summation order differs
        p = LstmParams.init_uniform(4, 3, -0.5, 0.5, rng)
        xs = rng.normal(size=(7, 4))
        in_mask, rec_mask = rng.uniform(0.5, 1.5, size=4), rng.uniform(0.5, 1.5, size=3)
        dh_final, dc_final = rng.normal(size=3), rng.normal(size=3)
        _, tape = lstm_run_frozen(p, xs, 5, 7, in_mask=in_mask, rec_mask=rec_mask)

        ref = LstmParams.zeros(4, 3)
        ref_inputs = np.zeros((7, 4))
        dh, dc = dh_final.copy(), dc_final.copy()
        for t in range(4, -1, -1):
            f, i, o, c_tilde = np.split(tape.gates[t], 4)
            c_prev, tanh_c = tape.c[t], np.tanh(tape.c[t + 1])
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

        grads, input_grads, dh0, dc0 = lstm_backward(p, tape, dh_final, dc_final)
        for name, a in grads.arrays().items():
            np.testing.assert_allclose(a, ref.arrays()[name], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(input_grads, ref_inputs, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dh0, dh, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dc0, dc, rtol=1e-12, atol=1e-15)

    def test_tape_params_mismatch(self, rng):
        p = LstmParams.init_uniform(3, 2, -0.5, 0.5, rng)
        other = LstmParams.zeros(4, 2)
        _, tape = lstm_run_frozen(p, rng.normal(size=(3, 3)), 3, 3)
        with pytest.raises(ShapeError):
            lstm_backward(other, tape, np.zeros(2), np.zeros(2))

    def test_random_configs_against_finite_differences(self):
        rng = make_rng(2024)
        for _ in range(5):
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 6))
            report = check_lstm_config(d_in, d_out, steps, int(rng.integers(1 << 30)))
            assert report.ok, report.failures[:5]
