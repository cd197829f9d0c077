import numpy as np
import pytest

from authverify.numeric import (
    NonFiniteError,
    clip_by_global_norm,
    global_norm,
    make_rng,
    uniform_init,
)


class TestUniformInit:
    def test_range(self):
        m = uniform_init((2, 2), -0.05, 0.05, make_rng(7))
        assert np.all(m >= -0.05) and np.all(m < 0.05)
        assert m.shape == (2, 2)

    def test_deterministic(self):
        a = uniform_init((5, 3), -0.05, 0.05, make_rng(7))
        b = uniform_init((5, 3), -0.05, 0.05, make_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_large_sample_mean(self):
        m = uniform_init((1000, 1000), -0.05, 0.05, make_rng(3))
        assert abs(float(m.mean())) < 0.002

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            uniform_init((2, 2), 0.05, -0.05, make_rng(0))
        with pytest.raises(ValueError):
            uniform_init(2, 1.0, 1.0, make_rng(0))

    def test_vector_variant(self):
        v = uniform_init(100, -1.0, 1.0, make_rng(5))
        assert v.shape == (100,)
        assert np.all(v >= -1.0) and np.all(v < 1.0)


class TestClipByGlobalNorm:
    def test_at_threshold_unchanged(self):
        g = [np.array([3.0, 4.0])]
        clipped, norm = clip_by_global_norm(g, 5.0)
        assert norm == 5.0
        assert clipped[0] is g[0]

    def test_scales_to_threshold(self):
        clipped, norm = clip_by_global_norm([np.array([6.0, 8.0])], 5.0)
        assert norm == 10.0
        np.testing.assert_array_equal(clipped[0], np.array([3.0, 4.0]))

    def test_zero_gradients(self):
        clipped, norm = clip_by_global_norm([np.zeros((2, 2)), np.zeros(3)], 5.0)
        assert norm == 0.0
        assert all(np.all(c == 0.0) for c in clipped)

    def test_norm_spans_all_arrays(self):
        g = [np.full((2, 2), 1.0), np.full(5, 1.0)]
        _, norm = clip_by_global_norm(g, 100.0)
        assert norm == pytest.approx(3.0)

    def test_idempotent(self):
        rng = make_rng(11)
        g = [rng.normal(size=(3, 3)) * 10, rng.normal(size=4) * 10]
        once, _ = clip_by_global_norm(g, 5.0)
        twice, norm2 = clip_by_global_norm(once, 5.0)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a, b)
        assert norm2 <= 5.0 + 1e-9

    def test_clipped_norm_below_threshold(self):
        rng = make_rng(13)
        for _ in range(10):
            g = [rng.normal(size=(4, 4)) * 100]
            clipped, _ = clip_by_global_norm(g, 5.0)
            assert global_norm(clipped) <= 5.0 + 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            clip_by_global_norm([np.array([1.0, np.nan])], 5.0)
        with pytest.raises(NonFiniteError):
            clip_by_global_norm([np.array([np.inf])], 5.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            clip_by_global_norm([np.ones(2)], 0.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).uniform(size=100)
        b = make_rng(99).uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            make_rng(1).uniform(size=10), make_rng(2).uniform(size=10)
        )
