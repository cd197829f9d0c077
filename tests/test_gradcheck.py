import numpy as np

import pytest

from authverify.gradcheck import (
    GradCheckReport,
    check_pipeline_config,
    compare_grads,
    numeric_gradient,
    run_suite,
)


class TestCompareGrads:
    def test_passes_within_tolerance(self):
        a = np.array([1.0, 2.0, 3.0])
        n = a * (1 + 5e-5)
        assert compare_grads("x", a, n) == []

    def test_fails_outside_tolerance(self):
        a = np.array([1.0])
        n = np.array([1.01])
        failures = compare_grads("x", a, n)
        assert len(failures) == 1
        assert failures[0].array == "x"

    def test_small_values_use_absolute_criterion(self):
        a = np.array([1e-9])
        n = np.array([5e-8])  # huge relative error, tiny absolute
        assert compare_grads("x", a, n) == []
        assert compare_grads("x", np.array([1e-9]), np.array([1e-6])) != []


class TestNumericGradient:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])

        def loss():
            return float(np.sum(x * x))

        grad = numeric_gradient(loss, x)
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-7)
        np.testing.assert_array_equal(x, [1.0, -2.0, 3.0])  # restored

    def test_matrix_argument(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])

        def loss():
            return float(np.sum(w**3))

        grad = numeric_gradient(loss, w)
        np.testing.assert_allclose(grad, 3 * w**2, rtol=1e-6)


class TestRunSuite:
    def test_small_suite_passes(self):
        reports = run_suite(n_lstm_configs=3, seed=11)
        assert len(reports) == 5  # 3 lstm + 2 pipeline labels
        for report in reports:
            assert isinstance(report, GradCheckReport)
            assert report.ok, report.failures[:3]
            assert report.checked > 0


class TestPipelineScale:
    @pytest.mark.parametrize("scale", [0.6, 1.5, 2.8])
    def test_scale_other_than_one(self, scale):
        # the embedding is s * h_T: ds and the level-2 walk from s * dx
        for label, seed in ((1, 7), (0, 8)):
            report = check_pipeline_config(seed=seed, label_value=label, scale=scale)
            assert report.ok, report.failures[:3]
