import math

import numpy as np
import pytest

from histlstm.numerics import (
    EPS_LOSS_FLOOR,
    ShapeError,
    cross_entropy,
    finite_diff,
    sigmoid,
    softmax,
)


class TestSigmoid:
    def test_midpoint_and_saturation(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        assert sigmoid(np.array([1000.0]))[0] == 1.0
        assert sigmoid(np.array([-1000.0]))[0] == 0.0

    def test_matches_logistic_formula(self):
        z = np.linspace(-30, 30, 101)
        ref = 1.0 / (1.0 + np.exp(-z))
        assert np.allclose(sigmoid(z), ref, rtol=1e-12, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(64) * 5
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)


class TestSoftmax:
    def test_uniform_by_symmetry(self):
        assert np.allclose(softmax(np.zeros(3)), 1.0 / 3.0, atol=1e-15)

    def test_large_entry_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert p[0] > 1.0 - 1e-12 and p[1] < 1e-12
        assert np.all(np.isfinite(p))

    def test_closed_form_ln2(self):
        p = softmax(np.array([math.log(2.0), 0.0]))
        assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_probability_vector_property(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            z = rng.uniform(-1e3, 1e3, size=n)
            p = softmax(z)
            assert np.all(p >= 0) and np.all(p <= 1)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_shift_invariance_exact_on_dyadic_grid(self):
        # Dyadic inputs and shift make every intermediate addition exact, so
        # the max-subtracted formulation is bitwise shift-invariant.
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.integers(-40, 40, size=5).astype(np.float64) / 8.0
            c = float(rng.integers(-40, 40)) / 8.0
            assert np.array_equal(softmax(z), softmax(z + c))

    def test_shift_invariance_close_for_general_floats(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.standard_normal(6) * 10
            c = float(rng.standard_normal()) * 10
            assert np.allclose(softmax(z), softmax(z + c), rtol=1e-12, atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))

    def test_rows_equal_vector_softmax_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, C = int(rng.integers(1, 12)), int(rng.integers(1, 41))
            Z = rng.standard_normal((n, C)) * 10
            P = softmax(Z)
            assert P.shape == Z.shape
            for z, p in zip(Z, P):
                assert np.array_equal(p, softmax(z))


class TestCrossEntropy:
    def test_perfect_prediction_hits_floor(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == EPS_LOSS_FLOOR

    def test_uniform_four_classes(self):
        p = np.full(4, 0.25)
        for label in range(4):
            assert abs(cross_entropy(p, label) - math.log(4.0)) < 1e-15

    def test_half_half(self):
        assert abs(cross_entropy(np.array([0.5, 0.5]), 1) - math.log(2.0)) < 1e-15

    def test_floor_boundary(self):
        # Floored exactly when p[label] >= exp(-floor).
        hi = math.exp(-EPS_LOSS_FLOOR / 2.0)
        lo = math.exp(-EPS_LOSS_FLOOR * 2.0)
        assert cross_entropy(np.array([hi, 1.0 - hi]), 0) == EPS_LOSS_FLOOR
        assert cross_entropy(np.array([lo, 1.0 - lo]), 0) > EPS_LOSS_FLOOR

    def test_always_at_least_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = softmax(rng.standard_normal(5) * 30)
            label = int(rng.integers(5))
            assert cross_entropy(p, label) >= EPS_LOSS_FLOOR

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), -1)

    def test_stack_scores_each_row_bitwise(self):
        rng = np.random.default_rng(5)
        P = softmax(rng.standard_normal((4, 7, 3)) * 10)
        P[0, 0] = [1.0, 0.0, 0.0]  # floored
        losses = cross_entropy(P, 0)
        assert losses.shape == (4, 7)
        for row, loss in zip(P.reshape(-1, 3), losses.ravel().tolist()):
            assert loss == cross_entropy(row, 0)
        with pytest.raises(IndexError):
            cross_entropy(P, 3)
        with pytest.raises(ShapeError):
            cross_entropy(np.float64(0.5), 0)


    def test_per_row_labels_score_each_row_bitwise(self):
        rng = np.random.default_rng(6)
        P = softmax(rng.standard_normal((2000, 5)) * 10)
        P[0] = [0.0, 1.0, 0.0, 0.0, 0.0]  # floored
        labels = rng.integers(5, size=2000)
        labels[0] = 1
        losses = cross_entropy(P, labels)
        assert losses.shape == (2000,)
        for row, y, loss in zip(P, labels.tolist(), losses.tolist()):
            assert loss == cross_entropy(row, y)
        assert cross_entropy(P[:0], labels[:0]).shape == (0,)

    @pytest.mark.parametrize("shape", [(2, 4), (480, 4), (2, 480, 4), (32, 30, 4)])
    def test_label_array_equals_the_one_label_path_row_by_row(self, shape):
        # the (B, T) labels of a batch against one label per element, and
        # against one label per row: the stacked call with that row's label
        rng = np.random.default_rng(len(shape) * 1000 + shape[0])
        P = softmax(rng.standard_normal(shape) * 6)
        labels = rng.integers(shape[-1], size=shape[:-1])
        losses = cross_entropy(P, labels)
        assert losses.shape == shape[:-1]
        for idx in np.ndindex(shape[:-1]):
            assert losses[idx] == cross_entropy(P[idx], int(labels[idx]))
        rows = np.broadcast_to(labels[..., :1], labels.shape).copy()  # one label per row
        per_row = cross_entropy(P, rows)
        for b in range(shape[0]):
            assert np.array_equal(per_row[b], cross_entropy(P[b], int(rows[b].flat[0])))

    def test_per_row_label_out_of_range_or_misshapen(self):
        P = np.full((3, 2), 0.5)
        for bad in (2, -1):
            with pytest.raises(IndexError, match=f"label {bad} out of range for 2 classes"):
                cross_entropy(P, np.array([0, bad, 1]))
        with pytest.raises(ShapeError):
            cross_entropy(P, np.array([0, 1]))

class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff(lambda t: float(t @ t), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_is_zero(self):
        g = finite_diff(lambda t: 7.25, np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(g, np.zeros(3))

    def test_softmax_ce_at_origin(self):
        g = finite_diff(lambda t: cross_entropy(softmax(t), 0), np.zeros(2))
        assert np.allclose(g, [-0.5, 0.5], atol=1e-6)

    def test_linear_function_is_exact_to_roundoff(self):
        # Central differences have no truncation error on a linear function
        # plus a constant, so the harness's own noise floor is tiny.
        rng = np.random.default_rng(5)
        a = rng.standard_normal(6)
        theta = rng.standard_normal(6)
        g = finite_diff(lambda t: float(a @ t) + 2.0, theta)
        assert np.max(np.abs(g - a)) < 1e-8

    def test_matches_softmax_ce_gradient_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.standard_normal(5)
            label = int(rng.integers(5))
            analytic = softmax(z).copy()
            analytic[label] -= 1.0
            fd = finite_diff(lambda t: cross_entropy(softmax(t), label), z)
            denom = np.maximum(np.abs(analytic), 1e-6)
            assert np.max(np.abs(fd - analytic) / denom) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff(lambda t: 0.0, np.zeros(2), h=0.0)

    def test_rejects_a_non_vector(self):
        with pytest.raises(ShapeError, match=r"1-D vector, got shape \(2, 2\)"):
            finite_diff(lambda t: 0.0, np.zeros((2, 2)))
