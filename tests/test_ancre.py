import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restopo.ancre import (HEATMAP_SENTINEL, AncreParams, candidate_pairs,
                           coeff_gradients, heatmap, heatmap_csv, normalize,
                           normalization_groups)


def make_params(K, values=None, mode="ingoing", tau=0.1):
    c = {pair: 0.0 for pair in candidate_pairs(K)}
    if values:
        c.update(values)
    return AncreParams(K=K, c=c, mode=mode, temperature=tau)


class TestParams:
    def test_candidate_count(self):
        for K in range(1, 7):
            assert len(candidate_pairs(K)) == K * (K + 1) // 2

    def test_rejects_missing_pair(self):
        c = {pair: 0.0 for pair in candidate_pairs(3)}
        del c[(0, 2)]
        with pytest.raises(ValueError, match=r"missing=\[\(0, 2\)\]"):
            AncreParams(K=3, c=c)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            make_params(2, tau=0.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            make_params(2, mode="sideways")


class TestNormalize:
    def test_uniform_thirds(self):
        p = normalize(make_params(3))
        for i in range(3):
            assert p[(i, 3)] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_hand_evaluated_softmax(self):
        tau = 0.37
        p = normalize(make_params(2, {(0, 2): 0.0, (1, 2): tau * math.log(2.0)}, tau=tau))
        assert p[(0, 2)] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert p[(1, 2)] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_temperature_limit(self):
        p = normalize(make_params(3, {(0, 3): 0.3, (1, 3): 0.1, (2, 3): -0.2}, tau=1e-6))
        assert p[(0, 3)] == pytest.approx(1.0, abs=1e-9)
        assert p[(1, 3)] == pytest.approx(0.0, abs=1e-9)

    def test_outgoing_groups_sum_per_source(self):
        params = make_params(3, {(0, 1): 1.0, (0, 2): -2.0}, mode="outgoing")
        p = normalize(params)
        for i in range(3):
            total = sum(p[(i, j)] for j in range(i + 1, 4))
            assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 5),
           mode=st.sampled_from(["ingoing", "outgoing"]),
           tau=st.floats(1e-6, 1e3),
           seed=st.integers(0, 10**6))
    def test_groups_sum_to_one_and_shift_invariance(self, K, mode, tau, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        values = {pair: float(rng.uniform(-5, 5)) for pair in candidate_pairs(K)}
        params = make_params(K, values, mode=mode, tau=tau)
        p = normalize(params)
        # strictly inside (0, 1) mathematically; at extreme temperature the
        # losing entries underflow to exactly 0.0 in float64
        assert np.all((p >= 0.0) & (p <= 1.0))
        for group in normalization_groups(params):
            assert sum(p[g] for g in group) == pytest.approx(1.0, abs=1e-12)
        # adding a constant within one group leaves p unchanged
        shift_group = normalization_groups(params)[0]
        shifted = dict(values)
        for g in shift_group:
            shifted[g] += 3.7
        p2 = normalize(make_params(K, shifted, mode=mode, tau=tau))
        for g in shift_group:
            assert p2[g] == pytest.approx(p[g], abs=1e-12)

    def test_argmax_preserved(self):
        rng = np.random.Generator(np.random.Philox(5))
        values = {pair: float(rng.uniform(-2, 2)) for pair in candidate_pairs(4)}
        params = make_params(4, values, tau=0.5)
        p = normalize(params)
        for group in normalization_groups(params):
            by_c = max(group, key=lambda g: (params.c[g], -g[0]))
            by_p = max(group, key=lambda g: (p[g], -g[0]))
            assert by_c == by_p

    def test_entropy_monotone_in_temperature(self):
        rng = np.random.Generator(np.random.Philox(77))
        values = {pair: float(rng.uniform(-1, 1)) for pair in candidate_pairs(4)}
        entropies = []
        for tau in (1.0, 0.1, 0.01):
            p = normalize(make_params(4, values, tau=tau))
            group = [(i, 4) for i in range(4)]
            probs = np.array([p[g] for g in group])
            entropies.append(float(-(probs * np.log(probs)).sum()))
        assert entropies[0] >= entropies[1] >= entropies[2] - 1e-12

    def test_extreme_coefficients_do_not_overflow(self):
        p = normalize(make_params(2, {(0, 2): 5e4, (1, 2): -5e4}, tau=1e-3))
        assert np.isfinite(p).all()


class TestCoeffGradients:
    def test_matches_dense_jacobian(self):
        rng = np.random.Generator(np.random.Philox(11))
        values = {pair: float(rng.uniform(-1, 1)) for pair in candidate_pairs(3)}
        params = make_params(3, values, tau=0.3)
        p = normalize(params)
        q = np.zeros((4, 4))
        for pair in candidate_pairs(3):
            q[pair] = rng.uniform(-2, 2)
        got = coeff_gradients(params, p, q)
        for group in normalization_groups(params):
            pv = np.array([p[g] for g in group])
            jac = (np.diag(pv) - np.outer(pv, pv)) / params.temperature
            qv = np.array([q[g] for g in group])
            want = jac @ qv
            np.testing.assert_allclose([got[g] for g in group], want, atol=1e-14)

    def test_singleton_group_has_zero_gradient(self):
        params = make_params(1)
        p = normalize(params)
        grads = coeff_gradients(params, p, np.array([[0.0, 123.0], [0.0, 0.0]]))
        assert grads[(0, 1)] == 0.0


class TestHeatmap:
    def test_uniform_rows_are_all_zero(self):
        m = heatmap(make_params(3))
        for j in range(1, 4):
            np.testing.assert_allclose(m[j, :j], 0.0, atol=1e-12)

    def test_sentinel_cells(self):
        m = heatmap(make_params(3))
        assert m.shape == (4, 4)
        np.testing.assert_array_equal(m[0, :], HEATMAP_SENTINEL)
        for j in range(4):
            np.testing.assert_array_equal(m[j, j:], HEATMAP_SENTINEL)

    def test_dominant_entry_is_zero_others_negative(self):
        m = heatmap(make_params(3, {(1, 3): 10.0}, tau=1.0))
        assert m[3, 1] == 0.0
        assert m[3, 0] < 0.0 and m[3, 2] < 0.0

    def test_rejects_outgoing(self):
        with pytest.raises(ValueError, match="ingoing"):
            heatmap(make_params(2, mode="outgoing"))

    def test_csv_format(self):
        text = heatmap_csv(heatmap(make_params(2)))
        lines = text.splitlines()
        assert lines[0] == "j\\i,0,1,2"
        assert lines[1] == "0,-99,-99,-99"
        assert lines[2].startswith("1,0,-99")
        assert text.endswith("\n")
