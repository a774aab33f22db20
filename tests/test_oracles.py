import math
from types import SimpleNamespace

import numpy as np
import pytest

from restopo.dynamics import RecordOptions, integrate_gf
from restopo.network import Topology, TrainState, forward
from restopo import oracles
from restopo.oracles import (DiagState, delta_threshold, diag_integrate, fd_gradient,
                             lb_witness_init, lower_bound_curve, pack_state, ub_witness_init,
                             upper_bound_curve)
from restopo.tensor import make_rng


def reference_diag_integrate(s0, dt, t_end, method, record_every):
    """The decoupled system as (3, d) numpy arrays, one step at a time:
    (times, records as (records, 3, d), diverged)."""
    def rhs(y):
        w, u, v = y
        r = w * u * v - sigma
        return np.stack([-u * v * r, -w * v * r, -w * u * r])

    sigma = np.asarray(s0.sigma, dtype=float)
    y = np.stack([np.asarray(s0.w, dtype=float), np.asarray(s0.u, dtype=float),
                  np.asarray(s0.v, dtype=float)])
    n_steps = int(round(t_end / dt))
    times, recs = [0.0], [y.copy()]
    for it in range(1, n_steps + 1):
        if method == "euler":
            y = y + dt * rhs(y)
        else:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            times.append(it * dt)
            recs.append(y.copy())
            return np.array(times), np.array(recs), True
        if it % record_every == 0 or it == n_steps:
            times.append(it * dt)
            recs.append(y.copy())
    return np.array(times), np.array(recs), False


def diverging_diag_state():
    """Three coordinates; the middle one overflows within a few steps, the
    others not."""
    return DiagState(w=np.array([0.5, 10.0, 0.2]), u=np.array([0.3, 10.0, 0.1]),
                     v=np.array([0.3, 10.0, 0.4]), sigma=np.array([1.0, 0.0, 0.5]))


def random_diag_state(d, seed):
    rng = make_rng(seed)
    return DiagState(w=rng.uniform(0.5, 1.0, d), u=rng.uniform(0.0, 0.5, d),
                     v=rng.uniform(0.0, 0.5, d), sigma=rng.uniform(0.0, 1.5, d))


class TestDiagIntegrate:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("case", ["lb_witness", "coarse_steps", "diverging"])
    def test_matches_vectorized_reference(self, method, case):
        dt, t_end, every = 1e-3, 2.0, 7
        if case == "lb_witness":
            _, s0 = lb_witness_init(d=4, rank_A=2, seed=3)
        elif case == "coarse_steps":
            # increments large enough that a change in the order of the RK4
            # sum shows in the last bit of the state
            s0, dt, t_end = random_diag_state(5, seed=4), 0.02, 5.0
        else:
            s0, dt, every = diverging_diag_state(), 0.05, 3
        times, recs, diverged = reference_diag_integrate(s0, dt, t_end, method, every)
        traj = diag_integrate(s0, dt, t_end, method, every)
        assert traj.diverged == diverged == (case == "diverging")
        np.testing.assert_array_equal(traj.times, times)
        for k, name in enumerate(("w", "u", "v")):
            np.testing.assert_array_equal(getattr(traj, name), recs[:, k])
        if diverged:
            assert not np.all(np.isfinite(recs[-1]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_divergence_ends_the_work(self, monkeypatch, method):
        # a million-step budget; the run must stop at the first divergence,
        # not step the coordinates that stay finite through their budget
        checks = []

        def isfinite(x):
            checks.append(x)
            return math.isfinite(x)

        monkeypatch.setattr(oracles, "math", SimpleNamespace(isfinite=isfinite))
        dt = 0.05
        traj = diag_integrate(diverging_diag_state(), dt, 1e6 * dt, method, record_every=3)
        last = round(traj.times[-1] / dt)
        assert traj.diverged and last < 20
        assert len(checks) <= 3 * 3 * last

    def test_stationary_when_target_met(self):
        s0 = DiagState(w=np.array([0.8]), u=np.array([0.5]), v=np.array([0.5]),
                       sigma=np.array([0.8 * 0.5 * 0.5]))
        traj = diag_integrate(s0, dt=1e-3, t_end=1.0)
        np.testing.assert_allclose(traj.w, 0.8, atol=1e-14)
        np.testing.assert_allclose(traj.u, 0.5, atol=1e-14)

    def test_symmetry_u_equals_v(self):
        s0 = DiagState(w=np.array([0.9, 0.7]), u=np.array([0.3, 0.2]),
                       v=np.array([0.3, 0.2]), sigma=np.array([1.0, 0.0]))
        traj = diag_integrate(s0, dt=1e-3, t_end=10.0)
        assert np.max(np.abs(traj.u - traj.v)) < 1e-10

    def test_full_matrix_euler_matches_diag_euler(self):
        # method-matched cross-integrator check: the full-matrix flow on a
        # diagonal instance is the decoupled system in different clothing
        state, diag0 = lb_witness_init(d=4, rank_A=2, seed=5)
        dt, t_end = 1e-3, 5.0
        traj, _ = integrate_gf(state, dt=dt, t_end=t_end, method="euler",
                               options=RecordOptions(record_every=10, diagonals=True))
        oracle = diag_integrate(diag0, dt=dt, t_end=t_end, method="euler",
                                record_every=10)
        np.testing.assert_allclose(traj.diagonals[:, 0, :] + 1.0, oracle.w, atol=1e-12)
        np.testing.assert_allclose(traj.diagonals[:, 1, :], oracle.u, atol=1e-12)

    def test_full_matrix_rk4_matches_diag_rk4(self):
        state, diag0 = lb_witness_init(d=4, rank_A=2, seed=6)
        dt, t_end = 1e-3, 5.0
        traj, _ = integrate_gf(state, dt=dt, t_end=t_end, method="rk4",
                               options=RecordOptions(record_every=10, diagonals=True))
        oracle = diag_integrate(diag0, dt=dt, t_end=t_end, method="rk4",
                                record_every=10)
        np.testing.assert_allclose(traj.diagonals[:, 0, :] + 1.0, oracle.w, atol=1e-10)
        np.testing.assert_allclose(traj.diagonals[:, 2, :], oracle.v, atol=1e-10)

    def test_rejects_bad_dt(self):
        s0 = DiagState(w=np.ones(1), u=np.ones(1), v=np.ones(1), sigma=np.ones(1))
        with pytest.raises(ValueError):
            diag_integrate(s0, dt=0.0, t_end=1.0)


class TestBoundCurves:
    def test_lower_bound_at_zero(self):
        assert lower_bound_curve(0.1, 0.0) == pytest.approx(0.005)

    def test_lower_bound_formula_point(self):
        assert lower_bound_curve(0.1, 10.0) == pytest.approx(3.125e-4)

    def test_lower_bound_quarter_scaling(self):
        # the 1/t^2 tail: doubling t quarters the bound
        for t in (50.0, 200.0, 1000.0):
            ratio = lower_bound_curve(5.0, 2 * t) / lower_bound_curve(5.0, t)
            assert ratio == pytest.approx(0.25, rel=1e-2)

    def test_lower_bound_rejects_bad_a0(self):
        with pytest.raises(ValueError):
            lower_bound_curve(0.0, 1.0)

    def test_upper_bound_at_zero(self):
        assert upper_bound_curve(3.0, 0.5, 0.0) == pytest.approx(3.0)

    def test_upper_bound_half_lambda_points(self):
        assert upper_bound_curve(1.0, 0.5, 1.0) == pytest.approx(np.exp(-0.5))
        assert upper_bound_curve(1.0, 0.5, 10.0) == pytest.approx(np.exp(-5.0))

    def test_upper_bound_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                upper_bound_curve(1.0, lam, 1.0)


class TestDeltaThreshold:
    def test_worked_example(self):
        thr = delta_threshold(0.5, 0.125)
        assert thr.proof == pytest.approx(0.01933, abs=2e-5)
        assert thr.used == thr.proof  # proof variant is the smaller one here

    def test_vanishing_initial_loss_limit(self):
        thr = delta_threshold(0.3, 0.0)
        assert thr.statement == pytest.approx(np.sqrt(0.15))
        assert thr.proof == pytest.approx(np.sqrt(0.15))

    def test_used_is_min(self):
        for lam, L0 in ((0.2, 0.5), (0.8, 0.01), (0.5, 2.0)):
            thr = delta_threshold(lam, L0)
            assert thr.used <= thr.statement and thr.used <= thr.proof


class TestFdGradient:
    def test_quadratic(self):
        grad = fd_gradient(lambda p: 0.5 * float(p @ p), np.array([3.0, -1.0]))
        np.testing.assert_allclose(grad, [3.0, -1.0], atol=1e-9)

    def test_constant(self):
        grad = fd_gradient(lambda p: 1.0, np.array([0.3, 0.7, -2.0]))
        np.testing.assert_array_equal(grad, 0.0)

    def test_flags_nonfinite_coordinates(self):
        def evaluate(p):
            return float("nan") if p[0] > 0.05 else float(p @ p)
        with pytest.warns(RuntimeWarning):
            grad = fd_gradient(evaluate, np.array([0.0, 1.0]), eps=0.1)
        assert np.isnan(grad[0])

    def test_backward_agrees_on_0_2_network(self):
        rng = make_rng(77)
        d = 4
        weights = [rng.standard_normal((d, d)) * 0.4 for _ in range(3)]
        state = TrainState(weights=weights, X=np.eye(d),
                           Y=rng.standard_normal((d, d)),
                           topology=Topology.single(0, 2, 3))
        vec, evaluate, analytic = pack_state(state)
        fd = fd_gradient(evaluate, vec)
        an = analytic(vec)
        rel = np.abs(an - fd) / (np.abs(an) + np.abs(fd) + 1e-12)
        assert rel.max() <= 1e-6


class TestLbWitness:
    def test_witness_coordinate_ranges(self):
        for seed in range(5):
            state, diag0 = lb_witness_init(d=4, rank_A=3, seed=seed)
            assert 0.5 <= diag0.w[-1] <= 1.0
            assert 0.0 < diag0.u[-1] <= 0.5
            assert diag0.u[-1] == diag0.v[-1]
            assert diag0.a[-1] > 0.0
            assert diag0.sigma[-1] == 0.0

    def test_forward_is_exactly_diagonal(self):
        state, _ = lb_witness_init(d=4, rank_A=2, seed=3)
        out = forward(state)
        off = out - np.diag(np.diag(out))
        np.testing.assert_array_equal(off, 0.0)

    def test_rejects_full_rank(self):
        with pytest.raises(ValueError):
            lb_witness_init(d=4, rank_A=4, seed=0)


class TestUbWitness:
    def test_delta_compliance_and_self_consistency(self):
        state, thr, L0, halvings = ub_witness_init(d=4, lam=0.5, seed=11)
        assert max(np.linalg.norm(w) for w in state.weights) <= thr.used
        assert L0 > 0 and halvings >= 0
        # L0 is the loss of the returned state
        r = forward(state) - state.Y
        assert 0.5 * float(np.vdot(r, r)) == pytest.approx(L0, rel=1e-12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            ub_witness_init(d=4, lam=1.5, seed=0)
