import dataclasses

import numpy as np
import pytest

from restopo import dynamics, network
from restopo.ancre import AncreParams
from restopo.dynamics import (RecordOptions, Trajectory, balance_drift, classify_rate,
                              integrate_gf, run_gd, train_batch)
from restopo.network import Topology, TrainState, forward, loss_and_gradients
from restopo.oracles import ub_witness_init
from restopo.tensor import make_rng, random_orthogonal_data


def scalar_state(w0=0.0, x=1.0, y=1.0):
    return TrainState(weights=[np.array([[w0]])], X=np.array([[x]]),
                      Y=np.array([[y]]), topology=Topology.none(1))


def small_state(seed=0, K=3, d=4, topology=None):
    rng = make_rng(seed)
    weights = [rng.standard_normal((d, d)) * 0.2 for _ in range(K)]
    X = random_orthogonal_data(d, d + 2, seed + 1)
    Y = rng.standard_normal((d, d)) @ X  # realizable target
    return TrainState(weights=weights, X=X, Y=Y,
                      topology=topology or Topology.single(0, 2, K))


def synthetic_trajectory(times, losses, diverged=False):
    times = np.asarray(times, dtype=float)
    losses = np.asarray(losses, dtype=float)
    return Trajectory(times=times, iters=np.arange(len(times)), losses=losses,
                      weight_fro_norms=np.zeros((len(times), 1)),
                      stop_reason="loss_blowup" if diverged else "budget")


def one_step(state, lr, lr_c=None):
    """One gradient-descent step through run_gd; returns the final state."""
    return run_gd(state, lr, 1, lr_c)[1]


class TestGdStep:
    def test_zero_gradient_is_fixed_point(self):
        st = small_state()
        fitted = TrainState(weights=st.weights, X=st.X, Y=forward(st), topology=st.topology)
        nxt = one_step(fitted, lr=0.1)
        for a, b in zip(nxt.weights, fitted.weights):
            np.testing.assert_array_equal(a, b)

    def test_scalar_hand_iteration(self):
        # w <- w - lr * (w x - y) x at (x, y, w0, lr) = (1, 1, 0, 0.5) gives 0.5
        nxt = one_step(scalar_state(), lr=0.5)
        assert nxt.weights[0][0, 0] == pytest.approx(0.5)

    def test_descent_for_small_enough_lr(self):
        st = small_state(seed=3)
        base = loss_and_gradients(st)[0]
        lr = 0.25
        for _ in range(20):
            if loss_and_gradients(one_step(st, lr))[0] < base:
                break
            lr *= 0.5
        else:
            pytest.fail("no learning rate in the sweep decreased the loss")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_gradient_freezes_state(self):
        st = TrainState(weights=[np.full((1, 1), 1e200), np.full((1, 1), 1e200)],
                        X=np.array([[1.0]]), Y=np.array([[0.0]]),
                        topology=Topology.none(2))
        traj, nxt = run_gd(st, lr=0.1, iters=1)
        assert traj.diverged
        for a, b in zip(nxt.weights, st.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_finite_gradient_whose_squares_overflow_keeps_running(self):
        # dL/dW2 = r h1 = ~1e3 * 1e200 is finite, but its square is not: the
        # step is taken, and the next loss blows up
        st = TrainState(weights=[np.full((1, 1), 1e200), np.full((1, 1), 1e-197)],
                        X=np.array([[1.0]]), Y=np.array([[0.5]]),
                        topology=Topology.single(0, 2, 2))
        assert np.isfinite(loss_and_gradients(st)[1]).all()
        traj, _ = run_gd(st, lr=0.1, iters=3)
        assert traj.stop_reason == "loss_blowup"
        assert traj.steps == 1

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            one_step(scalar_state(), lr=0.0)

    def test_coefficient_update_uses_lr_c(self):
        st = TrainState(weights=[np.eye(2) * 0.3, np.eye(2) * 0.3],
                        X=np.eye(2), Y=np.ones((2, 2)),
                        ancre=AncreParams.uniform(2))
        a = one_step(st, lr=1e-3, lr_c=0.0)
        assert np.all(a.ancre.c == 0.0)
        b = one_step(st, lr=1e-3, lr_c=1e-1)
        assert np.any(b.ancre.c != 0.0)


def ancre_state(seed=0, K=3, d=4):
    st = small_state(seed=seed, K=K, d=d)
    return TrainState(weights=st.weights, X=st.X, Y=st.Y,
                      ancre=AncreParams.uniform(K, mode="outgoing", temperature=0.3))


def textbook_step(state, method, step, step_c):
    """One update of `method` from fresh loss_and_gradients calls, written
    as the textbook formula: (weights, raw coefficients or None)."""
    c0 = None if state.ancre is None else state.ancre.c

    def grad(w, c):
        _, gw, gc = loss_and_gradients(state, w, c)
        return gw, gc

    def shifted(c, h, g):
        return None if c is None else c - h * g

    k1w, k1c = grad(state.weights, c0)
    if method != "rk4":
        return state.weights - step * k1w, shifted(c0, step_c, k1c)
    k2w, k2c = grad(state.weights - 0.5 * step * k1w, shifted(c0, 0.5 * step, k1c))
    k3w, k3c = grad(state.weights - 0.5 * step * k2w, shifted(c0, 0.5 * step, k2c))
    k4w, k4c = grad(state.weights - step * k3w, shifted(c0, step, k3c))
    w = state.weights - (step / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
    c = None if c0 is None else c0 - (step / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
    return w, c


class TestTextbookUpdate:
    """One driver step equals its textbook formula, bit for bit."""

    @pytest.mark.parametrize("method", ["gd", "euler", "rk4"])
    @pytest.mark.parametrize("make", [small_state, ancre_state], ids=["fixed", "learned"])
    def test_solo_step(self, method, make):
        st = make(seed=12)
        step, step_c = 0.05, (0.2 if method == "gd" else 0.05)
        if method == "gd":
            _, final = run_gd(st, step, 1, step_c)
        else:
            _, final = integrate_gf(st, step, step, method)
        w, c = textbook_step(st, method, step, step_c)
        np.testing.assert_array_equal(final.weights, w)
        if c is not None:
            assert np.any(c != st.ancre.c)
            np.testing.assert_array_equal(final.ancre.c, c)

    @pytest.mark.parametrize("method", ["gd", "euler", "rk4"])
    def test_batch_step(self, method):
        base = small_state(seed=13)
        states = [TrainState(weights=small_state(seed=s).weights, X=base.X, Y=base.Y,
                             topology=t)
                  for s, t in enumerate((Topology.single(0, 2, 3), Topology.cascaded(3),
                                         Topology.single(1, 3, 3)))]
        batch = train_batch(states, method, 0.05, 1)
        for st, (_, final) in zip(states, batch):
            np.testing.assert_array_equal(final.weights, textbook_step(st, method, 0.05,
                                                                      0.05)[0])


class TestRecordOptions:
    @pytest.mark.parametrize("bad,match", [
        (dict(record_every=0), "record_every"),
        (dict(record_every=-2), "record_every"),
        (dict(record_every=2.5), "record_every"),
        (dict(record_every=True), "record_every"),
        (dict(stop_below=float("nan")), "stop_below"),  # no loss is <= nan: never stops
        (dict(stop_below=float("inf")), "stop_below"),
        (dict(stop_below="1e-6"), "stop_below"),
        (dict(stop_below=True), "stop_below"),
    ])
    def test_bad_option_rejected_at_construction(self, bad, match):
        with pytest.raises(ValueError, match=match):
            RecordOptions(**bad)

    def test_good_options_accepted(self):
        for good in (dict(), dict(record_every=1, stop_below=0), dict(stop_below=1e-26),
                     dict(stop_below=None, weights=True)):
            RecordOptions(**good)


class TestRunGd:
    def test_matches_repeated_gd_step(self):
        # three runs of one step equal one run of three, bit for bit, for a
        # fixed layout and for learned coefficients
        for st in (small_state(seed=5), ancre_state(seed=5)):
            traj, final = run_gd(st, lr=0.05, iters=3, lr_c=0.2,
                                 options=RecordOptions(record_every=1))
            manual = st
            for _ in range(3):
                manual = one_step(manual, lr=0.05, lr_c=0.2)
            for a, b in zip(final.weights, manual.weights):
                np.testing.assert_array_equal(a, b)
            if st.ancre is not None:
                assert np.any(final.ancre.c != 0.0)
                np.testing.assert_array_equal(final.ancre.c, manual.ancre.c)
            assert len(traj) == 4

    def test_zero_iters_single_point(self):
        traj, _ = run_gd(small_state(), lr=0.1, iters=0)
        assert len(traj) == 1
        assert classify_rate(traj).kind == "stalled"

    def test_divergence_flagged_and_stopped(self):
        traj, _ = run_gd(small_state(seed=6), lr=1e4, iters=1000)
        assert traj.diverged
        assert classify_rate(traj).kind == "diverged"
        assert len(traj) < 1000

    def test_stop_below_floor(self):
        st = small_state(seed=7)
        traj, _ = run_gd(st, lr=0.05, iters=50000,
                         options=RecordOptions(stop_below=1e-10))
        assert traj.losses[-1] <= 1e-10
        assert traj.iters[-1] < 50000

    def test_determinism_bitwise(self):
        a, _ = run_gd(small_state(seed=8), lr=0.03, iters=500,
                      options=RecordOptions(weights=True))
        b, _ = run_gd(small_state(seed=8), lr=0.03, iters=500,
                      options=RecordOptions(weights=True))
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.weight_fro_norms, b.weight_fro_norms)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_times_strictly_increasing(self):
        traj, _ = run_gd(small_state(seed=9), lr=0.05, iters=200)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(traj.losses >= 0)

    def test_a_gradient_stop_between_records_is_recorded(self, monkeypatch):
        # the third evaluation, at step 2, returns an inf gradient: the run
        # stops there, off the stride of 5, and records that step
        losses, real = [], dynamics.loss_and_gradients

        def third_gradient_inf(*args):
            value, wgrads, cgrads = real(*args)
            losses.append(value)
            return value, np.full_like(wgrads, np.inf) if len(losses) == 3 else wgrads, cgrads

        monkeypatch.setattr(dynamics, "loss_and_gradients", third_gradient_inf)
        traj, final = run_gd(batch_member(0.1, 0.1, Topology.cascaded(2)), 0.1, 10,
                             options=RecordOptions(record_every=5))
        assert traj.stop_reason == "nonfinite_grad" and traj.diverged
        assert traj.steps == 2 and traj.iters.tolist() == [0, 2]
        assert traj.losses[-1] == losses[2] == loss_and_gradients(final)[0]

    def test_a_learned_run_normalizes_once_per_evaluation(self, monkeypatch):
        # 5 steps make 6 evaluations, the budget step's included; building
        # the workspace reads the layout's structure without a softmax.  In
        # a batch, one softmax of the stacked learned rows serves each
        # stacked evaluation.
        calls, real = [], network.normalize
        monkeypatch.setattr(network, "normalize", lambda *a: calls.append(a) or real(*a))
        run_gd(ancre_state(), 0.05, 5)
        assert len(calls) == 6
        evals, real_eval = [], dynamics.loss_and_gradients
        monkeypatch.setattr(dynamics, "loss_and_gradients",
                            lambda *a: evals.append(a) or real_eval(*a))
        calls.clear()
        learned = [ancre_state(seed=s) for s in (1, 2)]
        fixed = [dataclasses.replace(learned[0], ancre=None, topology=Topology.cascaded(3)),
                 dataclasses.replace(learned[0], ancre=None, topology=Topology.none(3))]
        learned[1] = dataclasses.replace(learned[1], X=learned[0].X, Y=learned[0].Y)
        train_batch([learned[0], *fixed, learned[1]], "gd", 0.05, 5)
        assert len(evals) == 6 and len(calls) == 6
        assert all(c.shape == (2, 4, 4) for _, c, *_ in calls)

    @pytest.mark.parametrize("bad,match", [
        (dict(lr_c=-1.0), "lr_c"),           # would ascend on the coefficients
        (dict(lr_c=float("nan")), "lr_c"),
        (dict(iters=2.5), "iters"),
        (dict(iters=True), "iters"),
        (dict(lr=float("inf")), "lr"),
    ], ids=["negative_lr_c", "nan_lr_c", "float_iters", "bool_iters", "infinite_lr"])
    def test_rejects_bad_arguments_before_the_first_step(self, bad, match):
        with pytest.raises(ValueError, match=match):
            run_gd(ancre_state(), **(dict(lr=0.05, iters=3) | bad))


def batch_member(w1, w2, topology, X=np.array([[1.0]])):
    return TrainState(weights=[np.full((1, 1), w1), np.full((1, 1), w2)], X=X,
                      Y=np.array([[0.5]]), topology=topology)


def learned_member(w1, w2, mode, trunk=True):
    ancre = AncreParams(K=2, c={(0, 1): 0.0, (0, 2): 0.3, (1, 2): -0.2}, mode=mode,
                        temperature=0.5)
    return TrainState(weights=[np.full((1, 1), w1), np.full((1, 1), w2)],
                      X=np.array([[1.0]]), Y=np.array([[0.5]]), ancre=ancre, trunk=trunk)


class TestTrainBatch:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["gd", "euler", "rk4"])
    def test_members_match_solo_runs(self, method):
        for mode in ("ingoing", "outgoing"):
            self._members_match_solo_runs(method, mode)

    def _members_match_solo_runs(self, method, mode):
        # the learned members of one batch share a recipe, so each mode
        # trains in a batch of its own; the caller's order puts a learned
        # member first, and the stack's learned rows are its last
        members = {
            "learned_budget": learned_member(0.1, 0.2, mode),
            "budget": batch_member(0.1, 0.1, Topology.cascaded(2)),
            "loss_blowup": batch_member(30.0, 30.0, Topology.none(2)),
            "floor": batch_member(0.0, 0.5, Topology.single(0, 1, 2)),
            # the non-finite recipe of test_nonfinite_gradient_freezes_state:
            # its output overflows, so the loss is not finite
            "overflow": batch_member(1e200, 1e200, Topology.none(2)),
            # a loss of 5e7 whose dL/dW2 = r h1 = 1e4 * 1e305 overflows
            "nonfinite_grad": batch_member(1e305, 1e-301, Topology.single(0, 2, 2)),
            # a finite dL/dW2 = ~1e3 * 1e200 whose square overflows: it takes
            # its step, and its loss blows up at the next
            "squares_overflow": batch_member(1e200, 1e-197, Topology.single(0, 2, 2)),
            # a loss of 4.4e5 whose step takes it past the blow-up threshold
            "learned_blowup": learned_member(30.0, 30.0, mode),
        }
        blowups = {"overflow", "squares_overflow", "learned_blowup"}
        options = RecordOptions(record_every=3, stop_below=1e-12)
        step, n_steps = 0.1, 20
        batch = train_batch(list(members.values()), method, step, n_steps, options=options)
        for (kind, st), (traj, final) in zip(members.items(), batch):
            if method == "gd":
                solo, solo_final = run_gd(st, step, n_steps, options=options)
            else:
                solo, solo_final = integrate_gf(st, step, step * n_steps, method, options)
            assert traj.stop_reason == ("loss_blowup" if kind in blowups
                                        else kind.removeprefix("learned_"))
            assert traj.stop_reason == solo.stop_reason
            assert traj.steps == solo.steps
            assert traj.diverged == solo.diverged
            np.testing.assert_array_equal(traj.iters, solo.iters)
            np.testing.assert_array_equal(traj.losses, solo.losses)
            np.testing.assert_array_equal(traj.weight_fro_norms, solo.weight_fro_norms)
            for a, b in zip(final.weights, solo_final.weights):
                np.testing.assert_array_equal(a, b)
            if st.ancre is not None:
                assert final.ancre.mode == mode
                np.testing.assert_array_equal(final.ancre.c, solo_final.ancre.c)
                assert np.any(final.ancre.c != st.ancre.c)
        assert batch[0][0].steps == n_steps and batch[0][0].iters[-1] == n_steps
        assert batch[-1][0].steps < n_steps

        other_X = batch_member(0.1, 0.1, Topology.none(2), X=np.array([[2.0]]))
        deeper = TrainState(weights=[np.eye(1)] * 3, X=np.array([[1.0]]),
                            Y=np.array([[0.5]]), topology=Topology.none(3))
        for stranger in (other_X, deeper):
            with pytest.raises(ValueError):
                train_batch([members["budget"], stranger], method, step, n_steps)

    def test_a_nonfinite_coefficient_gradient_stops_its_own_member(self, monkeypatch):
        # the third evaluation returns an inf coefficient gradient for the
        # second learned row, the batch's last member: it alone stops there
        evals, real = [], dynamics.loss_and_gradients

        def last_row_inf(*args):
            value, wgrads, cgrads = real(*args)
            evals.append(value)
            if len(evals) == 3:
                cgrads[-1, 0, 1] = np.inf
            return value, wgrads, cgrads

        members = [learned_member(0.1, 0.2, "ingoing"),
                   batch_member(0.1, 0.1, Topology.cascaded(2)),
                   learned_member(0.2, 0.1, "ingoing")]
        monkeypatch.setattr(dynamics, "loss_and_gradients", last_row_inf)
        batch = train_batch(members, "gd", 0.1, 6, options=RecordOptions(record_every=5))
        monkeypatch.setattr(dynamics, "loss_and_gradients", real)
        assert [traj.stop_reason for traj, _ in batch] == ["budget", "budget",
                                                            "nonfinite_grad"]
        assert batch[2][0].iters.tolist() == [0, 2]
        for st, (traj, final) in zip(members[:2], batch):
            solo, solo_final = run_gd(st, 0.1, 6, options=RecordOptions(record_every=5))
            np.testing.assert_array_equal(traj.losses, solo.losses)
            np.testing.assert_array_equal(final.weights, solo_final.weights)

    def test_rejects_members_that_cannot_share_a_stack(self):
        # a fixed layout keeps its trunk, so a trunk-off learned member
        # trains alone; learned members share one softmax recipe
        fixed = batch_member(0.1, 0.1, Topology.cascaded(2))
        with pytest.raises(ValueError, match="trunk"):
            train_batch([fixed, learned_member(0.1, 0.2, "ingoing", trunk=False)], "gd",
                        0.1, 3)
        with pytest.raises(ValueError, match="mode and temperature"):
            train_batch([fixed, learned_member(0.1, 0.2, "ingoing"),
                         learned_member(0.1, 0.2, "outgoing")], "gd", 0.1, 3)
        trunk_off = [learned_member(0.1, 0.2, "ingoing", trunk=False),
                     learned_member(0.3, 0.2, "ingoing", trunk=False)]
        for (traj, final), st in zip(train_batch(trunk_off, "gd", 0.1, 3), trunk_off):
            solo, solo_final = run_gd(st, 0.1, 3)
            np.testing.assert_array_equal(traj.losses, solo.losses)
            np.testing.assert_array_equal(final.ancre.c, solo_final.ancre.c)

    @pytest.mark.parametrize("bad,match", [
        (dict(lr_c=-1.0), "lr_c"),
        (dict(lr_c=float("nan")), "lr_c"),
        (dict(n_steps=2.5), "n_steps"),
        (dict(n_steps=True), "n_steps"),
        (dict(step=float("inf")), "step"),
        # gradient flow integrates every parameter at one rate
        (dict(method="euler", lr_c=0.0), "lr_c"),
        (dict(method="rk4", lr_c=0.0), "lr_c"),
    ], ids=["negative_lr_c", "nan_lr_c", "float_n_steps", "bool_n_steps", "infinite_step",
            "euler_lr_c", "rk4_lr_c"])
    def test_rejects_bad_arguments_before_the_first_step(self, bad, match):
        with pytest.raises(ValueError, match=match):
            train_batch([ancre_state()], **(dict(method="gd", step=0.05, n_steps=3) | bad))


class TestIntegrateGf:
    def test_t_end_zero_single_point(self):
        traj, _ = integrate_gf(small_state(), dt=1e-3, t_end=0.0)
        assert len(traj) == 1

    def test_scalar_ode_matches_scalar_oracle(self):
        # d=1, K=1: full-matrix Euler must agree with an independent scalar
        # Euler integration of dw/dt = -(w - sigma) to rounding error
        sigma, w0, dt, t_end = 0.8, 0.1, 1e-4, 2.0
        st = scalar_state(w0=w0, x=1.0, y=sigma)
        traj, final = integrate_gf(st, dt=dt, t_end=t_end, method="euler")
        w = w0
        for _ in range(int(round(t_end / dt))):
            w = w - dt * (w - sigma)
        assert final.weights[0][0, 0] == pytest.approx(w, abs=1e-12)
        # and the analytic solution sigma + (w0 - sigma) e^-t to Euler accuracy
        analytic = sigma + (w0 - sigma) * np.exp(-t_end)
        assert final.weights[0][0, 0] == pytest.approx(analytic, abs=2e-5)

    def test_rk4_euler_gap_shrinks_linearly_with_dt(self):
        state, _, _, _ = ub_witness_init(d=4, lam=0.5, seed=2)
        gaps = {}
        for dt in (2e-3, 1e-3, 5e-4):
            le, _ = integrate_gf(state.copy(), dt=dt, t_end=2.0, method="euler")
            lr4, _ = integrate_gf(state.copy(), dt=dt, t_end=2.0, method="rk4")
            gaps[dt] = abs(le.losses[-1] - lr4.losses[-1])
        assert 1.5 <= gaps[2e-3] / gaps[1e-3] <= 2.5
        assert 1.5 <= gaps[1e-3] / gaps[5e-4] <= 2.5

    def test_validates_steps(self):
        with pytest.raises(ValueError):
            integrate_gf(small_state(), dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            integrate_gf(small_state(), dt=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            integrate_gf(small_state(), dt=0.1, t_end=1.0, method="heun")
        for t_end in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_end"):
                integrate_gf(small_state(), dt=0.1, t_end=t_end)

    def test_mixing_coefficients_are_integrated(self):
        st = TrainState(weights=[np.eye(2) * 0.3, np.eye(2) * 0.3],
                        X=np.eye(2), Y=np.ones((2, 2)) * 0.5,
                        ancre=AncreParams.uniform(2))
        _, final = integrate_gf(st, dt=1e-2, t_end=1.0, method="rk4")
        assert np.any(final.ancre.c != 0.0)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_a_second_run_leaves_the_first_results_alone(self, method):
        st = ancre_state(seed=14)
        options = RecordOptions(record_every=1, weights=True)
        traj, final = integrate_gf(st, 0.01, 0.05, method, options)
        kept = [a.copy() for a in (traj.losses, traj.weight_fro_norms, traj.weights,
                                   final.weights, final.ancre.c)]
        initial = st.weights.copy()
        integrate_gf(st, 0.02, 0.1, method, options)
        integrate_gf(final, 0.01, 0.05, method, options)
        for a, b in zip((traj.losses, traj.weight_fro_norms, traj.weights,
                         final.weights, final.ancre.c), kept):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(st.weights, initial)
        assert np.any(final.weights != initial)


class TestClassifyRate:
    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 10.0, 400)
        v = classify_rate(synthetic_trajectory(t, np.exp(-2.0 * t)))
        assert v.kind == "linear"
        assert v.rate_or_power == pytest.approx(2.0, abs=1e-6)
        assert v.fit_quality >= 0.999999

    def test_synthetic_power_law(self):
        t = np.linspace(0.0, 1000.0, 2000)
        v = classify_rate(synthetic_trajectory(t, 1.0 / (1.0 + t) ** 2))
        assert v.kind == "sublinear"
        assert v.rate_or_power == pytest.approx(2.0, abs=0.05)
        assert v.fit_quality >= 0.999

    def test_constant_is_stalled(self):
        t = np.linspace(0.0, 5.0, 100)
        v = classify_rate(synthetic_trajectory(t, np.full_like(t, 0.25)))
        assert v.kind == "stalled"

    def test_diverged_flag_wins(self):
        t = np.linspace(0.0, 5.0, 100)
        v = classify_rate(synthetic_trajectory(t, np.exp(-t), diverged=True))
        assert v.kind == "diverged"

    def test_exact_zeros_clamped_and_noted(self):
        t = np.linspace(0.0, 10.0, 200)
        losses = np.exp(-8.0 * t)
        losses[-5:] = 0.0
        v = classify_rate(synthetic_trajectory(t, losses))
        assert "clamped" in v.note

    def test_too_short_decaying_window_raises(self):
        t = np.linspace(0.0, 1.0, 15)
        with pytest.raises(ValueError, match="need >= 20"):
            classify_rate(synthetic_trajectory(t, np.exp(-t)), tail_fraction=1.0)

    def test_rejects_bad_tail_fraction(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError):
            classify_rate(synthetic_trajectory(t, np.exp(-t)), tail_fraction=0.0)


class TestBalanceDrift:
    def test_missing_channel_rejected(self):
        traj, _ = run_gd(small_state(), lr=0.01, iters=10)
        with pytest.raises(ValueError, match="weights"):
            balance_drift(traj)

    def test_frozen_run_has_zero_drift(self):
        traj, _ = run_gd(small_state(), lr=0.01, iters=0,
                         options=RecordOptions(weights=True))
        assert balance_drift(traj) == 0.0

    def test_drift_halves_with_dt(self):
        state, _, _, _ = ub_witness_init(d=4, lam=0.5, seed=3)
        drifts = {}
        for dt in (2e-3, 1e-3):
            traj, _ = integrate_gf(state.copy(), dt=dt, t_end=5.0, method="euler",
                                   options=RecordOptions(record_every=10, weights=True))
            drifts[dt] = balance_drift(traj)
        assert 1.6 <= drifts[2e-3] / drifts[1e-3] <= 2.4


class TestTrajectoryCsv:
    def test_columns_and_formatting(self):
        st = small_state(seed=11)
        traj, _ = run_gd(st, lr=0.01, iters=20,
                         options=RecordOptions(record_every=10, weights=True))
        text = traj.to_csv(extra={"ub_env": np.ones(len(traj))})
        lines = text.splitlines()
        # recorded weights add no column; extras follow the norms in order
        assert lines[0] == "t,iter,loss,fro_w1,fro_w2,fro_w3,ub_env"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[1] == "0"
        # 12 significant digits
        assert f"{traj.losses[0]:.12g}" == first[2]
        assert "\r" not in text and text.endswith("\n")

    def test_special_values(self):
        traj = synthetic_trajectory([0.0, 0.5, 1.0, 1.5], [np.nan, np.inf, -0.0, 1e-300])
        text = traj.to_csv(extra={"e": [-np.inf, 1.0, 2.5, 1 / 3]})
        assert text.splitlines()[1:] == ["0,0,nan,0,-inf", "0.5,1,inf,0,1",
                                         "1,2,-0,0,2.5", "1.5,3,1e-300,0,0.333333333333"]
