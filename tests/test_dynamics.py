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
        # on square data the driver trains on X itself, so Y = forward(st)
        # zeroes the residual and every gradient exactly
        st = small_state()
        X = random_orthogonal_data(4, 4, 1)
        square = TrainState(weights=st.weights, X=X, Y=X, topology=st.topology)
        fitted = dataclasses.replace(square, Y=forward(square))
        nxt = one_step(fitted, lr=0.1)
        for a, b in zip(nxt.weights, fitted.weights):
            np.testing.assert_array_equal(a, b)

    def test_zero_gradient_is_a_fixed_point_to_rounding_on_wide_data(self):
        # with n > d the driver trains on (R^T, Y Q) from X^T = Q R, where
        # Y = forward(st) leaves a residual of rounding size, about
        # eps ||Y||: one step at lr 0.1 moves a weight by less than 1e-15
        st = small_state()
        fitted = TrainState(weights=st.weights, X=st.X, Y=forward(st), topology=st.topology)
        nxt = one_step(fitted, lr=0.1)
        np.testing.assert_allclose(nxt.weights, fitted.weights, rtol=0, atol=1e-15)

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


def textbook_step(state, method, step, step_c, reduce=True):
    """One update of `method` from fresh loss_and_gradients calls, written
    as the textbook formula: (weights, raw coefficients or None).  They
    evaluate the state the driver trains (dynamics._reduced), or with
    reduce=False the state itself."""
    c0 = None if state.ancre is None else state.ancre.c
    evaluated = dynamics._reduced([state])[0][0] if reduce else state

    def grad(w, c):
        _, gw, gc = loss_and_gradients(evaluated, w, c)
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


def wide_state(kind, outside, seed=20, K=3, d=4, n=9):
    """A state on Gaussian d x n data: fixed (cascaded), ingoing or
    outgoing with the trunk off; Y is realizable, or with `outside` plus a
    component outside X's row space."""
    rng = make_rng(seed)
    X = rng.standard_normal((d, n)) / np.sqrt(n)
    Y = rng.standard_normal((d, d)) @ X + (0.3 * rng.standard_normal((d, n)) if outside else 0)
    weights = rng.standard_normal((K, d, d)) * 0.3
    if kind == "fixed":
        return TrainState(weights=weights, X=X, Y=Y, topology=Topology.cascaded(K))
    mode, trunk = {"ingoing": ("ingoing", True), "outgoing": ("outgoing", False)}[kind]
    return TrainState(weights=weights, X=X, Y=Y, trunk=trunk,
                      ancre=AncreParams.uniform(K, mode=mode, temperature=0.5))


def hand_loop(state, method, step, n_steps):
    """n_steps textbook updates on the full data: (the losses before each
    step and after the last, the final state)."""
    losses = []
    for _ in range(n_steps):
        losses.append(loss_and_gradients(state)[0])
        w, c = textbook_step(state, method, step, step, reduce=False)
        state = dataclasses.replace(state, weights=w,
                                    ancre=None if c is None else state.ancre.with_coeffs(c))
    return losses + [loss_and_gradients(state)[0]], state


def drive(states, method, step, n_steps, options=None):
    """train_batch, or for one state its solo driver."""
    if len(states) > 1:
        return train_batch(states, method, step, n_steps, options=options)
    if method == "gd":
        return [run_gd(states[0], step, n_steps, options=options)]
    return [integrate_gf(states[0], step, step * n_steps, method, options)]


@pytest.fixture
def qr_calls(monkeypatch):
    """The np.linalg.qr calls made while the test runs."""
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


class TestReducedData:
    """Without tanh and with n > d, the driver trains on the d x d data of
    one QR factorization of X and Y and adds the loss outside X's row space:
    its losses and updates are those of full-data steps to rounding."""

    @pytest.mark.parametrize("method", ["gd", "euler", "rk4"])
    @pytest.mark.parametrize("outside", [False, True], ids=["realizable", "outside"])
    @pytest.mark.parametrize("kind", ["fixed", "ingoing", "outgoing"])
    def test_matches_full_data_steps(self, kind, outside, method, qr_calls):
        st = wide_state(kind, outside)
        [(traj, final)] = drive([st], method, 0.05, 6, RecordOptions(record_every=1))
        losses, want = hand_loop(st, method, 0.05, 6)
        assert len(qr_calls) == 1
        np.testing.assert_allclose(traj.losses, losses, rtol=1e-12)
        np.testing.assert_allclose(final.weights, want.weights, rtol=1e-12)
        if st.ancre is not None:
            assert np.any(final.ancre.c != 0)
            np.testing.assert_allclose(final.ancre.c, want.ancre.c, rtol=1e-12)

    def test_the_offset_is_the_residuals_own_norm(self):
        # Y = A X + 1e-10 E with E orthogonal to X's rows: the offset is
        # 0.5 ||1e-10 E||^2 = 5e-21 ||E||^2, to the rounding of Y (eps ||Y||
        # against entries of 1e-10); ||Y||^2 - ||Y Q||^2 would cancel to
        # within eps ||Y||^2, some 1e-15
        st = wide_state("fixed", False)
        E = make_rng(3).standard_normal(st.X.shape)
        E -= np.linalg.lstsq(st.X.T, E.T, rcond=None)[0].T @ st.X
        wide = dataclasses.replace(st, Y=st.Y + 1e-10 * E)
        want = 0.5e-20 * np.sum(E * E)
        assert dynamics._reduced([wide])[1] == pytest.approx(want, rel=1e-5, abs=0)
        assert 0 <= dynamics._reduced([st])[1] < 1e-28

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["gd", "rk4"])
    def test_a_shrinking_batch_factors_once(self, method, qr_calls):
        # a member whose loss overflows stops at step 0, one whose finite
        # step overshoots stops at step 1 (test_members_match_solo_runs'
        # recipes); the shrunk sets train on the same reduced data
        st = wide_state("fixed", True, K=2)
        d = st.d
        members = [st, dataclasses.replace(st, weights=np.full((2, d, d), 1e200)),
                   dataclasses.replace(st, weights=[np.eye(d) * 1e200, np.eye(d) * 1e-197],
                                       topology=Topology.single(0, 2, 2)),
                   dataclasses.replace(wide_state("ingoing", True, K=2), X=st.X, Y=st.Y)]
        batch = drive(members, method, 0.05, 6, RecordOptions(record_every=1))
        assert len(qr_calls) == 1
        assert [(traj.stop_reason, traj.steps) for traj, _ in batch] == [
            ("budget", 6), ("loss_blowup", 0), ("loss_blowup", 1), ("budget", 6)]
        for m in (0, 3):
            losses, want = hand_loop(members[m], method, 0.05, 6)
            np.testing.assert_allclose(batch[m][0].losses, losses, rtol=1e-12)
            np.testing.assert_allclose(batch[m][1].weights, want.weights, rtol=1e-12)

    @pytest.mark.parametrize("method", ["gd", "rk4"])
    def test_tanh_and_square_runs_take_the_full_data(self, method, qr_calls):
        tanh = dataclasses.replace(wide_state("fixed", True), nonlinearity="tanh")
        square = wide_state("ingoing", True, n=4)
        for st in (tanh, square):
            assert dynamics._reduced([st]) == ([st], 0.0)
            [(_, final)] = drive([st], method, 0.05, 1)
            w, c = textbook_step(st, method, 0.05, 0.05, reduce=False)
            np.testing.assert_array_equal(final.weights, w)
            if c is not None:
                np.testing.assert_array_equal(final.ancre.c, c)
        assert qr_calls == []

    def test_final_states_carry_the_callers_data(self):
        members = [wide_state("fixed", True), wide_state("fixed", True, seed=21)]
        members[1] = dataclasses.replace(members[1], X=members[0].X, Y=members[0].Y)
        for st, (_, final) in zip(members, train_batch(members, "gd", 0.05, 3)):
            assert final.X is st.X and final.Y is st.Y
            assert np.any(final.weights != st.weights)


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
        assert traj.evals == len(losses) == 3
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


class TestEvals:
    """Each trajectory counts the gradient evaluations the driver made for
    it: 1 per GD or Euler step and 4 per RK4 step, plus the one at the step
    where it stops (a non-finite-gradient stop: TestRunGd)."""

    @pytest.mark.parametrize("method, evals", [("gd", 8), ("euler", 8), ("rk4", 29)])
    @pytest.mark.parametrize("make", [small_state, ancre_state])
    def test_a_budget_run(self, method, evals, make):
        st = make(seed=2)
        if method == "gd":
            traj, _ = run_gd(st, 0.01, 7)
        else:
            traj, _ = integrate_gf(st, 0.01, 0.07, method)
        assert traj.stop_reason == "budget" and traj.steps == 7 and traj.evals == evals

    def test_a_floor_stop(self):
        # each GD step at lr 0.5 quarters the scalar loss 0.5 (w - 1)^2:
        # 0.5, 0.125, 0.03125, 0.0078125 <= 0.01 at step 3
        options = RecordOptions(stop_below=0.01)
        traj, _ = run_gd(scalar_state(), 0.5, 50, options=options)
        assert traj.stop_reason == "floor" and traj.steps == 3 and traj.evals == 4
        # RK4 at dt 0.5: w = 1 - exp(-t) to fourth order, 0.5 e^-2t below
        # 0.01 from step 4 (t = 2)
        traj, _ = integrate_gf(scalar_state(), 0.5, 25.0, "rk4", options)
        assert traj.stop_reason == "floor" and traj.steps == 4 and traj.evals == 17

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method, evals", [("gd", [21, 2, 1, 1]),
                                               ("rk4", [81, 5, 1, 1])])
    def test_batch_members_that_stop_at_different_steps(self, method, evals):
        # a member stops at step 0 on a non-finite gradient, one at step 0
        # on its loss floor, one blows up at step 1 and one runs its budget
        # of 20 steps: each counts only the passes it took part in
        members = [batch_member(0.1, 0.1, Topology.cascaded(2)),
                   batch_member(1e200, 1e-197, Topology.single(0, 2, 2)),
                   batch_member(1e305, 1e-301, Topology.single(0, 2, 2)),
                   batch_member(0.0, 0.5, Topology.single(0, 1, 2))]
        options = RecordOptions(stop_below=1e-12)
        batch = train_batch(members, method, 0.1, 20, options=options)
        assert [traj.stop_reason for traj, _ in batch] == [
            "budget", "loss_blowup", "nonfinite_grad", "floor"]
        assert [traj.steps for traj, _ in batch] == [20, 1, 0, 0]
        assert [traj.evals for traj, _ in batch] == evals


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
            assert traj.evals == solo.evals
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


class TestBalanceGap:
    @staticmethod
    def per_record(weights):
        """The reference: one np.sum per layer of each record."""
        return np.array([np.sum(w[0] ** 2) - np.sum(w[1] ** 2) for w in weights])

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_matches_the_per_record_sums_across_a_block_boundary(self, d):
        # a block holds GAP_BLOCK // d^2 records; three more than a block
        # put the last records in a second one
        records = dynamics.GAP_BLOCK // (d * d) + 3
        rng = make_rng(d)
        weights = rng.standard_normal((records, 3, d, d)) * rng.uniform(
            0.1, 10.0, (records, 1, 1, 1))
        gap = dynamics.balance_gap(weights)
        assert gap.shape == (records,)
        np.testing.assert_array_equal(gap, self.per_record(weights))
        # and on a strided view of them
        view = weights[::2].swapaxes(-1, -2)
        np.testing.assert_array_equal(dynamics.balance_gap(view), self.per_record(view))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_step_calls_neither_dispatched_numpy_functions_nor_np_array(monkeypatch):
    # np.dot, np.vdot, np.copyto and np.sum pass through numpy's
    # __array_function__ dispatch, and np.array builds a fresh array; the
    # driver's step and the network's pass call none of them, so runs of
    # 100 steps call each as often as runs of 10 (and so do the record
    # steps in between).  The data's factorization, np.linalg.qr, runs once
    # per driver call (these states have n > d), however many steps it takes
    # and however often its active set shrinks.
    names = ("dot", "vdot", "copyto", "sum", "array", "qr", "drive", "shrink")
    counts = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for owner, name in [(np, name) for name in names[:5]] + [
            (np.linalg, "qr"), (dynamics, "_drive"), (dynamics._Active, "shrink")]:
        monkeypatch.setattr(owner, name, counted(name.strip("_"), getattr(owner, name)))

    # drawing X calls np.linalg.qr too
    fixed, learned = small_state(seed=1), ancre_state(seed=2)

    def counts_of_runs(n):
        counts.update(dict.fromkeys(names, 0))
        for st in (fixed, learned):
            run_gd(st, 0.01, n)
            integrate_gf(st, 0.01, 0.01 * n, "euler")
            integrate_gf(st, 0.01, 0.01 * n, "rk4")
        pair = [fixed, dataclasses.replace(fixed, topology=Topology.cascaded(3))]
        batch = train_batch(pair, "gd", 0.01, n)
        assert [traj.steps for traj, _ in batch] == [n, n]
        # a member whose loss overflows stops at step 0; at lr 0.05 the pair's
        # losses fall from 6.57 and 12.38 below the floor of 6 at steps 1 and
        # 3: the active set shrinks twice before the last stop
        trio = pair + [dataclasses.replace(fixed, weights=fixed.weights * 1e200)]
        batch = train_batch(trio, "gd", 0.05, n, options=RecordOptions(stop_below=6.0))
        assert [(traj.stop_reason, traj.steps) for traj, _ in batch] == [
            ("floor", 1), ("floor", 3), ("loss_blowup", 0)]
        assert counts["qr"] == counts["drive"] == 8 and counts["shrink"] == 2
        return dict(counts)

    # a first run imports modules that numpy.random loads lazily, and one of
    # them calls np.array on import
    counts_of_runs(10)
    assert counts_of_runs(100) == counts_of_runs(10)


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
