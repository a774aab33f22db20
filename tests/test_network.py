import dataclasses

import numpy as np
import pytest

from restopo.ancre import AncreParams, candidate_pairs
from restopo.network import (Topology, TrainState, Workspace, forward, loss_and_gradients,
                             loss_only, stack_layouts)
from restopo.oracles import fd_gradient, pack_state
from restopo.tensor import ShapeError, make_rng, random_orthogonal_data


def make_state(K=3, d=4, n=6, seed=0, topology=None, ancre=None, nonlinearity="none",
               scale=0.4, trunk=True):
    rng = make_rng(seed)
    weights = [rng.standard_normal((d, d)) * scale / np.sqrt(d) for _ in range(K)]
    X = random_orthogonal_data(d, n, seed + 1)
    Y = rng.standard_normal((d, n))
    if topology is None and ancre is None:
        topology = Topology.none(K)
    return TrainState(weights=weights, X=X, Y=Y, topology=topology, ancre=ancre,
                      nonlinearity=nonlinearity, trunk=trunk)


class TestTopology:
    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            Topology(K=3, shortcuts=frozenset({(2, 2)}))
        with pytest.raises(ValueError):
            Topology(K=3, shortcuts=frozenset({(0, 4)}))

    def test_labels(self):
        assert Topology.none(3).label() == "none"
        assert Topology.cascaded(3).label() == "cascaded"
        assert Topology(K=4, shortcuts=frozenset({(0, 1), (2, 4)})).label() == "0:1+2:4"


class TestForward:
    def test_shortcut_0_1_factorization(self):
        st = make_state(topology=Topology.single(0, 1, 3))
        out = forward(st)
        W1, W2, W3 = st.weights
        want = W3 @ W2 @ (W1 + np.eye(st.d)) @ st.X
        np.testing.assert_allclose(out, want, atol=1e-13)

    def test_shortcut_0_2_factorization(self):
        st = make_state(topology=Topology.single(0, 2, 3))
        out = forward(st)
        W1, W2, W3 = st.weights
        want = W3 @ (W2 @ W1 + np.eye(st.d)) @ st.X
        np.testing.assert_allclose(out, want, atol=1e-13)

    def test_zero_weights_passthrough(self):
        st = make_state(topology=Topology.single(0, 3, 3))
        st.weights[:] = 0.0
        np.testing.assert_array_equal(forward(st), st.X)

    def test_cascaded_product_form(self):
        st = make_state(topology=Topology.cascaded(3))
        out = forward(st)
        I = np.eye(st.d)
        W1, W2, W3 = st.weights
        want = (W3 + I) @ (W2 + I) @ (W1 + I) @ st.X
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_linearity_in_input(self):
        for topo in (Topology.none(3), Topology.cascaded(3), Topology.single(0, 2, 3)):
            st = make_state(topology=topo)
            out1 = forward(st)
            st2 = TrainState(weights=st.weights, X=2.5 * st.X, Y=st.Y, topology=topo)
            out2 = forward(st2)
            np.testing.assert_allclose(out2, 2.5 * out1, atol=1e-12)

    def test_rejects_nonfinite_weights(self):
        st = make_state()
        st.weights[1][0, 0] = np.nan
        with pytest.raises(ValueError, match="layer 2"):
            forward(st)


def end_to_end_map(weights, topology: Topology) -> np.ndarray:
    """The linear operator M with forward output M @ X: forward on X = I."""
    d = weights[0].shape[0]
    return forward(TrainState(weights=weights, X=np.eye(d), Y=np.zeros((d, d)),
                              topology=topology))


class TestEndToEndMap:
    def test_plain_product(self):
        st = make_state(K=2)
        m = end_to_end_map(st.weights, Topology.none(2))
        np.testing.assert_allclose(m, st.weights[1] @ st.weights[0], atol=1e-13)

    def test_matches_factored_form_for_0_2(self):
        st = make_state(topology=Topology.single(0, 2, 3))
        m = end_to_end_map(st.weights, st.topology)
        W1, W2, W3 = st.weights
        np.testing.assert_allclose(m, W3 @ (W2 @ W1 + np.eye(st.d)), atol=1e-13)

    def test_identity_weights_cascaded_gives_8I(self):
        weights = [np.eye(3) for _ in range(3)]
        m = end_to_end_map(weights, Topology.cascaded(3))
        np.testing.assert_allclose(m, 8.0 * np.eye(3), atol=1e-13)

    def test_consistent_with_forward(self):
        st = make_state(topology=Topology(K=4, shortcuts=frozenset({(0, 2), (1, 4)})),
                        K=4)
        m = end_to_end_map(st.weights, st.topology)
        np.testing.assert_allclose(m @ st.X, forward(st), atol=1e-12)


def loss(out: np.ndarray, Y: np.ndarray) -> float:
    """The loss of a one-layer plain network on X = I, whose output is its
    weight `out`."""
    d = out.shape[0]
    state = TrainState(weights=[out], X=np.eye(d), Y=Y, topology=Topology.none(1))
    return loss_and_gradients(state)[0]


class TestLoss:
    def test_zero_residual(self):
        y = make_rng(2).standard_normal((3, 3))
        assert loss(y, y) == 0.0

    def test_hand_value(self):
        out = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert loss(out, np.zeros((2, 2))) == pytest.approx(12.5)

    def test_quadratic_homogeneity(self):
        rng = make_rng(3)
        out, y = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        base = loss(out, y)
        assert loss(y + 2.0 * (out - y), y) == pytest.approx(4.0 * base, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestBackward:
    """The reverse pass of loss_and_gradients against closed forms."""

    def test_gradients_match_closed_form_0_1(self):
        st = make_state(topology=Topology.single(0, 1, 3), n=4)
        # with whitened X the gradients take the three-factor closed forms
        st = TrainState(weights=st.weights, X=np.eye(st.d),
                        Y=make_rng(5).standard_normal((st.d, st.d)),
                        topology=st.topology)
        value, wgrads, cgrads = loss_and_gradients(st)
        W1, W2, W3 = st.weights
        I = np.eye(st.d)
        E = forward(st) - st.Y
        assert value == 0.5 * float(np.vdot(E, E))
        assert cgrads is None
        np.testing.assert_allclose(wgrads[0], W2.T @ W3.T @ E, atol=1e-12)
        np.testing.assert_allclose(wgrads[1], W3.T @ E @ (W1.T + I), atol=1e-12)
        np.testing.assert_allclose(wgrads[2], E @ (W1.T + I) @ W2.T, atol=1e-12)

    def test_gradients_match_closed_form_0_2(self):
        st = make_state(topology=Topology.single(0, 2, 3))
        st = TrainState(weights=st.weights, X=np.eye(st.d),
                        Y=make_rng(6).standard_normal((st.d, st.d)),
                        topology=st.topology)
        _, wgrads, _ = loss_and_gradients(st)
        W1, W2, W3 = st.weights
        I = np.eye(st.d)
        E = forward(st) - st.Y
        np.testing.assert_allclose(wgrads[0], W2.T @ W3.T @ E, atol=1e-12)
        np.testing.assert_allclose(wgrads[1], W3.T @ E @ W1.T, atol=1e-12)
        np.testing.assert_allclose(wgrads[2], E @ (W2 @ W1 + I).T, atol=1e-12)

    def test_zero_residual_means_zero_gradients(self):
        st = make_state(topology=Topology.cascaded(3))
        st_fit = TrainState(weights=st.weights, X=st.X, Y=forward(st), topology=st.topology)
        value, wgrads, _ = loss_and_gradients(st_fit)
        assert value == 0.0
        np.testing.assert_array_equal(wgrads, 0.0)


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("topology,nonlinearity", [
        (Topology.none(2), "none"),
        (Topology.cascaded(3), "none"),
        (Topology.single(0, 2, 3), "tanh"),
        (Topology(K=4, shortcuts=frozenset({(0, 2), (1, 4), (3, 4)})), "tanh"),
    ])
    def test_fixed_topologies(self, topology, nonlinearity):
        st = make_state(K=topology.K, topology=topology, nonlinearity=nonlinearity,
                        seed=topology.K)
        vec, evaluate, analytic = pack_state(st)
        fd = fd_gradient(evaluate, vec)
        an = analytic(vec)
        rel = np.abs(an - fd) / (np.abs(an) + np.abs(fd) + 1e-12)
        assert rel.max() <= 1e-6

    @pytest.mark.parametrize("mode,trunk,nonlinearity", [
        ("ingoing", True, "none"),
        ("ingoing", False, "none"),
        ("outgoing", True, "tanh"),
        ("ingoing", False, "tanh"),
    ])
    def test_mixing_modes(self, mode, trunk, nonlinearity):
        rng = make_rng(31)
        c = {pair: float(rng.uniform(-0.5, 0.5)) for pair in candidate_pairs(3)}
        params = AncreParams(K=3, c=c, mode=mode, temperature=0.3)
        st = make_state(K=3, ancre=params, nonlinearity=nonlinearity, trunk=trunk,
                        seed=41)
        vec, evaluate, analytic = pack_state(st)
        fd = fd_gradient(evaluate, vec)
        an = analytic(vec)
        rel = np.abs(an - fd) / (np.abs(an) + np.abs(fd) + 1e-12)
        assert rel.max() <= 1e-6


class TestMixingForward:
    def test_one_hot_rows_reproduce_cascaded(self):
        # drive each ingoing row to the cascaded source k-1; the mixing
        # recurrence then reproduces the fixed cascaded topology
        K, tau = 3, 0.1
        c = {pair: 0.0 for pair in candidate_pairs(K)}
        for k in range(1, K + 1):
            c[(k - 1, k)] = 60.0 * tau
        params = AncreParams(K=K, c=c, temperature=tau)
        st_fixed = make_state(K=K, topology=Topology.cascaded(K), seed=8)
        st_mix = TrainState(weights=st_fixed.weights, X=st_fixed.X, Y=st_fixed.Y,
                            ancre=params)
        np.testing.assert_allclose(forward(st_mix), forward(st_fixed), atol=1e-10)

    def test_uniform_rows_average_sources(self):
        params = AncreParams.uniform(2)
        st = make_state(K=2, ancre=params, seed=12)
        out = forward(st)
        W1, W2 = st.weights
        h1 = W1 @ st.X + st.X
        want = W2 @ h1 + 0.5 * st.X + 0.5 * h1
        np.testing.assert_allclose(out, want, atol=1e-13)

    def test_trunk_off_routes_through_mixture(self):
        params = AncreParams.uniform(2)
        st = make_state(K=2, ancre=params, trunk=False, seed=13)
        W1, W2 = st.weights
        h1 = W1 @ st.X
        want = W2 @ (0.5 * st.X + 0.5 * h1)
        np.testing.assert_allclose(forward(st), want, atol=1e-13)

    def test_loss_matches_forward_and_overrides_match_state(self):
        params = AncreParams.uniform(3)
        st = make_state(K=3, ancre=params, seed=21)
        value, wgrads, cgrads = loss_and_gradients(st)
        r = forward(st) - st.Y
        assert value == pytest.approx(0.5 * float(np.vdot(r, r)), rel=1e-15)
        # the state's own parameters, passed explicitly, give the same pass
        again = loss_and_gradients(st, st.weights.copy(), st.ancre.c.copy())
        assert again[0] == value
        np.testing.assert_array_equal(again[1], wgrads)
        np.testing.assert_array_equal(again[2], cgrads)


def _mixing(K, mode, seed):
    rng = make_rng(seed)
    c = {pair: float(rng.uniform(-0.5, 0.5)) for pair in candidate_pairs(K)}
    return AncreParams(K=K, c=c, mode=mode, temperature=0.3)


WORKSPACE_CASES = {
    "none": dict(K=2, topology=Topology.none(2)),
    "cascaded": dict(K=3, topology=Topology.cascaded(3)),
    "0:2_tanh": dict(K=3, topology=Topology.single(0, 2, 3), nonlinearity="tanh"),
    # sources that feed an adjoint after the trunk has written it, and
    # twice in one layer
    "0:2+1:4+3:4": dict(K=4, topology=Topology(K=4, shortcuts=frozenset({(0, 2), (1, 4),
                                                                         (3, 4)}))),
    "1:3+0:4+2:4_tanh": dict(K=4, topology=Topology(K=4, shortcuts=frozenset(
        {(1, 3), (0, 4), (2, 4)})), nonlinearity="tanh"),
    "ingoing": dict(K=3, ancre=_mixing(3, "ingoing", 1)),
    "ingoing_trunk_off": dict(K=3, ancre=_mixing(3, "ingoing", 2), trunk=False),
    "outgoing_trunk_off_tanh": dict(K=4, ancre=_mixing(4, "outgoing", 3), trunk=False,
                                    nonlinearity="tanh"),
}


class TestWorkspace:
    """Evaluating into a reused Workspace gives what a fresh call gives."""

    @pytest.mark.parametrize("case", list(WORKSPACE_CASES))
    def test_matches_fresh_arrays(self, case):
        st = make_state(seed=7, **WORKSPACE_CASES[case])
        work = Workspace(st, st.weights.shape)
        rng = make_rng(9)
        # several parameter sets in turn, so that anything one pass left in
        # the buffers would show in the next
        for _ in range(3):
            weights = st.weights + 0.3 * rng.standard_normal(st.weights.shape)
            coeffs = None
            if st.ancre is not None:
                coeffs = st.ancre.c + np.triu(rng.uniform(-1, 1, st.ancre.c.shape), 1)
            want = loss_and_gradients(st, weights, coeffs)
            got = loss_and_gradients(st, weights, coeffs, work=work)
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
            if st.ancre is None:
                assert got[2] is None and want[2] is None
            else:
                np.testing.assert_array_equal(got[2], want[2])
            assert loss_only(st, weights, coeffs, work=work) == want[0]

    def test_stacked_batch_matches_fresh_arrays(self):
        topologies = [Topology.cascaded(3), Topology.none(3), Topology.single(1, 3, 3)]
        base = make_state(seed=4)
        states = [TrainState(weights=make_state(seed=s).weights, X=base.X, Y=base.Y,
                             topology=t) for s, t in enumerate(topologies)]
        layout = stack_layouts([t.layout for t in topologies])
        weights = np.array([s.weights for s in states])
        work = Workspace(states[0], weights.shape, layout)
        for scale in (1.0, 2.0, 0.5):
            want = loss_and_gradients(states[0], scale * weights, None, layout)
            got = loss_and_gradients(states[0], scale * weights, None, layout, work)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(loss_only(states[0], scale * weights, None,
                                                    layout, work), want[0])
            # and each member is its own solo pass
            for m, st in enumerate(states):
                solo = loss_and_gradients(st, scale * weights[m])
                assert got[0][m] == solo[0]
                np.testing.assert_array_equal(got[1][m], solo[1])

    def test_gradients_valid_until_the_next_eval(self):
        st = make_state(seed=3, **WORKSPACE_CASES["ingoing"])
        work = Workspace(st, st.weights.shape)
        first = loss_and_gradients(st, work=work)
        kept = (first[0], first[1].copy(), first[2].copy())
        weights, X = st.weights.copy(), st.X.copy()
        # a loss-only pass leaves the weight gradients alone
        loss_only(st, 2.0 * st.weights, work=work)
        np.testing.assert_array_equal(first[1], kept[1])
        second = loss_and_gradients(st, 2.0 * st.weights, work=work)
        want = loss_and_gradients(st, 2.0 * st.weights)
        # the weight gradients are the workspace's one buffer, now the second
        # eval's; the loss and the coefficient gradients stay the first's
        assert second[1] is first[1]
        np.testing.assert_array_equal(second[1], want[1])
        assert np.any(second[1] != kept[1])
        assert first[0] == kept[0]
        np.testing.assert_array_equal(first[2], kept[2])
        np.testing.assert_array_equal(second[2], want[2])
        # the state is read, never written
        np.testing.assert_array_equal(st.weights, weights)
        np.testing.assert_array_equal(st.X, X)

    def test_rejects_another_state_or_shape(self):
        st = make_state(K=3, topology=Topology.cascaded(3))
        work = Workspace(st, st.weights.shape)
        other = make_state(K=3, topology=Topology.cascaded(3), seed=5)
        with pytest.raises(ValueError, match="workspace"):
            loss_and_gradients(other, work=work)
        with pytest.raises(ValueError, match="workspace"):
            loss_and_gradients(st, np.array([st.weights] * 2),
                               layout=stack_layouts([st.topology.layout] * 2), work=work)
        tanh = TrainState(weights=st.weights, X=st.X, Y=st.Y, topology=st.topology,
                          nonlinearity="tanh")
        with pytest.raises(ValueError, match="workspace"):
            loss_only(tanh, work=work)


class TestTrainStateValidation:
    def test_requires_exactly_one_layout(self):
        st = make_state()
        with pytest.raises(ValueError, match="exactly one layout"):
            TrainState(weights=st.weights, X=st.X, Y=st.Y)
        with pytest.raises(ValueError, match="exactly one layout"):
            TrainState(weights=st.weights, X=st.X, Y=st.Y,
                       topology=Topology.none(3), ancre=AncreParams.uniform(3))

    def test_depth_mismatch(self):
        st = make_state()
        with pytest.raises(ValueError, match="depth"):
            TrainState(weights=st.weights, X=st.X, Y=st.Y, topology=Topology.none(4))

    def test_layer_shape_mismatch_reports_index(self):
        st = make_state()
        weights = [w.copy() for w in st.weights]
        weights[2] = np.zeros((3, 5))
        with pytest.raises(ShapeError, match="layer 3"):
            TrainState(weights=weights, X=st.X, Y=st.Y, topology=Topology.none(3))

    def test_weights_are_a_float64_array_of_the_states_own(self):
        weights = [np.eye(2, dtype=int), np.eye(2)]
        st = TrainState(weights=weights, X=np.eye(2), Y=np.eye(2), topology=Topology.none(2))
        assert isinstance(st.weights, np.ndarray)
        assert st.weights.dtype == np.float64 and st.weights.shape == (2, 2, 2)
        weights[1][0, 0] = 5.0
        twin = st.copy()
        twin.weights[0, 0, 0] = 7.0
        np.testing.assert_array_equal(st.weights, [np.eye(2), np.eye(2)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.weights = [np.zeros((2, 2))] * 2
