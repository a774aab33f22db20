import dataclasses

import numpy as np
import pytest

from restopo.ancre import AncreParams, candidate_pairs
from restopo.network import Topology, TrainState, Workspace, forward, loss_and_gradients
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


# h_1's adjoint gathers the trunk's W_2^T delta_2 and the shortcuts into
# layers 3 and 4
THREE_READERS = Topology(K=4, shortcuts=frozenset({(1, 3), (1, 4)}))


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

    @pytest.mark.parametrize("nonlinearity", ["none", "tanh"])
    def test_source_read_by_the_trunk_and_two_shortcuts(self, nonlinearity):
        st = make_state(K=4, topology=THREE_READERS, nonlinearity=nonlinearity, seed=4)
        vec, evaluate, analytic = pack_state(st)
        # eps 1e-4: at the default 1e-6 the difference's roundoff (about
        # 3e-9 here) exceeds 1e-6 of the smallest entry (1.1e-3)
        fd = fd_gradient(evaluate, vec, eps=1e-4)
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


def _assert_members_match_solo(topologies, nonlinearity, base_seed, first_seed=0):
    """A stacked pass of the topologies, on base_seed's data and member m's
    weights drawn from seed first_seed + m, gives each member its solo
    pass's loss and weight gradients, bit for bit."""
    K = topologies[0].K
    base = make_state(K=K, seed=base_seed)
    states = [TrainState(weights=make_state(K=K, seed=first_seed + s).weights, X=base.X,
                         Y=base.Y, topology=t, nonlinearity=nonlinearity)
              for s, t in enumerate(topologies)]
    weights = np.array([s.weights for s in states])
    work = Workspace(states, weights.shape)
    value, wgrads, _ = loss_and_gradients(states[0], weights, None, work)
    for m, st in enumerate(states):
        solo = loss_and_gradients(st)
        assert value[m] == solo[0]
        np.testing.assert_array_equal(wgrads[m], solo[1])


class TestWorkspace:
    """Evaluating into a reused Workspace gives what a fresh call gives."""

    @pytest.mark.parametrize("case", list(WORKSPACE_CASES))
    def test_matches_fresh_arrays(self, case):
        st = make_state(seed=7, **WORKSPACE_CASES[case])
        work = Workspace([st], st.weights.shape)
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

    def test_stacked_batch_matches_fresh_arrays(self):
        topologies = [Topology.cascaded(3), Topology.none(3), Topology.single(1, 3, 3)]
        base = make_state(seed=4)
        states = [TrainState(weights=make_state(seed=s).weights, X=base.X, Y=base.Y,
                             topology=t) for s, t in enumerate(topologies)]
        weights = np.array([s.weights for s in states])
        work = Workspace(states, weights.shape)
        for scale in (1.0, 2.0, 0.5):
            want = loss_and_gradients(states[0], scale * weights, None,
                                      Workspace(states, weights.shape))
            got = loss_and_gradients(states[0], scale * weights, None, work)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            # and each member is its own solo pass
            for m, st in enumerate(states):
                solo = loss_and_gradients(st, scale * weights[m])
                assert got[0][m] == solo[0]
                np.testing.assert_array_equal(got[1][m], solo[1])

    @pytest.mark.parametrize("nonlinearity", ["none", "tanh"])
    def test_stacked_source_read_three_times_matches_solo(self, nonlinearity):
        _assert_members_match_solo([THREE_READERS, Topology.cascaded(4), Topology.none(4),
                                    Topology(K=4, shortcuts=frozenset({(0, 2), (1, 4),
                                                                       (3, 4)}))],
                                   nonlinearity, base_seed=6)

    @pytest.mark.parametrize("nonlinearity", ["none", "tanh"])
    def test_stacked_multi_source_spans_match_solo(self, nonlinearity):
        # a layer that mixes three shortcut sources (4) and one that mixes
        # four (5), a source read by three shortcuts (1), and members whose
        # own spans are narrower than the stack's
        topologies = [Topology(K=5, shortcuts=frozenset({(0, 4), (1, 4), (2, 4), (1, 3),
                                                         (1, 5)})),
                      Topology(K=5, shortcuts=frozenset({(0, 5), (1, 5), (2, 5), (3, 5)})),
                      Topology.cascaded(5), Topology.none(5)]
        for draw in range(5):
            _assert_members_match_solo(topologies, nonlinearity, base_seed=draw,
                                       first_seed=10 * draw + 1)

    @pytest.mark.parametrize("mode", ["ingoing", "outgoing"])
    @pytest.mark.parametrize("nonlinearity", ["none", "tanh"])
    def test_stacked_learned_rows_match_solo(self, mode, nonlinearity):
        # fixed layouts first, then two learned members of one recipe: each
        # member's loss and weight gradients, and each learned member's
        # coefficient gradients, are its solo pass's, bit for bit
        K, base = 4, make_state(K=4, d=5, n=7, seed=8)
        learned = [_mixing(K, mode, seed) for seed in (1, 2)]
        states = [TrainState(weights=make_state(K=K, d=5, n=7, seed=20 + m).weights,
                             X=base.X, Y=base.Y, topology=source, nonlinearity=nonlinearity)
                  for m, source in enumerate((THREE_READERS, Topology.cascaded(K)))]
        states += [TrainState(weights=make_state(K=K, d=5, n=7, seed=30 + m).weights,
                              X=base.X, Y=base.Y, ancre=params, nonlinearity=nonlinearity)
                   for m, params in enumerate(learned)]
        weights = np.array([st.weights for st in states])
        coeffs = np.array([params.c for params in learned])
        work = Workspace(states, weights.shape)
        assert work.layout.rows == slice(2, None)
        for _ in range(2):  # a second pass refreshes the learned rows again
            value, wgrads, cgrads = loss_and_gradients(states[0], weights, coeffs, work)
            assert cgrads.shape == (2, K + 1, K + 1)
            for m, st in enumerate(states):
                solo = loss_and_gradients(st)
                assert value[m] == solo[0]
                np.testing.assert_array_equal(wgrads[m], solo[1])
                if m >= 2:
                    np.testing.assert_array_equal(cgrads[m - 2], solo[2])
            coeffs = coeffs + np.triu(np.full((K + 1, K + 1), 0.5), 1)
            learned = [params.with_coeffs(c) for params, c in zip(learned, coeffs)]
            states[2:] = [dataclasses.replace(st, ancre=params)
                          for st, params in zip(states[2:], learned)]

    def test_stack_rejects_learned_rows_out_of_place(self):
        fixed = make_state(topology=Topology.cascaded(3))
        learned = make_state(ancre=AncreParams.uniform(3))

        def stack(states):
            return Workspace(states, (len(states),) + fixed.weights.shape)

        with pytest.raises(ValueError, match="last"):
            stack([learned, fixed])
        other = make_state(ancre=AncreParams.uniform(3, mode="outgoing"))
        with pytest.raises(ValueError, match="temperature"):
            stack([fixed, learned, other])
        off = make_state(ancre=AncreParams.uniform(3), trunk=False)
        with pytest.raises(ValueError, match="trunk"):
            stack([fixed, off])

    def test_stacked_loss_is_each_members_vdot(self):
        # the stacked loss is one (B, 1, dn) by (B, dn, 1) product; each
        # value is the vdot of the member's own residual, bit for bit,
        # including a member whose residual is finite but whose squares
        # overflow to inf
        topologies = [Topology.cascaded(3), Topology.none(3), Topology.single(1, 3, 3)]
        for d, n in ((1, 1), (4, 6), (16, 48)):
            base = make_state(d=d, n=n, seed=4)
            states = [TrainState(weights=make_state(d=d, n=n, seed=s).weights, X=base.X,
                                 Y=base.Y, topology=t) for s, t in enumerate(topologies)]
            states[1] = dataclasses.replace(states[1], weights=1e60 * states[1].weights)
            weights = np.array([st.weights for st in states])
            with np.errstate(over="ignore", invalid="ignore"):
                value, _, _ = loss_and_gradients(states[0], weights, None,
                                                 Workspace(states, weights.shape))
                for m, st in enumerate(states):
                    r = forward(st) - st.Y
                    assert value[m] == 0.5 * float(np.vdot(r, r))
            r = forward(states[1]) - states[1].Y
            assert np.all(np.isfinite(r)) and value[1] == np.inf

    def test_lone_one_source_layers_add_the_source_as_it_is(self):
        # each layer reads at most one shortcut source and each source feeds
        # at most one shortcut, so every shortcut term is h_i itself
        topology = Topology(K=4, shortcuts=frozenset({(0, 1), (1, 3), (2, 4)}))
        st = make_state(K=4, topology=topology, seed=2)
        value, wgrads, _ = loss_and_gradients(st)
        W, source = st.weights, {j: i for i, j in topology.shortcuts}
        h = [st.X]
        for k in range(1, 5):
            z = W[k - 1] @ h[k - 1]
            if k in source:
                z += h[source[k]]
            h.append(z)
        np.testing.assert_array_equal(forward(st), h[4])
        adj = {4: h[4] - st.Y}
        assert value == 0.5 * float(np.vdot(adj[4], adj[4]))
        readers = {i: j for j, i in source.items()}
        for k in range(4, 0, -1):
            np.testing.assert_array_equal(wgrads[k - 1], adj[k] @ h[k - 1].T)
            if k > 1:
                a = W[k - 1].T @ adj[k]
                if k - 1 in readers:
                    a += adj[readers[k - 1]]
                adj[k - 1] = a

    @pytest.mark.parametrize("mode", ["ingoing", "outgoing"])
    @pytest.mark.parametrize("trunk", [True, False])
    def test_reuse_after_a_nonfinite_eval(self, mode, trunk):
        # an overflowing pass fills the buffers with inf and nan; the next
        # finite pass must not read any of them, dL/dP's row and column 0
        # included
        st = make_state(K=4, ancre=_mixing(4, mode, 5), trunk=trunk, seed=11)
        work = Workspace([st], st.weights.shape)
        with np.errstate(all="ignore"):
            bad = loss_and_gradients(st, 1e120 * st.weights, work=work)
        assert not np.isfinite(bad[0])
        got = loss_and_gradients(st, work=work)
        want = loss_and_gradients(st)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])

    def test_gradients_valid_until_the_next_eval(self):
        st = make_state(seed=3, **WORKSPACE_CASES["ingoing"])
        work = Workspace([st], st.weights.shape)
        first = loss_and_gradients(st, work=work)
        kept = (first[0], first[1].copy(), first[2].copy())
        weights, X = st.weights.copy(), st.X.copy()
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
        work = Workspace([st], st.weights.shape)
        other = make_state(K=3, topology=Topology.cascaded(3), seed=5)
        with pytest.raises(ValueError, match="workspace"):
            loss_and_gradients(other, work=work)
        for weights in (np.array([st.weights] * 2), st.weights[None]):
            with pytest.raises(ValueError, match="workspace"):
                loss_and_gradients(st, weights, work=work)
        tanh = TrainState(weights=st.weights, X=st.X, Y=st.Y, topology=st.topology,
                          nonlinearity="tanh")
        with pytest.raises(ValueError, match="workspace"):
            loss_and_gradients(tanh, work=work)

    @pytest.mark.parametrize("case", list(WORKSPACE_CASES))
    def test_a_lone_member_axis_changes_only_the_shapes(self, case):
        # one member runs the lone plan whether or not its parameters carry
        # the member axis: the same loss and gradients, bit for bit
        st = make_state(seed=7, **WORKSPACE_CASES[case])
        bare = Workspace([st], st.weights.shape)
        stacked = Workspace([st], (1,) + st.weights.shape)
        rng = make_rng(9)
        for _ in range(3):
            weights = st.weights + 0.3 * rng.standard_normal(st.weights.shape)
            coeffs = None
            if st.ancre is not None:
                coeffs = st.ancre.c + np.triu(rng.uniform(-1, 1, st.ancre.c.shape), 1)
            want = loss_and_gradients(st, weights, coeffs, bare)
            got = loss_and_gradients(st, weights[None],
                                     None if coeffs is None else coeffs[None], stacked)
            assert got[0].shape == (1,) and got[0][0] == want[0]
            assert got[1].shape == (1,) + weights.shape
            np.testing.assert_array_equal(got[1][0], want[1])
            if st.ancre is None:
                assert got[2] is None and want[2] is None
            else:
                assert got[2].shape == (1,) + coeffs.shape
                np.testing.assert_array_equal(got[2][0], want[2])

    def test_buffers_start_on_64_byte_boundaries(self):
        # np.empty aligns to 16 bytes; the workspace's large buffers must not
        # depend on where the allocator happens to put them
        for n in range(4, 20):
            st = make_state(d=4, n=n, seed=n, **WORKSPACE_CASES["outgoing_trunk_off_tanh"])
            for states, shape in (([st], st.weights.shape), ([st, st], (2,) + st.weights.shape)):
                work = Workspace(states, shape)
                # h_K and the residual are the last layers of H and adj
                layers = st.K * work.tmp.nbytes
                for start in (work.tmp.ctypes.data, work.grads.ctypes.data,
                              work.h_K.ctypes.data - layers, work.residual.ctypes.data - layers):
                    assert start % 64 == 0

    def test_rejects_another_member_count(self):
        topologies = [Topology.cascaded(3), Topology.none(3), Topology.single(1, 3, 3)]
        states = [make_state(topology=t) for t in topologies]
        weights = np.array([st.weights for st in states])
        for shape in (weights.shape[1:], (2,) + weights.shape[1:],
                      (4,) + weights.shape[1:]):
            with pytest.raises(ValueError, match="3 member"):
                Workspace(states, shape)
        work = Workspace(states, weights.shape)
        with pytest.raises(ValueError, match="workspace"):
            loss_and_gradients(states[0], weights[:2], work=work)
        with pytest.raises(ValueError, match="1 member"):
            Workspace(states[:1], weights.shape)


class TestTrainStateValidation:
    def test_requires_exactly_one_layout(self):
        st = make_state()
        with pytest.raises(ValueError, match="exactly one layout"):
            TrainState(weights=st.weights, X=st.X, Y=st.Y)
        with pytest.raises(ValueError, match="exactly one layout"):
            TrainState(weights=st.weights, X=st.X, Y=st.Y,
                       topology=Topology.none(3), ancre=AncreParams.uniform(3))

    def test_trunk_off_needs_learned_mixing(self):
        st = make_state()
        with pytest.raises(ValueError, match="trunk"):
            TrainState(weights=st.weights, X=st.X, Y=st.Y,
                       topology=Topology.single(0, 2, 3), trunk=False)
        TrainState(weights=st.weights, X=st.X, Y=st.Y, ancre=AncreParams.uniform(3),
                   trunk=False)

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
