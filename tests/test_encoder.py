import copy
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherhash.encoder import (
    SGD,
    EncoderSpec,
    EncoderState,
    backward,
    forward,
    init_state,
    load_checkpoint,
    save_checkpoint,
)
from fisherhash.exceptions import DataError, NumericalError

from oracles import reference_decode_checkpoint


def probe_loss(state, x):
    """Scalar probe 0.5 * ||forward(x)||^2 used for gradient checks."""
    u, _ = forward(state, x)
    return 0.5 * float((u**2).sum())


def fd_param_grads(state, x, step=1e-6):
    wgrads, bgrads = [], []
    for li in range(len(state.weights)):
        gw = np.zeros_like(state.weights[li])
        for pos in np.ndindex(*gw.shape):
            up, dn = copy.deepcopy(state), copy.deepcopy(state)
            up.weights[li][pos] += step
            dn.weights[li][pos] -= step
            gw[pos] = (probe_loss(up, x) - probe_loss(dn, x)) / (2 * step)
        wgrads.append(gw)
        gb = np.zeros_like(state.biases[li])
        for pos in range(gb.size):
            up, dn = copy.deepcopy(state), copy.deepcopy(state)
            up.biases[li][pos] += step
            dn.biases[li][pos] -= step
            gb[pos] = (probe_loss(up, x) - probe_loss(dn, x)) / (2 * step)
        bgrads.append(gb)
    return wgrads, bgrads


class TestSpec:
    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            EncoderSpec(input_dim=3, output_dim=2, hidden_layers=((4, "selu"),))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            EncoderSpec(input_dim=0, output_dim=2)


class TestForward:
    def test_identity_network(self):
        state = EncoderState([np.eye(3)], [np.zeros(3)], ["identity"])
        x = np.arange(6, dtype=float).reshape(3, 2)
        u, _ = forward(state, x)
        np.testing.assert_array_equal(u, x)

    def test_deterministic_for_fixed_seed(self):
        spec = EncoderSpec(input_dim=4, output_dim=3, hidden_layers=((5, "relu"),), seed=77)
        x = np.random.default_rng(0).normal(size=(4, 6))
        u1, _ = forward(init_state(spec), x)
        u2, _ = forward(init_state(spec), x)
        np.testing.assert_array_equal(u1, u2)

    def test_hand_computed_relu_stack(self):
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 0.0], [-1.0, 1.0]])
        b2 = np.array([0.0, 0.3])
        state = EncoderState([w1, w2], [b1, b2], ["relu", "identity"])
        x = np.array([[1.0], [2.0]])
        hidden = np.maximum(w1 @ x + b1[:, None], 0.0)
        want = w2 @ hidden + b2[:, None]
        u, _ = forward(state, x)
        np.testing.assert_allclose(u, want, rtol=0, atol=0)

    def test_linear_network_is_homogeneous(self):
        spec = EncoderSpec(input_dim=3, output_dim=2, hidden_layers=((4, "identity"),), seed=5)
        state = init_state(spec)
        x = np.random.default_rng(1).normal(size=(3, 7))
        u1, _ = forward(state, x)
        u2, _ = forward(state, 2.5 * x)
        np.testing.assert_allclose(u2, 2.5 * u1, rtol=1e-12)

    def test_rejects_bad_shape_and_nan(self):
        state = init_state(EncoderSpec(input_dim=3, output_dim=2))
        with pytest.raises(ValueError, match="shape"):
            forward(state, np.ones((4, 2)))
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            forward(state, bad)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        spec = EncoderSpec(input_dim=3, output_dim=2, hidden_layers=((4, "tanh"),), seed=1)
        state = init_state(spec)
        x = np.random.default_rng(2).normal(size=(3, 5))
        _, cache = forward(state, x)
        (wg, bg), dx = backward(state, cache, np.zeros((2, 5)))
        assert all(np.abs(g).max() == 0 for g in (*wg, *bg))
        assert np.abs(dx).max() == 0

    @pytest.mark.parametrize("hidden", [
        (),
        ((8, "relu"),),
        ((8, "tanh"), (6, "identity")),
        ((8, "relu"), (6, "tanh"), (5, "relu")),
    ])
    def test_gradcheck_all_depths_and_activations(self, hidden):
        spec = EncoderSpec(input_dim=7, output_dim=4, hidden_layers=hidden, seed=3)
        state = init_state(spec)
        x = np.random.default_rng(4).normal(size=(7, 9))
        u, cache = forward(state, x)
        (wg, bg), _ = backward(state, cache, u)  # dL/dU of 0.5||U||^2 is U
        fw, fb = fd_param_grads(state, x)
        for got, want in zip((*wg, *bg), (*fw, *fb)):
            denom = np.maximum(np.abs(want), 1.0)
            assert (np.abs(got - want) / denom).max() < 1e-4

    def test_linear_closed_form(self):
        spec = EncoderSpec(input_dim=5, output_dim=3, seed=6)
        state = init_state(spec)
        x = np.random.default_rng(7).normal(size=(5, 8))
        u, cache = forward(state, x)
        (wg, bg), _ = backward(state, cache, u)
        np.testing.assert_allclose(wg[0], u @ x.T, rtol=1e-12)
        np.testing.assert_allclose(bg[0], u.sum(axis=1), rtol=1e-12)

    def test_cache_mismatch_rejected(self):
        spec = EncoderSpec(input_dim=3, output_dim=2, seed=0)
        state = init_state(spec)
        _, cache = forward(state, np.ones((3, 4)))
        with pytest.raises(ValueError):
            backward(state, cache, np.ones((2, 5)))


class TestSGDStep:
    def make_state(self):
        return init_state(EncoderSpec(input_dim=2, output_dim=1, seed=9))

    def zeros_like_grads(self, state):
        return ([np.zeros_like(w) for w in state.weights],
                [np.zeros_like(b) for b in state.biases])

    def test_zero_grads_leave_state_unchanged(self):
        state = self.make_state()
        new = SGD(lr=0.1).step(state, self.zeros_like_grads(state))
        for a, b in zip(new.weights, state.weights):
            np.testing.assert_array_equal(a, b)

    def test_scalar_arithmetic(self):
        state = EncoderState([np.array([[1.0]])], [np.zeros(1)], ["identity"])
        grads = ([np.array([[0.5]])], [np.zeros(1)])
        new = SGD(lr=0.1).step(state, grads)
        assert new.weights[0][0, 0] == pytest.approx(0.95)

    def test_weight_decay(self):
        state = EncoderState([np.array([[1.0]])], [np.zeros(1)], ["identity"])
        grads = ([np.array([[0.0]])], [np.zeros(1)])
        new = SGD(lr=0.1, weight_decay=0.1).step(state, grads)
        assert new.weights[0][0, 0] == pytest.approx(0.99)

    def test_non_finite_grads_refused(self):
        state = self.make_state()
        grads = self.zeros_like_grads(state)
        grads[0][0][0, 0] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            SGD(lr=0.1).step(state, grads)

    @pytest.mark.parametrize("kwargs", [{"lr": 0.0}, {"lr": 0.1, "weight_decay": -0.1}])
    def test_rejects_bad_lr_and_weight_decay(self, kwargs):
        with pytest.raises(ValueError):
            SGD(**kwargs)

    def test_momentum_accumulates(self):
        state = EncoderState([np.array([[0.0]])], [np.zeros(1)], ["identity"])
        grads = ([np.array([[1.0]])], [np.zeros(1)])
        opt = SGD(lr=1.0, momentum=0.5)
        s1 = opt.step(state, grads)   # v=1   -> -1
        s2 = opt.step(s1, grads)      # v=1.5 -> -2.5
        assert s1.weights[0][0, 0] == -1.0
        assert s2.weights[0][0, 0] == -2.5


class TestStateAndCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        spec = EncoderSpec(input_dim=6, output_dim=3, hidden_layers=((4, "tanh"),), seed=12)
        state = init_state(spec)
        path = tmp_path / "enc.fhnn"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.activations == state.activations
        for a, b in zip(loaded.weights + loaded.biases, state.weights + state.biases):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(3).normal(size=(6, 5))
        np.testing.assert_array_equal(forward(loaded, x)[0], forward(state, x)[0])


_ACT_CODE = {"identity": 0, "relu": 1, "tanh": 2}


def fhnn_bytes(state):
    """The bytes `save_checkpoint` writes for a state."""
    data = b"FHNN" + struct.pack("<3I", 1, len(state.weights), state.input_dim)
    for w, act in zip(state.weights, state.activations):
        data += struct.pack("<2I", w.shape[0], _ACT_CODE[act])
    for w, b in zip(state.weights, state.biases):
        data += struct.pack(f"<{w.size + b.size}d", *w.ravel().tolist(), *b.tolist())
    return data


@st.composite
def encoder_states(draw):
    """0 to 2 hidden layers, every width 1 to 4, nonzero biases."""
    hidden = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(sorted(_ACT_CODE))),
                           max_size=2))
    spec = EncoderSpec(input_dim=draw(st.integers(1, 4)), output_dim=draw(st.integers(1, 4)),
                       hidden_layers=tuple(hidden), seed=draw(st.integers(0, 2**32 - 1)))
    state = init_state(spec)
    rng = np.random.default_rng(spec.seed)
    state.biases = [rng.normal(size=b.shape) for b in state.biases]
    return state


class TestCheckpointLoaderFuzz:
    """Damaged FHNN files load as the state they describe or raise DataError."""

    @staticmethod
    def load_or_data_error(path, data):
        path.write_bytes(data)
        try:
            return load_checkpoint(path)
        except DataError:
            return None

    @staticmethod
    def same_state(loaded, weights, biases, activations):
        return (loaded.activations == activations
                and len(loaded.weights) == len(weights)
                and all(np.array_equal(a, b) for a, b in zip(loaded.weights, weights))
                and all(np.array_equal(a, b) for a, b in zip(loaded.biases, biases)))

    def assert_loads_as_described(self, path, data):
        loaded = self.load_or_data_error(path, data)
        want = reference_decode_checkpoint(data)
        if want is None:
            assert loaded is None
        else:
            assert self.same_state(loaded, *want)

    @given(encoder_states())
    @settings(max_examples=30, deadline=None)
    def test_truncation_at_every_length(self, tmp_path_factory, state):
        data = fhnn_bytes(state)
        path = tmp_path_factory.mktemp("fhnn") / "t.fhnn"
        save_checkpoint(state, path)
        assert path.read_bytes() == data
        loaded = self.load_or_data_error(path, data)
        assert self.same_state(loaded, state.weights, state.biases, state.activations)
        for length in range(len(data)):
            assert self.load_or_data_error(path, data[:length]) is None, length

    @given(encoder_states(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_byte_flip(self, tmp_path_factory, state, data):
        flipped = bytearray(fhnn_bytes(state))
        flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= data.draw(st.integers(1, 255))
        self.assert_loads_as_described(tmp_path_factory.mktemp("fhnn") / "f.fhnn", bytes(flipped))

    @given(encoder_states(), st.sampled_from(["version", "layers", "input width",
                                              "layer 0 width", "layer 0 activation"]),
           st.sampled_from([0, 1, 2**32 - 1]))
    @settings(max_examples=100, deadline=None)
    def test_header_field_set_to_an_extreme(self, tmp_path_factory, state, field, value):
        raw = fhnn_bytes(state)
        at = 4 + 4 * ["version", "layers", "input width",
                      "layer 0 width", "layer 0 activation"].index(field)
        data = raw[:at] + value.to_bytes(4, "little") + raw[at + 4:]
        self.assert_loads_as_described(tmp_path_factory.mktemp("fhnn") / "h.fhnn", data)

    @pytest.mark.parametrize("head", [
        [1, 2**32 - 1, 4],
        [1, 1, 2**32 - 1, 2**32 - 1, 0],
        [1, 1, 4, 2**32 - 1, 0],
    ], ids=["layers", "both-widths", "output-width"])
    def test_claimed_sizes_are_checked_before_allocating(self, tmp_path, head):
        path = tmp_path / "huge.fhnn"
        path.write_bytes(b"FHNN" + struct.pack(f"<{len(head)}I", *head) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
