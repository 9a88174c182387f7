"""Feature-to-code-space encoder: a small fully connected network.

Maps input_dim feature columns to K-dimensional real representations.
The final layer is affine with no activation, keeping representations
unbounded; quantization pressure comes from the training losses rather
than a saturating nonlinearity.  Forward, reverse-mode gradients, and
the SGD step are explicit so the whole pipeline stays dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import read_binary, write_binary
from .exceptions import DataError, NumericalError

CHECKPOINT_MAGIC = b"FHNN"
CHECKPOINT_VERSION = 1

_ACT_CODES = {"identity": 0, "relu": 1, "tanh": 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


@dataclass(frozen=True)
class EncoderSpec:
    """Architecture: input width, hidden (width, activation) pairs, K."""

    input_dim: int
    output_dim: int
    hidden_layers: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        layers = tuple((int(w), str(a)) for w, a in self.hidden_layers)
        object.__setattr__(self, "hidden_layers", layers)
        for width, act in layers:
            if width < 1:
                raise ValueError(f"hidden width must be >= 1, got {width}")
            if act not in _ACT_CODES:
                raise ValueError(f"unknown activation {act!r}; use one of {sorted(_ACT_CODES)}")


@dataclass
class EncoderState:
    """Per-layer weights (out x in), biases (out,), activation names.

    The last activation is always 'identity'.
    """

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]


def init_state(spec: EncoderSpec) -> EncoderState:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(spec.seed)
    dims = [spec.input_dim] + [w for w, _ in spec.hidden_layers] + [spec.output_dim]
    acts = [a for _, a in spec.hidden_layers] + ["identity"]
    state = EncoderState()
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], acts):
        bound = 1.0 / np.sqrt(fan_in)
        state.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        state.biases.append(np.zeros(fan_out))
        state.activations.append(act)
    return state


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activation_grad(name: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(np.float64)
    return 1.0 - out * out


def forward(state: EncoderState, x: np.ndarray):
    """Encode a batch of columns; returns (K x n outputs, cache).

    The cache holds every layer input and pre-activation for backward.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != state.input_dim:
        raise ValueError(
            f"expected input of shape ({state.input_dim}, n), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("non-finite entries in encoder input")
    inputs, pre = [], []
    a = x
    for w, b, act in zip(state.weights, state.biases, state.activations):
        inputs.append(a)
        z = w @ a + b[:, None]
        pre.append(z)
        a = _apply_activation(act, z)
    return a, {"inputs": inputs, "pre": pre}


def backward(state: EncoderState, cache, dl_du: np.ndarray):
    """Reverse-mode gradients of forward composed with upstream dl_du.

    Returns ((weight grads, bias grads), dl_dx).
    """
    dl_du = np.asarray(dl_du, dtype=np.float64)
    inputs, pre = cache["inputs"], cache["pre"]
    if len(inputs) != len(state.weights):
        raise ValueError("cache does not match encoder depth")
    if dl_du.shape != (state.output_dim, inputs[0].shape[1]):
        raise ValueError(
            f"upstream gradient shape {dl_du.shape} does not match "
            f"({state.output_dim}, {inputs[0].shape[1]})"
        )
    weight_grads = [None] * len(state.weights)
    bias_grads = [None] * len(state.weights)
    delta = dl_du
    for layer in range(len(state.weights) - 1, -1, -1):
        act = state.activations[layer]
        if act != "identity":
            # A hidden layer's output is the next layer's input.
            delta = delta * _activation_grad(act, pre[layer], inputs[layer + 1])
        weight_grads[layer] = delta @ inputs[layer].T
        bias_grads[layer] = delta.sum(axis=1)
        delta = state.weights[layer].T @ delta
    return (weight_grads, bias_grads), delta


class SGD:
    """Minibatch SGD with optional classical momentum (0 = plain)."""

    def __init__(self, lr: float, weight_decay: float = 0.0, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self._velocity = None

    def step(self, state: EncoderState, grads) -> EncoderState:
        """params - lr * v with v = momentum * v + grads + weight_decay * params."""
        weight_grads, bias_grads = grads
        for g in (*weight_grads, *bias_grads):
            if not np.isfinite(g).all():
                raise NumericalError("refusing SGD step: non-finite gradient")
        if self._velocity is None:
            self._velocity = (
                [np.zeros_like(w) for w in state.weights],
                [np.zeros_like(b) for b in state.biases],
            )
        vw, vb = self._velocity
        new = EncoderState(activations=list(state.activations))
        for i, (w, b) in enumerate(zip(state.weights, state.biases)):
            vw[i] = self.momentum * vw[i] + weight_grads[i] + self.weight_decay * w
            vb[i] = self.momentum * vb[i] + bias_grads[i] + self.weight_decay * b
            new.weights.append(w - self.lr * vw[i])
            new.biases.append(b - self.lr * vb[i])
        return new


def save_checkpoint(state: EncoderState, path) -> None:
    """FHNN header (layers, input width), a (width, activation code) u32
    pair per layer, then each layer's weights and biases as LE f64."""
    table = [(w.shape[0], _ACT_CODES[act]) for w, act in zip(state.weights, state.activations)]
    params = (p.astype("<f8").tobytes() for wb in zip(state.weights, state.biases) for p in wb)
    write_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(state.weights), state.input_dim,
                 np.array(table, dtype="<u4").tobytes(), *params)


def load_checkpoint(path) -> EncoderState:
    """Read an FHNN checkpoint; every size the header claims is checked
    against the bytes present before anything is allocated for it.

    The payload must end with the last layer, and the last layer's
    activation must be identity, as `init_state` always writes it.
    """
    num_layers, input_dim, payload = read_binary(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "encoder checkpoint")
    if num_layers == 0 or input_dim == 0:
        raise DataError(f"{path}: {num_layers} layers of input width {input_dim}; both must be >= 1")
    if 8 * num_layers > len(payload):
        raise DataError(f"{path}: truncated layer table")
    layer_meta = np.frombuffer(payload, dtype="<u4", count=2 * num_layers).reshape(-1, 2)
    offset = 8 * num_layers
    state = EncoderState()
    fan_in = input_dim
    for idx, (out_dim, act_code) in enumerate(layer_meta.tolist()):
        if act_code not in _ACT_NAMES:
            raise DataError(f"{path}: unknown activation code {act_code}")
        if out_dim == 0:
            raise DataError(f"{path}: layer {idx} has output width 0")
        if offset + 8 * out_dim * (fan_in + 1) > len(payload):
            raise DataError(f"{path}: truncated parameters at layer {idx}")
        w = np.frombuffer(payload, dtype="<f8", count=out_dim * fan_in, offset=offset)
        offset += w.nbytes
        b = np.frombuffer(payload, dtype="<f8", count=out_dim, offset=offset)
        offset += b.nbytes
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise DataError(f"{path}: non-finite parameters at layer {idx}")
        state.weights.append(w.reshape(out_dim, fan_in).copy())
        state.biases.append(b.copy())
        state.activations.append(_ACT_NAMES[act_code])
        fan_in = out_dim
    if offset != len(payload):
        raise DataError(f"{path}: {len(payload) - offset} bytes after the last layer")
    if state.activations[-1] != "identity":
        raise DataError(f"{path}: last layer's activation is {state.activations[-1]}, not identity")
    return state
