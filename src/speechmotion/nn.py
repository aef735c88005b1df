"""Dense and temporal-convolution building blocks with explicit parameters.

Parameters live in flat dicts mapping dotted names to float64 arrays; the
layer classes only hold architecture and state their layout once, in
`param_shapes`. `init_params` draws values for any such layout. Training
wraps the arrays in tape Vars, runs a graph, and reads gradients back out,
so the same forward code serves both training and (constant-input)
inference.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from . import autodiff as ad

_ACTIVATIONS = {"tanh": ad.tanh, "relu": ad.relu}


def activation_fn(name: str):
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(_ACTIVATIONS)}")
    return _ACTIVATIONS[name]


def init_params(
    shapes: Mapping[str, tuple[int, ...]], rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Initial values for a layout, drawn in its key order.

    1-D shapes (biases) get zeros and draw nothing. Other shapes get the
    Glorot-uniform draw (Glorot & Bengio, AISTATS 2010) with the leading axes
    as receptive field: fan_in = rf * shape[-2] and fan_out = rf * shape[-1],
    rf = prod(shape[:-2]).
    """
    params: dict[str, np.ndarray] = {}
    for key, shape in shapes.items():
        if len(shape) == 1:
            params[key] = np.zeros(shape)
        else:
            rf = math.prod(shape[:-2])
            limit = np.sqrt(6.0 / (rf * shape[-2] + rf * shape[-1]))
            params[key] = rng.uniform(-limit, limit, size=shape)
    return params


class MLP:
    """Fully connected stack; activation between layers, linear output.

    sizes = (n_in, h1, ..., n_out). A two-element `sizes` is a single linear
    map with no nonlinearity anywhere.
    """

    def __init__(self, sizes: Sequence[int], activation: str = "tanh"):
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"bad layer sizes {sizes!r}")
        self.sizes = tuple(int(s) for s in sizes)
        self.activation = activation
        self._act = activation_fn(activation)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for i, (n_in, n_out) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            shapes[f"w{i}"] = (n_in, n_out)
            shapes[f"b{i}"] = (n_out,)
        return shapes

    def apply(self, params: Mapping[str, ad.Var], x: ad.Var, prefix: str = "") -> ad.Var:
        n_layers = len(self.sizes) - 1
        for i in range(n_layers):
            x = x @ params[f"{prefix}w{i}"] + params[f"{prefix}b{i}"]
            if i < n_layers - 1:
                x = self._act(x)
        return x


class TemporalConv:
    """Stack of same-padded 1-D convolutions plus a per-frame linear head.

    Maps (B, T, c_in) to (B, T, c_out); the receptive field grows by
    kernel - 1 frames per conv layer.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        hidden: int,
        n_layers: int,
        kernel: int = 5,
        activation: str = "tanh",
    ):
        if n_layers < 1:
            raise ValueError("need at least one conv layer")
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError("kernel must be a positive odd size")
        self.c_in, self.c_out, self.hidden = c_in, c_out, hidden
        self.n_layers, self.kernel = n_layers, kernel
        self.activation = activation
        self._act = activation_fn(activation)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        widths = [self.c_in] + [self.hidden] * self.n_layers
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            shapes[f"conv{i}.w"] = (self.kernel, a, b)
            shapes[f"conv{i}.b"] = (b,)
        shapes["head.w"] = (self.hidden, self.c_out)
        shapes["head.b"] = (self.c_out,)
        return shapes

    def apply(self, params: Mapping[str, ad.Var], x: ad.Var, prefix: str = "") -> ad.Var:
        for i in range(self.n_layers):
            x = ad.conv1d_same(x, params[f"{prefix}conv{i}.w"], params[f"{prefix}conv{i}.b"])
            x = self._act(x)
        return x @ params[f"{prefix}head.w"] + params[f"{prefix}head.b"]


def param_vars(params: Mapping[str, np.ndarray]) -> dict[str, ad.Var]:
    return {k: ad.Var(v) for k, v in params.items()}


def gradients(pvars: Mapping[str, ad.Var]) -> dict[str, np.ndarray]:
    """Read gradients after backward(); parameters a loss never touched get zeros."""
    return {
        k: (np.zeros_like(v.data) if v.grad is None else v.grad) for k, v in pvars.items()
    }


class Adam:
    """Adaptive-moment gradient descent with bias correction; updates in place."""

    def __init__(
        self,
        params: Mapping[str, np.ndarray],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for key, g in grads.items():
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
