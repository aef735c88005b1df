"""Dense and temporal-convolution building blocks with explicit parameters.

Parameters live in flat dicts mapping dotted names to float64 arrays; the
layer classes only hold architecture and state their layout once, in
`param_shapes`. tanh is their one nonlinearity. `init_params` draws values
for any such layout. Training wraps the arrays in tape Vars, runs a graph,
and reads gradients back out, so the same forward code serves both training
and (constant-input) inference.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from . import autodiff as ad

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
    """Fully connected stack; tanh between layers, linear output.

    sizes = (n_in, h1, ..., n_out), all positive (`ModelSettings` checks).
    A two-element `sizes` is a single linear map with no nonlinearity anywhere.
    """

    def __init__(self, sizes: Sequence[int]):
        self.sizes = tuple(int(s) for s in sizes)

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
                x = ad.tanh(x)
        return x


class TemporalConv:
    """Stack of same-padded 1-D convolutions, each followed by tanh, plus a
    per-frame linear head.

    Maps (B, T, c_in) to (B, T, c_out). Each of n_layers >= 1 convs, with an odd
    kernel (as `ModelSettings` checks), widens the receptive field by kernel - 1.
    """

    def __init__(self, c_in: int, c_out: int, hidden: int, n_layers: int, kernel: int = 5):
        self.c_in, self.c_out, self.hidden = c_in, c_out, hidden
        self.n_layers, self.kernel = n_layers, kernel

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
            x = ad.tanh(x)
        return x @ params[f"{prefix}head.w"] + params[f"{prefix}head.b"]


def param_vars(params: Mapping[str, np.ndarray]) -> dict[str, ad.Var]:
    return {k: ad.Var(v) for k, v in params.items()}


def gradients(pvars: Mapping[str, ad.Var]) -> dict[str, np.ndarray]:
    """Read gradients after backward(); parameters a loss never touched get zeros."""
    return {
        k: (np.zeros_like(v.data) if v.grad is None else v.grad) for k, v in pvars.items()
    }


# Elements per Adam pass over a large parameter: 128 KiB of float64, so every
# intermediate of a pass stays in L2.
_CHUNK = 16384


class Adam:
    """Adaptive-moment gradient descent with bias correction (Kingma & Ba,
    arXiv 1412.6980); updates parameters and moments in place.

    A parameter longer than one chunk is updated in chunks of its flat view,
    with every intermediate in two chunk-length scratch buffers. Each element
    goes through the same ops in the same order as the whole-array update

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr * (m/c1)) / (sqrt(v/c2) + eps),  c = 1 - b**t

    so the result is bit-equal to it. A parameter longer than one chunk
    must be C-contiguous, or its flat view would be a copy.
    """

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
        self._m = {k: np.zeros(v.shape) for k, v in params.items()}
        self._v = {k: np.zeros(v.shape) for k, v in params.items()}
        scratch = np.empty((2, min(_CHUNK, max((v.size for v in params.values()), default=0))))
        # a parameter of one chunk or less runs whole, on buffer views of its shape
        self._scratch = {
            k: (scratch[0, : v.size].reshape(v.shape), scratch[1, : v.size].reshape(v.shape))
            if v.size <= _CHUNK
            else (scratch[0], scratch[1])
            for k, v in params.items()
        }

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        d1, d2 = 1.0 - b1, 1.0 - b2
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for key, g in grads.items():
            p, m, v = params[key], self._m[key], self._v[key]
            a, b = self._scratch[key]
            if p.size <= _CHUNK:
                blocks = ((p, g, m, v, a, b),)
            elif p.flags.c_contiguous:
                blocks = _chunks(p, g, m, v, a, b)
            else:
                raise ValueError(f"Adam updates {key!r} through a flat view; it must be C-contiguous")
            # out= passed positionally: the keyword costs a parse per call
            for p, g, m, v, a, b in blocks:
                m *= b1
                m += np.multiply(d1, g, a)
                v *= b2
                np.multiply(d2, g, a)
                v += np.multiply(a, g, a)
                np.divide(m, c1, a)
                np.multiply(lr, a, a)
                np.divide(v, c2, b)
                np.sqrt(b, b)
                b += eps
                p -= np.divide(a, b, a)


def _chunks(p, g, m, v, a, b):
    """(p, g, m, v, a, b) blocks of at most _CHUNK elements of the flat views."""
    p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for start in range(0, p.size, _CHUNK):
        n = min(_CHUNK, p.size - start)
        end = start + n
        yield p[start:end], g[start:end], m[start:end], v[start:end], a[:n], b[:n]
