"""Reverse-mode tape: every op's gradient against central finite differences."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import WholeArrayAdam
from oracles import backward as backward_oracle
from oracles import conv1d_same as conv1d_same_oracle
from speechmotion import autodiff as ad
from speechmotion import nn


def _fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2 * h)
    return grad


def _check(build, x0, atol=1e-7):
    """build(Var) -> scalar Var; compares tape gradient to finite differences."""
    x0 = np.asarray(x0, dtype=np.float64)
    var = ad.Var(x0.copy())
    out = build(var)
    out.backward()
    fd = _fd_grad(lambda x: float(build(ad.Var(x)).data), x0.copy())
    assert np.abs(var.grad - fd).max() < atol


RNG = np.random.default_rng(0)


def test_add_broadcast():
    b = ad.Var(RNG.normal(size=(3,)))
    _check(lambda x: ad.sum(ad.add(x, b)), RNG.normal(size=(2, 3)))


def test_add_broadcast_gradient_of_smaller_side():
    a0 = RNG.normal(size=(2, 3))
    a = ad.Var(a0)
    _check(lambda b: ad.sum(ad.add(a, b)), RNG.normal(size=(3,)))


def test_mul_elementwise_and_broadcast():
    b = ad.Var(RNG.normal(size=(2, 3)))
    _check(lambda x: ad.sum(ad.mul(x, b)), RNG.normal(size=(2, 3)))
    _check(lambda x: ad.sum(ad.mul(x, b)), RNG.normal(size=(3,)))


def test_scalar_times_var():
    _check(lambda x: 2.5 * ad.sum(x), RNG.normal(size=(4,)))


def test_matmul_2d():
    b = ad.Var(RNG.normal(size=(3, 4)))
    _check(lambda x: ad.sum(ad.matmul(x, b)), RNG.normal(size=(2, 3)))
    a = ad.Var(RNG.normal(size=(2, 3)))
    _check(lambda x: ad.sum(ad.matmul(a, x)), RNG.normal(size=(3, 4)))


def test_matmul_batched_times_2d():
    w = ad.Var(RNG.normal(size=(3, 5)))
    _check(lambda x: ad.sum(ad.matmul(x, w)), RNG.normal(size=(2, 4, 3)))
    x = ad.Var(RNG.normal(size=(2, 4, 3)))
    _check(lambda w2: ad.sum(ad.matmul(x, w2)), RNG.normal(size=(3, 5)))


def test_unary_ops():
    _check(lambda x: ad.sum(ad.tanh(x)), RNG.normal(size=(5,)))
    _check(lambda x: ad.sum(ad.exp(x)), RNG.normal(size=(5,)))
    _check(lambda x: ad.sum(ad.sqrt(x)), RNG.uniform(0.5, 2.0, size=(5,)))
    _check(lambda x: ad.sum(ad.softplus(x)), RNG.normal(size=(5,)) * 3)


def test_absolute_away_from_kink():
    x0 = np.array([-2.0, -0.5, 0.7, 1.5])
    _check(lambda x: ad.sum(ad.absolute(x)), x0)


def test_sum_with_axis_and_mean():
    _check(lambda x: ad.sum(ad.mul(ad.sum(x, axis=0), ad.sum(x, axis=0))), RNG.normal(size=(3, 4)))
    _check(lambda x: ad.mean(x), RNG.normal(size=(3, 4)))


def test_concat_and_reshape():
    b = ad.Var(RNG.normal(size=(2, 3)))
    _check(lambda x: ad.sum(ad.exp(ad.concat([x, b], axis=1))), RNG.normal(size=(2, 2)))
    _check(lambda x: ad.sum(ad.mul(ad.reshape(x, (6,)), ad.Var(np.arange(6.0)))), RNG.normal(size=(2, 3)))


def test_take_and_scatter_rows():
    idx = np.array([0, 2])
    _check(lambda x: ad.sum(ad.exp(ad.take_rows(x, idx))), RNG.normal(size=(3, 2)))
    _check(lambda x: ad.sum(ad.exp(ad.scatter_rows(x, idx, 4))), RNG.normal(size=(2, 2)))


def test_conv1d_same():
    w = ad.Var(RNG.normal(size=(3, 2, 4)))
    b = ad.Var(RNG.normal(size=(4,)))
    _check(lambda x: ad.sum(ad.tanh(ad.conv1d_same(x, w, b))), RNG.normal(size=(2, 5, 2)))
    x = ad.Var(RNG.normal(size=(2, 5, 2)))
    _check(lambda w2: ad.sum(ad.tanh(ad.conv1d_same(x, w2, b))), RNG.normal(size=(3, 2, 4)))
    _check(lambda b2: ad.sum(ad.tanh(ad.conv1d_same(x, w, b2))), RNG.normal(size=(4,)))


# (batch, t_frames, c_in, c_out): the quality classifier's two layers, the rhythm
# TCN at the paper, benchmark-small and t_frames-16 sizes, batch 1, and the two
# shapes where collapsing the input-gradient GEMM over the batch rounds differently
CONV_SHAPES = [
    (12, 64, 24, 8), (12, 64, 8, 8), (2, 64, 24, 8), (1, 64, 24, 8),
    (32, 64, 26, 128), (8, 64, 128, 128), (1, 64, 128, 128),
    (16, 64, 26, 64), (16, 64, 64, 64), (1, 16, 26, 8), (7, 16, 8, 8), (16, 16, 26, 16),
    (3, 16, 26, 64), (3, 30, 26, 64), (4, 4, 3, 4),
]


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "{}x{}x{}-{}".format(*s))
def test_conv1d_same_matches_per_sample_oracle_bit_for_bit(shape):
    n, t, c_in, c_out = shape
    rng = np.random.default_rng(sum(shape))
    x0, w0, b0 = rng.normal(size=(n, t, c_in)), rng.normal(size=(5, c_in, c_out)), rng.normal(size=c_out)
    g0 = rng.normal(size=(n, t, c_out))
    results = []
    for conv in (ad.conv1d_same, conv1d_same_oracle):
        x, w, b = ad.Var(x0), ad.Var(w0), ad.Var(b0)
        out = conv(x, w, b)
        ad.sum(ad.mul(out, ad.Var(g0))).backward()  # upstream gradient is exactly g0
        results.append((out.data, x.grad, w.grad, b.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def _grads_with(make_operand, build, operands):
    """build(*vars) on the tape; the operand at index 0 is made by make_operand."""
    vars_ = [make_operand(operands[0])] + [ad.Var(a) for a in operands[1:]]
    ad.sum(ad.tanh(build(*vars_))).backward()
    return [v.grad for v in vars_]


@pytest.mark.parametrize(
    "build, operands",
    [
        (lambda x, w, b: ad.conv1d_same(x, w, b), [RNG.normal(size=s) for s in ((2, 6, 3), (3, 3, 4), (4,))]),
        (lambda w, x, b: ad.conv1d_same(x, w, b), [RNG.normal(size=s) for s in ((3, 3, 4), (2, 6, 3), (4,))]),
        (lambda a, b: ad.matmul(a, b), [RNG.normal(size=s) for s in ((2, 5, 3), (3, 4))]),
        (lambda b, a: ad.matmul(a, b), [RNG.normal(size=s) for s in ((3, 4), (2, 5, 3))]),
    ],
    ids=["conv-x", "conv-w", "matmul-a", "matmul-b"],
)
def test_constant_operand_takes_no_gradient(build, operands):
    const_grads = _grads_with(ad.constant, build, operands)
    var_grads = _grads_with(ad.Var, build, operands)
    assert const_grads[0] is None
    assert var_grads[0] is not None
    for got, want in zip(const_grads[1:], var_grads[1:]):
        assert np.array_equal(got, want)


def test_backward_never_accumulates_into_a_constant():
    y = ad.constant(np.array([1.0, 2.0]))
    x = ad.Var(np.array([0.5, -0.5]))
    ad.sum(ad.mul(y, x) + y).backward()
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, y.data)


def test_reuse_accumulates_gradient():
    x = ad.Var(np.array([1.5, -0.5]))
    out = ad.sum(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    out.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)


def _fan_in_graph(x0, y0, z0):
    """A scalar over leaves reached several times each, through ops whose VJPs
    hand on `g` itself, the same `g` twice, or views of it."""
    x, y, z = ad.Var(x0), ad.Var(y0), ad.Var(z0)
    a = ad.add(x, x)  # the same g to both parents
    b = ad.add(x, y)  # x takes g itself, y a broadcast sum
    c = ad.concat([ad.reshape(x, (2, 6)), ad.reshape(b, (2, 6)), z], axis=0)  # views of g
    d = ad.mul(ad.sum(x, axis=0), y)
    root = (ad.sum(ad.tanh(a)) + ad.sum(ad.tanh(c)) + ad.sum(d) + ad.mean(ad.exp(b))
            + ad.mean(x) + ad.sum(ad.mul(z, z)))
    return root, (x, y, z)


def _nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_in_place_fan_in_matches_out_of_place_walk_without_aliasing():
    operands = [RNG.normal(size=s) for s in ((3, 4), (4,), (2, 6))]
    root, leaves = _fan_in_graph(*operands)
    arrivals = []  # every VJP's input g, with a copy taken before the VJP ran

    def recording(vjp):
        def wrapped(g):
            arrivals.append((g, np.array(g, copy=True)))
            return vjp(g)
        return wrapped

    for node in _nodes(root):
        if node._vjp is not None:
            node._vjp = recording(node._vjp)
    root.backward()
    want_root, want_leaves = _fan_in_graph(*operands)
    backward_oracle(want_root)

    for got, want in zip(leaves, want_leaves):
        assert np.array_equal(got.grad, want.grad)
    for i, first in enumerate(leaves):
        for second in leaves[i + 1 :]:
            assert not np.shares_memory(first.grad, second.grad)
    assert len(arrivals) > 10
    for g, before in arrivals:
        assert np.array_equal(g, before)


def test_backward_frees_intermediate_activations():
    x = ad.Var(RNG.normal(size=(64, 32)))
    h = ad.tanh(x)
    activation = weakref.ref(h.data)
    root = ad.sum(h)
    del h
    root.backward()
    assert activation() is None  # nothing left of the graph holds tanh's output
    np.testing.assert_array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)


def test_second_backward_on_a_consumed_graph_raises():
    x = ad.Var(RNG.normal(size=(3,)))
    root = ad.sum(ad.exp(x))
    root.backward()
    with pytest.raises(ValueError, match="consumed"):
        root.backward()


def test_backward_requires_scalar():
    x = ad.Var(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.add(x, x).backward()


def test_operator_sugar_matches_functions():
    a0, b0 = RNG.normal(size=(3,)), RNG.normal(size=(3,))
    a, b = ad.Var(a0), ad.Var(b0)
    assert np.allclose((a - b).data, a0 - b0)
    assert np.allclose((-a).data, -a0)
    assert np.allclose((2.0 - a).data, 2.0 - a0)
    assert np.allclose((a @ ad.Var(np.eye(3))).data, a0)


# -- nn layer shells --------------------------------------------------------------------


def test_mlp_shapes_and_param_count():
    mlp = nn.MLP((4, 7, 3))
    params = nn.init_params(mlp.param_shapes(), np.random.default_rng(0))
    assert params["w0"].shape == (4, 7)
    assert params["b1"].shape == (3,)
    assert sum(math.prod(s) for s in mlp.param_shapes().values()) == 4 * 7 + 7 + 7 * 3 + 3
    out = mlp.apply(nn.param_vars(params), ad.Var(np.zeros((2, 4))))
    assert out.shape == (2, 3)


def test_mlp_two_sizes_is_pure_linear():
    mlp = nn.MLP((3, 3))
    params = {"w0": np.eye(3), "b0": np.zeros(3)}
    x = RNG.normal(size=(2, 3))
    out = mlp.apply(nn.param_vars(params), ad.Var(x))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_mlp_gradient_through_layers():
    mlp = nn.MLP((3, 4, 2))
    params = nn.init_params(mlp.param_shapes(), np.random.default_rng(1))
    x = RNG.normal(size=(2, 3))

    def loss_of(w0):
        p = dict(params, w0=w0)
        return float(ad.sum(mlp.apply(nn.param_vars(p), ad.Var(x))).data)

    pv = nn.param_vars(params)
    out = ad.sum(mlp.apply(pv, ad.Var(x)))
    out.backward()
    fd = _fd_grad(loss_of, params["w0"].copy())
    assert np.abs(pv["w0"].grad - fd).max() < 1e-7


def test_temporal_conv_shapes():
    net = nn.TemporalConv(c_in=3, c_out=5, hidden=4, n_layers=2, kernel=3)
    params = nn.init_params(net.param_shapes(), np.random.default_rng(2))
    out = net.apply(nn.param_vars(params), ad.Var(np.zeros((2, 7, 3))))
    assert out.shape == (2, 7, 5)


def test_gradients_zero_for_untouched_params():
    params = {"used": np.ones(2), "unused": np.ones(3)}
    pv = nn.param_vars(params)
    ad.sum(ad.mul(pv["used"], pv["used"])).backward()
    grads = nn.gradients(pv)
    np.testing.assert_allclose(grads["used"], 2.0)
    np.testing.assert_allclose(grads["unused"], 0.0)


def test_adam_single_step_matches_hand_update():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.25])}
    opt = nn.Adam(params, lr=0.1)
    opt.step(params, grads)
    # bias-corrected first step moves by lr * g / (|g| + eps) ~= lr * sign(g)
    m_hat = grads["w"]  # m / (1 - beta1)
    v_hat = grads["w"] ** 2  # v / (1 - beta2)
    expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(params["w"], expected, atol=1e-12)


# chunk-relative sizes (below, at, one over and a multiple of a chunk), a bias
# and the paper model's conv weight, all stepped by one optimizer
ADAM_SHAPES = {
    "below": (nn._CHUNK - 1,),
    "at": (nn._CHUNK // 128, 128),
    "over": (nn._CHUNK + 1,),
    "multiple": (3, nn._CHUNK),
    "bias": (128,),
    "conv": (5, 128, 128),
}


def test_adam_matches_whole_array_oracle_bit_for_bit():
    rng = np.random.default_rng(9)
    init = {k: rng.normal(size=s) for k, s in ADAM_SHAPES.items()}
    got, want = {k: v.copy() for k, v in init.items()}, {k: v.copy() for k, v in init.items()}
    opt, ref = nn.Adam(got, lr=1e-3), WholeArrayAdam(want, lr=1e-3)
    for _ in range(30):
        grads = {k: rng.normal(scale=rng.uniform(1e-4, 10.0), size=s) for k, s in ADAM_SHAPES.items()}
        opt.step(got, grads)
        ref.step(want, grads)
    for key in ADAM_SHAPES:
        assert np.array_equal(got[key], want[key]), key
        assert np.array_equal(opt._m[key], ref._m[key]), key
        assert np.array_equal(opt._v[key], ref._v[key]), key


def test_adam_step_allocates_no_parameter_sized_temporaries():
    params = {"w": np.random.default_rng(10).normal(size=(2048, 1024))}  # 16 MB
    grads = {"w": np.random.default_rng(11).normal(size=(2048, 1024))}
    opt = nn.Adam(params)
    tracemalloc.start()
    try:
        opt.step(params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_adam_rejects_a_non_contiguous_large_parameter():
    params = {"w": np.zeros((nn._CHUNK + 1, 2)).T}
    opt = nn.Adam(params)
    with pytest.raises(ValueError, match="C-contiguous"):
        opt.step(params, {"w": np.ones((2, nn._CHUNK + 1))})
