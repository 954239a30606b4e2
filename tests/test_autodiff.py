"""Gradient checks for every differentiable primitive plus fused ops.

Analytic gradients are compared against central differences (h=1e-5) in
float64; the relative error bound is 1e-4 with a max(1, |g|) denominator.
"""

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap.autodiff import Tape, Tensor, backward

H = 1e-5
TOL = 1e-4


def numeric_grad(f, arrays, which, h=H):
    """Central-difference gradient of scalar f wrt arrays[which]."""
    x = arrays[which]
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(arrays)
        flat[i] = keep - h
        down = f(arrays)
        flat[i] = keep
        gflat[i] = (up - down) / (2 * h)
    return g


def check_grads(build, arrays, grad_indices=None):
    """build(tensors) -> scalar Tensor; compares every requested input grad."""
    if grad_indices is None:
        grad_indices = range(len(arrays))
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(tensors)
        grads = backward(loss, tape)

    def f(arrs):
        ts = [Tensor(a, requires_grad=False) for a in arrs]
        return float(build(ts).data)

    for i in grad_indices:
        analytic = grads.get(tensors[i])
        assert analytic is not None, f"input {i} got no gradient"
        numeric = numeric_grad(f, arrays, i)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < TOL, f"input {i}: rel err {rel.max():.3e}"


def _weights(rng, shape):
    # fixed mixing weights turn any output into a scalar probe
    return Tensor(rng.normal(size=shape), requires_grad=False)


def test_add_mul_scale_broadcast():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        row = rng.normal(size=(1, 4))
        w = _weights(rng, (3, 4))

        check_grads(lambda t: ad.sum_reduce(ad.mul(ad.add(t[0], t[1]), w)), [a, b])
        # rows must be broadcast explicitly; bare add/mul want exact shapes
        check_grads(
            lambda t: ad.sum_reduce(ad.mul(ad.add(t[0], ad.broadcast_to(t[1], (3, 4))), w)),
            [a, row.copy()],
        )
        check_grads(
            lambda t: ad.sum_reduce(ad.mul(ad.mul(t[0], ad.broadcast_to(t[1], (3, 4))), w)),
            [a, row.copy()],
        )
        check_grads(lambda t: ad.sum_reduce(ad.mul(ad.scale(t[0], -2.5), w)), [a])
        # size-1 scalar operands are the one sanctioned implicit broadcast
        s = np.array([0.7])
        check_grads(lambda t: ad.sum_reduce(ad.mul(ad.mul(t[0], t[1]), w)), [a, s.copy()])


def test_add_shape_mismatch_rejected():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.mul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4,))))


def test_matmul_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 2))
    w = _weights(rng, (3, 2))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.matmul(t[0], t[1]), w)), [a, b])
    # batched activations against one shared weight matrix
    a3 = rng.normal(size=(4, 3, 5))
    w3 = _weights(rng, (4, 3, 2))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.matmul(t[0], t[1]), w3)), [a3, b])
    # both sides batched
    b3 = rng.normal(size=(4, 5, 2))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.matmul(t[0], t[1]), w3)), [a3, b3])


def test_linear_forward_and_grads():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 4, 3, 5))
    w = rng.normal(size=(5, 6))
    b = rng.normal(size=(6,))
    # the forward is matmul plus the broadcast bias, bit for bit
    out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
    assert np.array_equal(out.data, x @ w + b)
    mix = _weights(rng, (2, 4, 3, 6))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.linear(t[0], t[1], t[2]), mix)), [x, w, b])
    # one recorded op; without a bias it is a plain matmul
    with Tape() as tape:
        ad.linear(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))
        ad.linear(Tensor(x, requires_grad=True), Tensor(w))
    assert [node.op for node in tape.nodes] == ["linear", "matmul"]
    with pytest.raises(ValueError):
        ad.linear(Tensor(x), Tensor(w), Tensor(np.zeros(5)))


def test_elementwise_nonlinearities():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    x[np.abs(x) < 0.05] += 0.2  # keep relu away from its kink
    w = _weights(rng, (4, 3))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.relu(t[0]), w)), [x])
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.gelu(t[0]), w)), [x])
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.sigmoid(t[0]), w)), [x])


def test_embedding_grad():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(7, 4))
    ids = [0, 3, 3, 6, 1]
    w = _weights(rng, (5, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.embedding(t[0], ids), w)), [table])
    with pytest.raises(ValueError):
        ad.embedding(Tensor(table), [7])


def test_shape_ops_grads():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 1, 4))
    w_cat = _weights(rng, (2, 4, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.concat([t[0], t[1]], 1), w_cat)), [a, b])

    w_flat = _weights(rng, (6, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.reshape(t[0], (6, 4)), w_flat)), [a])

    w_t = _weights(rng, (4, 2, 3))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.transpose(t[0], (2, 0, 1)), w_t)), [a])

    w_b = _weights(rng, (2, 3, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.broadcast_to(t[0], (2, 3, 4)), w_b)), [b])
    small = rng.normal(size=(3, 1))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.broadcast_to(t[0], (2, 3, 4)), w_b)), [small])

    w_s = _weights(rng, (2, 2, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.slice_axis(t[0], 1, 1, 3), w_s)), [a])

    w_r = _weights(rng, (2, 3, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.roll(t[0], (1, -2), (0, 2)), w_r)), [a])


def test_reduce_grads():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 5))
    w = _weights(rng, (3,))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.mean_reduce(t[0], 1), w)), [a])
    # well-separated values keep max differentiable at the check points
    m = np.arange(15, dtype=np.float64).reshape(3, 5)
    m += rng.normal(size=(3, 5)) * 0.01
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.max_reduce(t[0], 1), w)), [m])
    check_grads(lambda t: ad.sum_reduce(t[0]), [a])
    w2 = _weights(rng, (5,))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.sum_reduce(t[0], 0), w2)), [a])


def test_max_reduce_routes_to_first_argmax():
    a = Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]), requires_grad=True)
    with Tape() as tape:
        out = ad.max_reduce(a, 1)
        grads = backward(ad.sum_reduce(out), tape)
    assert np.array_equal(grads[a], [[0.0, 1.0, 0.0, 0.0]])


def test_dropout_grad_fixed_mask():
    base = np.random.default_rng(6)
    x = base.normal(size=(4, 4))
    w = _weights(base, (4, 4))

    def build(t):
        rng = np.random.default_rng(99)  # same mask on every call
        return ad.sum_reduce(ad.mul(ad.dropout(t[0], 0.5, rng, training=True), w))

    check_grads(build, [x])


def test_dropout_modes():
    x = Tensor(np.ones((1000,)))
    out = ad.dropout(x, 0.4, None, training=False)
    assert np.array_equal(out.data, x.data)
    rng = np.random.default_rng(0)
    out = ad.dropout(x, 0.4, rng, training=True)
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1.0 / 0.6)
    assert 0.45 < kept.mean() < 0.75
    with pytest.raises(ValueError):
        ad.dropout(x, 0.4, None, training=True)


def test_softmax_grad_and_values():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4)) * 3
    w = _weights(rng, (3, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.softmax(t[0]), w)), [x])

    out = ad.softmax(Tensor(np.array([0.0, np.log(3.0)])))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)
    with pytest.raises(ValueError, match="non-finite"):
        ad.softmax(Tensor(np.array([np.inf, 0.0])))


def test_layer_norm_grads():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 6))
    gamma = rng.normal(size=(6,))
    beta = rng.normal(size=(6,))
    w = _weights(rng, (3, 6))
    check_grads(
        lambda t: ad.sum_reduce(ad.mul(ad.layer_norm(t[0], t[1], t[2], eps=1e-8), w)),
        [x, gamma, beta],
    )
    y = ad.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)))
    assert np.allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(y.data.std(axis=-1), 1.0, atol=1e-6)


def test_cross_entropy_values_and_grad():
    rng = np.random.default_rng(9)
    # uniform logits over 4 classes -> ln 4
    ce = ad.cross_entropy_masked(Tensor(np.zeros((1, 4))), [2], ignore_id=0)
    assert abs(float(ce.data) - np.log(4.0)) < 1e-12
    # a confident correct prediction
    ce = ad.cross_entropy_masked(Tensor(np.array([[10.0, 0.0]])), [0], ignore_id=-1)
    assert abs(float(ce.data) - 4.5398899216870535e-05) < 1e-12

    logits = rng.normal(size=(6, 5))
    targets = [1, 0, 0, 4, 2, 3]  # two entries ignored below
    check_grads(lambda t: ad.cross_entropy_masked(t[0], targets, ignore_id=0), [logits])

    with pytest.raises(ValueError, match="empty loss"):
        ad.cross_entropy_masked(Tensor(np.zeros((2, 3))), [1, 1], ignore_id=1)
    with pytest.raises(ValueError):
        ad.cross_entropy_masked(Tensor(np.zeros((1, 3))), [3], ignore_id=0)


def test_batched_cross_entropy_is_mean_of_row_means():
    rng = np.random.default_rng(14)
    logits = rng.normal(size=(3, 5, 4))
    # right-padded rows of 5, 2 and 4 real targets (0 is the pad id)
    targets = np.array([[1, 2, 3, 1, 2], [3, 1, 0, 0, 0], [2, 2, 1, 3, 0]])
    rows = [
        float(ad.cross_entropy_masked(Tensor(logits[r]), targets[r], ignore_id=0).data) for r in range(3)
    ]
    got = float(ad.cross_entropy_masked(Tensor(logits), targets, ignore_id=0).data)
    assert abs(got - np.mean(rows)) < 1e-15
    check_grads(lambda t: ad.cross_entropy_masked(t[0], targets, ignore_id=0), [logits])

    with pytest.raises(ValueError, match="do not match"):
        ad.cross_entropy_masked(Tensor(logits), targets[:, :4], ignore_id=0)
    with pytest.raises(ValueError, match="empty loss"):
        ad.cross_entropy_masked(Tensor(logits), np.where(np.arange(3)[:, None] == 1, 0, targets), ignore_id=0)


def test_bce_values_and_grad():
    rng = np.random.default_rng(10)
    v = float(ad.bce_with_logits(Tensor(np.zeros(1)), np.array([1.0])).data)
    assert abs(v - np.log(2.0)) < 1e-12
    v = float(ad.bce_with_logits(Tensor(np.array([-20.0])), np.array([1.0])).data)
    assert abs(v - 20.0) < 1e-6  # log1p(exp(-20)) vanishes at this scale

    logits = rng.normal(size=(8,)) * 4
    targets = (rng.random(8) > 0.5).astype(np.float64)
    check_grads(lambda t: ad.bce_with_logits(t[0], targets), [logits])

    with pytest.raises(ValueError):
        ad.bce_with_logits(Tensor(np.zeros(2)), np.array([0.5, 1.0]))


def test_random_compositions():
    rng = np.random.default_rng(11)

    # tiny MLP with layer norm and softmax head
    x = rng.normal(size=(4, 6))
    w1 = rng.normal(size=(6, 8)) * 0.5
    b1 = rng.normal(size=(8,))
    w2 = rng.normal(size=(8, 5)) * 0.5
    gamma = rng.normal(size=(8,))
    beta = rng.normal(size=(8,))
    mix = _weights(rng, (4, 5))
    targets = [0, 3, 2, 4]

    def mlp(t):
        h = ad.matmul(t[0], t[1])
        h = ad.add(h, ad.broadcast_to(ad.reshape(t[2], (1, 8)), (4, 8)))
        h = ad.layer_norm(ad.gelu(h), t[3], t[4], eps=1e-8)
        return ad.cross_entropy_masked(ad.matmul(h, t[5]), targets, ignore_id=-1)

    check_grads(mlp, [x, w1, b1, gamma, beta, w2])

    # single-head attention block
    q = rng.normal(size=(3, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    amix = _weights(rng, (3, 4))

    def attn(t):
        scores = ad.scale(ad.matmul(t[0], ad.transpose(t[1], (1, 0))), 0.5)
        out = ad.matmul(ad.softmax(scores), t[2])
        return ad.sum_reduce(ad.mul(out, amix))

    check_grads(attn, [q, k, v])

    # slice/concat/roll plumbing feeding a sigmoid gate
    a = rng.normal(size=(2, 4, 3))
    b = rng.normal(size=(2, 2, 3))
    gmix = _weights(rng, (2, 6, 3))

    def plumb(t):
        top = ad.roll(t[0], (1,), (1,))
        cat = ad.concat([top, t[1]], 1)
        gate = ad.sigmoid(ad.slice_axis(cat, 1, 0, 6))
        return ad.sum_reduce(ad.mul(gate, gmix))

    check_grads(plumb, [a, b])


def test_tensor_operator_sugar():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with Tape() as tape:
        out = (a + b) * b - a
        grads = backward(ad.sum_reduce(out), tape)
    assert np.allclose(grads[a], b.data - 1.0)
    assert np.allclose(grads[b], a.data + 2 * b.data)


def test_no_tape_means_no_recording():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.add(a, a)  # no active tape: plain evaluation
    assert np.array_equal(out.data, 2 * np.ones((2, 2)))
    with Tape() as tape:
        loss = ad.sum_reduce(ad.mul(a, a))
        grads = backward(loss, tape)
    assert np.allclose(grads[a], 2 * a.data)
