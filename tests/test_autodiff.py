"""Gradient checks for every differentiable primitive plus fused ops.

Analytic gradients are compared against central differences (h=1e-5) in
float64; the relative error bound is 1e-4 with a max(1, |g|) denominator.
"""

import gc
import weakref

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap.autodiff import NumericError, Tape, Tensor, backward

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
        # add broadcasts its second operand into the first; mul wants exact
        # shapes, so a row product expands the row through add
        check_grads(lambda t: ad.sum_reduce(ad.mul(ad.add(t[0], t[1]), w)), [a, row.copy()])
        zeros = Tensor(np.zeros((3, 4)))
        check_grads(lambda t: ad.sum_reduce(ad.mul(ad.mul(t[0], ad.add(zeros, t[1])), w)), [a, row.copy()])
        check_grads(lambda t: ad.sum_reduce(ad.mul(ad.mul(t[0], -2.5), w)), [a])
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


def test_add_broadcasts_a_constant_array_without_a_gradient():
    # the attention mask's form: a constant ndarray that broadcasts to the scores
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 4, 4))
    mask = np.where(rng.random((3, 1, 4)) < 0.5, -1e9, 0.0)
    w = Tensor(rng.normal(size=x.shape))
    runs = []
    for const in (mask, Tensor(np.broadcast_to(mask, x.shape))):
        t = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = ad.add(t, const)
            nodes = len(tape.nodes)
            grads = backward(ad.sum_reduce(ad.mul(out, w)), tape)
        runs.append((nodes, out.data, list(grads), grads[t]))
    (nodes, out, leaves, grad), (old_nodes, old_out, old_leaves, old_grad) = runs
    assert nodes == old_nodes == 1
    assert len(leaves) == len(old_leaves) == 1
    assert np.array_equal(out, old_out) and np.array_equal(grad, old_grad)
    # the in-place spelling of a layer rebinds to the same op
    t = Tensor(x.copy())
    t += mask
    assert np.array_equal(t.data, out)
    # a constant may not enlarge the Tensor it is added to
    for a, b in (((3, 4), (2, 3, 4)), ((1, 4), (3, 4))):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.zeros(a)), np.zeros(b))


def test_add_broadcasts_a_tensor_and_sums_its_gradient_over_the_broadcast_axes():
    # the window bias's form: one (heads, n, n) Tensor added to (b, W, heads, n, n) scores
    rng = np.random.default_rng(13)
    scores = Tensor(rng.normal(size=(2, 3, 2, 4, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    g = rng.normal(size=scores.shape)
    with Tape() as tape:
        out = ad.add(scores, bias)
        nodes = [node.op for node in tape.nodes]
        grads = backward(ad.sum_reduce(ad.mul(out, Tensor(g))), tape)
    assert nodes == ["add"]
    assert np.array_equal(out.data, scores.data + bias.data)
    assert grads[bias].tobytes() == g.sum(axis=(0, 1)).tobytes()
    assert grads[scores].tobytes() == g.tobytes()
    # a size-1 axis inside the shape sums too
    w = _weights(rng, (3, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.add(t[0], t[1]), w)), [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))])
    # a Tensor operand may not enlarge the first operand, a single element included
    for a, b in (((1,), (3, 4)), ((), (2, 2)), ((3, 4), (2, 3, 4))):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.zeros(a)), Tensor(np.zeros(b), requires_grad=True))


def test_mul_by_a_number_records_one_node_and_no_leaf():
    rng = np.random.default_rng(14)
    t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    g = rng.normal(size=(3, 4))
    with Tape() as tape:
        out = t * 0.5
        nodes = [node.op for node in tape.nodes]
        grads = backward(ad.sum_reduce(ad.mul(out, Tensor(g))), tape)
    assert nodes == ["mul"]
    assert list(grads) == [t]
    assert grads[t].tobytes() == (g * 0.5).tobytes()


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
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.take(t[0], ids, 0), w)), [table])
    with pytest.raises(ValueError):
        ad.take(Tensor(table), [7], 0)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_take_grads_with_repeated_index(axis):
    rng = np.random.default_rng(30)
    a = rng.normal(size=(3, 4, 5))
    index = np.array([[0, 2, 2], [1, 0, 2]])  # 2-D, repeats, fits every axis
    w = _weights(rng, np.take(a, index, axis).shape)
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.take(t[0], index, axis), w)), [a])
    for bad in (a.shape[axis], -1):
        with pytest.raises(ValueError, match="out of range"):
            ad.take(Tensor(a), [0, bad], axis)


def _add_at_embedding_grad(table_shape, ids, g):
    # the embedding backward before take: np.add.at row scatter
    gt = np.zeros(table_shape)
    np.add.at(gt, np.asarray(ids).ravel(), g.reshape(-1, table_shape[1]))
    return gt


@pytest.mark.parametrize(
    "table_shape, ids",
    [
        # shaped like the decoder's token and position embeddings at batch 8
        ((60, 32), np.random.default_rng(31).integers(0, 6, size=(8, 20))),
        ((32, 32), np.broadcast_to(np.arange(21), (8, 21))),
        ((60, 32), np.random.default_rng(32).integers(0, 60, size=8)),
    ],
)
def test_take_backward_is_bitwise_the_add_at_scatter(table_shape, ids):
    rng = np.random.default_rng(33)
    table = Tensor(rng.normal(size=table_shape), requires_grad=True)
    with Tape() as tape:
        out = ad.take(table, ids, 0)
        g = rng.normal(size=out.shape)
        grads = backward(ad.sum_reduce(ad.mul(out, Tensor(g))), tape)
    assert np.array_equal(out.data, table.data[ids])
    assert grads[table].tobytes() == _add_at_embedding_grad(table_shape, ids, g).tobytes()


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
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.add(w_b, t[0]), w_b)), [b])
    small = rng.normal(size=(3, 1))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.add(w_b, t[0]), w_b)), [small])

    # a slice and a roll are takes of index arrays
    w_s = _weights(rng, (2, 2, 4))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.take(t[0], [1, 2], 1), w_s)), [a])

    w_r = _weights(rng, (2, 3, 4))
    rolled = (np.roll(np.arange(2), 1), np.roll(np.arange(4), -2))
    check_grads(lambda t: ad.sum_reduce(ad.mul(ad.take(ad.take(t[0], rolled[0], 0), rolled[1], 2), w_r)), [a])


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
        return ad.sum_reduce(ad.mul(ad.dropout(t[0], 0.5, rng), w))

    check_grads(build, [x])


def test_dropout_modes():
    x = Tensor(np.ones((1000,)))
    out = ad.dropout(x, 0.4, None)
    assert np.array_equal(out.data, x.data)
    rng = np.random.default_rng(0)
    out = ad.dropout(x, 0.4, rng)
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1.0 / 0.6)
    assert 0.45 < kept.mean() < 0.75


def test_eval_mode_dropout_returns_its_input_unchecked():
    # the configs refuse bad rates when they are built; eval mode only passes through
    x = Tensor(np.ones((3,)))
    for rate in (0.4, 1.0, -1.0):
        assert ad.dropout(x, rate, None) is x
    with pytest.raises(ValueError, match="dropout rate"):
        ad.dropout(x, 1.0, np.random.default_rng(0))


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
        h = ad.add(h, ad.reshape(t[2], (1, 8)))
        h = ad.layer_norm(ad.gelu(h), t[3], t[4], eps=1e-8)
        return ad.cross_entropy_masked(ad.matmul(h, t[5]), targets, ignore_id=-1)

    check_grads(mlp, [x, w1, b1, gamma, beta, w2])

    # single-head attention block
    q = rng.normal(size=(3, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    amix = _weights(rng, (3, 4))

    def attn(t):
        scores = ad.mul(ad.matmul(t[0], ad.transpose(t[1], (1, 0))), 0.5)
        out = ad.matmul(ad.softmax(scores), t[2])
        return ad.sum_reduce(ad.mul(out, amix))

    check_grads(attn, [q, k, v])

    # roll/concat/slice plumbing, the roll and the slice as takes, feeding a sigmoid gate
    a = rng.normal(size=(2, 4, 3))
    b = rng.normal(size=(2, 2, 3))
    gmix = _weights(rng, (2, 6, 3))

    def plumb(t):
        top = ad.take(t[0], np.roll(np.arange(4), 1), 1)
        cat = ad.concat([top, t[1]], 1)
        gate = ad.sigmoid(ad.take(cat, np.arange(6), 1))
        return ad.sum_reduce(ad.mul(gate, gmix))

    check_grads(plumb, [a, b])


def test_no_tape_means_no_recording():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.add(a, a)  # no active tape: plain evaluation
    assert np.array_equal(out.data, 2 * np.ones((2, 2)))
    assert out.requires_grad is False
    w = Tensor(np.ones(2), requires_grad=True)
    for op in (ad.gelu, ad.softmax, lambda t: ad.layer_norm(t, w, w), lambda t: ad.transpose(t, (1, 0))):
        assert op(a).requires_grad is False
    with Tape() as tape:
        loss = ad.sum_reduce(ad.mul(a, a))
        grads = backward(loss, tape)
    assert np.allclose(grads[a], 2 * a.data)


def test_float64_array_is_wrapped_without_a_copy():
    x = np.arange(6.0).reshape(2, 3)
    assert Tensor(x).data is x
    assert Tensor(np.arange(6)).data.dtype == np.float64
    assert type(Tensor(np.float64(2.0)).data) is np.ndarray


def test_backward_frees_the_arrays_its_nodes_saved():
    # nodes name Tensors by key and backward drops each closure once run, so
    # a saved activation dies in the sweep while the tape is still held
    rng = np.random.default_rng(40)
    w1, w2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b1, b2 = Tensor(np.zeros(4), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    with Tape() as tape:
        h = ad.gelu(ad.linear(Tensor(rng.normal(size=(5, 3))), w1, b1))
        linear_input = weakref.ref(h.data)
        loss = ad.sum_reduce(ad.linear(h, w2, b2))
        del h
    gelu = next(node.backward for node in tape.nodes if node.op == "gelu")
    tanh_term = weakref.ref(gelu.__closure__[gelu.__code__.co_freevars.index("t")].cell_contents)
    del gelu
    assert linear_input() is not None and tanh_term() is not None
    grads = backward(loss, tape)
    assert linear_input() is None and tanh_term() is None
    assert set(grads) == {w1, w2, b1, b2}
    assert [node.op for node in tape.nodes] == ["linear", "gelu", "linear", "sum"]
    assert all(node.inputs is None and node.backward is None for node in tape.nodes)


def test_a_tape_serves_one_backward_pass():
    a = Tensor(np.arange(3.0), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_reduce(ad.mul(a, a))
    assert np.array_equal(backward(loss, tape)[a], 2 * a.data)
    with pytest.raises(ValueError, match="tape already used"):
        backward(loss, tape)


def test_gradients_do_not_depend_on_which_intermediates_stay_alive():
    # each step makes a fresh leaf and drops the previous step's Tensors, so
    # ids come round again; the keys must still tell every Tensor apart
    arrays = np.random.default_rng(41).normal(size=(200, 3))

    def run(keep_alive):
        leaves, alive, ids = [Tensor(arrays[0], requires_grad=True)], [], []
        with Tape() as tape:
            x = leaves[0]
            for a in arrays[1:]:
                leaf = Tensor(a, requires_grad=True)
                product = ad.mul(x, leaf)
                x = ad.gelu(ad.add(product, leaf))
                leaves.append(leaf)
                ids += [id(leaf), id(product), id(x)]
                if keep_alive:
                    alive += [product, x]
                del product
            loss = ad.sum_reduce(x)
            del x
            grads = backward(loss, tape)
        return [grads[t].tobytes() for t in leaves], len(set(ids)) < len(ids)

    kept, recycled_kept = run(True)
    dropped, recycled = run(False)
    assert recycled and not recycled_kept
    assert dropped == kept


def test_a_used_tape_leaves_no_reference_cycle():
    rng = np.random.default_rng(42)
    gc.collect()
    gc.disable()
    try:
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gamma, beta = Tensor(np.ones(6), requires_grad=True), Tensor(np.zeros(6), requires_grad=True)
        with Tape() as tape:
            x = ad.take(Tensor(rng.normal(size=(5, 4))), np.array([[0, 2], [4, 4]]), 0)
            h = ad.layer_norm(ad.gelu(ad.linear(x, w)), gamma, beta)
            h = ad.concat([ad.softmax(h), ad.relu(h)], axis=0)
            loss = ad.cross_entropy_masked(h, np.array([[1, 5], [0, 3], [2, 2], [5, 0]]), ignore_id=0)
            grads = backward(loss, tape)
        assert len(grads) == 3
        del tape, grads, loss, x, h
        assert gc.collect() == 0
    finally:
        gc.enable()


def _iadd(a, b):
    a += b
    return a


def _imul(a):
    a *= 0.5
    return a


TAKE_INDEX = np.array([[2, 0], [2, 1]])

# (numpy spelling, the ad function it stands for, recorded op, input shapes)
SPELLINGS = [
    (lambda a, b: a + b, ad.add, "add", [(2, 3), (2, 3)]),
    (_iadd, ad.add, "add", [(2, 3), (2, 3)]),
    (lambda a: a * 0.5, lambda a: ad.mul(a, 0.5), "mul", [(2, 3)]),
    (_imul, lambda a: ad.mul(a, 0.5), "mul", [(2, 3)]),
    (lambda a, b: a @ b, ad.matmul, "matmul", [(2, 3, 4), (4, 5)]),
    (lambda a: a.reshape((3, -1)), lambda a: ad.reshape(a, (3, -1)), "reshape", [(2, 3, 2)]),
    (lambda a: a.transpose((1, 0, 2)), lambda a: ad.transpose(a, (1, 0, 2)), "transpose", [(2, 3, 4)]),
    (lambda a: a.mean(1), lambda a: ad.mean_reduce(a, 1), "mean", [(2, 3, 4)]),
    (lambda a: a.take(TAKE_INDEX, 1), lambda a: ad.take(a, TAKE_INDEX, 1), "take", [(2, 3, 4)]),
]


@pytest.mark.parametrize("spelled, op, name, shapes", SPELLINGS)
def test_tensor_spelling_records_the_op_it_stands_for(spelled, op, name, shapes):
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=shape) for shape in shapes]
    runs = []
    for f in (spelled, op):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = f(*tensors)
            weights = Tensor(np.random.default_rng(9).normal(size=out.shape))
            grads = backward(ad.sum_reduce(ad.mul(out, weights)), tape)
        runs.append(([node.op for node in tape.nodes], out.data, [grads[t] for t in tensors]))
    (ops, out, grads), (want_ops, want_out, want_grads) = runs
    assert ops == want_ops and ops[0] == name
    assert np.array_equal(out, want_out)
    assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
    # the same spelling on arrays is numpy's, with the same values
    got = spelled(*[a.copy() for a in arrays])
    assert type(got) is np.ndarray and np.array_equal(got, want_out)


def test_an_array_and_a_tensor_do_not_mix():
    with pytest.raises(TypeError):
        np.ones(2) + Tensor(np.ones(2))
    with pytest.raises(TypeError):
        np.ones((2, 2)) @ Tensor(np.ones((2, 2)))


def _layer_forwards():
    from vidcap.decoder import DecoderConfig, _DecoderLayer
    from vidcap.encoder import ConceptHead, EncoderConfig, PatchMerge, WindowBlock
    from vidcap.nn import Attention, LayerNorm, Linear

    rng = np.random.default_rng(10)
    cfg = EncoderConfig()
    attn = Attention(rng, 8, 2, qkv_bias=True, dropout=0.0)
    block, merge = WindowBlock(rng, 16, 2, cfg), PatchMerge(rng, 16, cfg.layer_norm_eps)
    head = ConceptHead(cfg, rng)
    dec = _DecoderLayer(rng, DecoderConfig(vocab_size=5, hidden=8, heads=2, dropout=0.0))
    causal = np.triu(np.full((3, 3), -1e9), k=1)
    enc = rng.normal(size=(2, 4, 8))
    lin, ln = Linear(rng, 8, 4), LayerNorm(8)
    ln.gamma.data[...], ln.beta.data[...] = rng.normal(size=8), rng.normal(size=8)
    return [
        (Linear(rng, 8, 4), (2, 3, 8)),
        (Linear(rng, 8, 4, bias=False), (2, 3, 8)),
        (LayerNorm(8), (2, 3, 8)),
        (lambda x: attn(x, x, None, causal, None), (2, 3, 8)),
        (lambda x: block(x, True, None), (2, 4, 4, 4, 16)),
        (merge, (2, 2, 4, 4, 16)),
        (head.logits, (2, 4, cfg.token_dim)),
        (lambda x: dec(x, enc if isinstance(x, np.ndarray) else Tensor(enc), causal, None), (2, 3, 8)),
        (lambda x: ad.linear(x, lin.weight, lin.bias), (2, 3, 8)),
        (lambda x: ad.linear(x, lin.weight), (2, 3, 8)),
        (lambda x: ad.layer_norm(x, ln.gamma, ln.beta, 1e-5), (2, 3, 8)),
    ]


@pytest.mark.parametrize("case", range(11))
def test_layer_forward_on_an_array_returns_an_array(case, monkeypatch):
    forward, shape = _layer_forwards()[case]
    x = np.random.default_rng(11).normal(size=shape)
    want = forward(Tensor(x)).data

    def refuse(*args):
        raise AssertionError("an array forward reached the tape")

    monkeypatch.setattr(ad, "_record", refuse)
    got = forward(x)
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "shape, shifted, nodes", [((2, 4, 4, 4, 16), False, 31), ((2, 4, 4, 4, 16), True, 32), ((1, 3, 5, 5, 16), True, 32)]
)
def test_window_block_records_the_same_node_count(shape, shifted, nodes):
    # one gather into windows and one back, whatever the shift or padding;
    # tape-free shortcuts must not drop or add a recorded op
    from vidcap.encoder import EncoderConfig, WindowBlock

    rng = np.random.default_rng(3)
    block = WindowBlock(rng, 16, 2, EncoderConfig())
    with Tape() as tape:
        block(Tensor(rng.normal(size=shape)), shifted=shifted, rng=None)
    assert len(tape.nodes) == nodes


# ---------------------------------------------------------------------------
# bitwise oracles: the kernels before they were rewritten in place


def _gelu_oracle(x):
    x3 = x * x
    x3 *= x
    u = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x3)
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), t


def _gelu_bwd_oracle(g, x, t):
    du = np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x**2)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def _layer_norm_oracle(x, gamma, beta, eps):
    c = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_bwd_oracle(g, xhat, inv, gamma):
    lead = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=lead)
    dbeta = g.sum(axis=lead)
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def _softmax_oracle(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


# the shapes each kernel meets in the train_desk, caption_stream and
# evaluate_corpus benchmark workloads, plus a 1-D and a 2-D case (and a
# 0-d one for the elementwise gelu)
GELU_SHAPES = [(1, 1, 128), (3, 1, 128), (8, 4, 2, 2, 128), (8, 4, 4, 4, 64), (8, 6, 128), (4, 4, 8, 8, 64),
               (128, 1, 128), (7,), (4, 6), ()]
NORM_SHAPES = [(1, 1, 32), (3, 1, 32), (8, 4, 2, 2, 32), (8, 4, 4, 4, 16), (8, 6, 32), (4, 4, 4, 4, 64),
               (128, 1, 32), (7,), (4, 6)]
SOFTMAX_SHAPES = [(1, 4, 1, 20), (3, 4, 1, 7), (8, 2, 4, 8, 8), (8, 4, 6, 6), (4, 32, 2, 8, 8), (128, 4, 1, 8),
                  (1, 4, 1, 1), (7,), (4, 6)]
EDGES = np.array([0.0, -0.0, 1e3, -1e3, 5e-324, -5e-324, 2.2e-310, -1e-308, 1.0, -1.0])


def _inputs(shape, seed):
    """Normal draws, then the same shape filled from the edge values, then
    normal draws with every third entry an edge value."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    mixed = rng.normal(size=size)
    mixed[::3] = EDGES[np.arange(size)[::3] % len(EDGES)]
    return [rng.normal(size=shape) * 3.0, np.resize(EDGES, shape), mixed.reshape(shape)]


def _kernel(op, arrays):
    """Output and backward closure of one recorded op."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*inputs)
    (node,) = tape.nodes
    return out.data, node.backward


@pytest.mark.parametrize("shape", GELU_SHAPES)
def test_gelu_is_bitwise_the_oracle(shape):
    for i, x in enumerate(_inputs(shape, 20)):
        g = np.random.default_rng(i).normal(size=shape)
        before = (x.copy(), g.copy())
        want, t = _gelu_oracle(x)
        out, bwd = _kernel(ad.gelu, [x])
        assert np.array_equal(out, want)
        (dx,) = bwd(g)
        assert np.array_equal(dx, _gelu_bwd_oracle(g, x, t))
        assert np.array_equal(bwd(g)[0], dx)  # a second sweep reads unchanged state
        assert np.array_equal(x, before[0]) and np.array_equal(g, before[1])


@pytest.mark.parametrize("eps", [1e-12, 1e-5])
@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_layer_norm_is_bitwise_the_oracle(shape, eps):
    c = shape[-1]
    rng = np.random.default_rng(21)
    gamma, beta = rng.normal(size=c), rng.normal(size=c)
    for i, x in enumerate(_inputs(shape, 22)):
        g = np.random.default_rng(i).normal(size=shape)
        before = (x.copy(), g.copy(), gamma.copy(), beta.copy())
        want, xhat, inv = _layer_norm_oracle(x, gamma, beta, eps)
        out, bwd = _kernel(lambda a, w, b: ad.layer_norm(a, w, b, eps), [x, gamma, beta])
        assert np.array_equal(out, want)
        got = bwd(g)
        for a, b in zip(got, _layer_norm_bwd_oracle(g, xhat, inv, gamma)):
            assert np.array_equal(a, b)
        for a, b in zip(bwd(g), got):
            assert np.array_equal(a, b)
        for a, b in zip((x, g, gamma, beta), before):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
def test_softmax_is_bitwise_the_oracle(shape):
    for x in _inputs(shape, 23):
        before = x.copy()
        for axis in (-1, 0):
            out, _ = _kernel(lambda a: ad.softmax(a, axis=axis), [x])
            assert np.array_equal(out, _softmax_oracle(x, axis))
        assert np.array_equal(x, before)


ROW_MAX_SHAPES = [(3, 4, 1, 11), (4, 2, 8, 8), (8, 8, 2, 8, 8), (4, 32, 2, 8, 8), (64, 16), (128, 16)]


@pytest.mark.parametrize("shape", ROW_MAX_SHAPES)
def test_row_max_is_numpys_max_on_both_sides_of_the_cut(shape):
    # without zeros the maxima are equal bit for bit, with them equal as
    # values: the sign of a zero maximum may differ, and the softmax output
    # stays bitwise the oracle's
    assert {np.prod(s) >= ad._ROW_MAX_CUT for s in ROW_MAX_SHAPES} == {False, True}
    for i, x in enumerate(_inputs(shape, 24)):
        for axis in (-1, 0, x.ndim - 2):
            want = np.maximum.reduce(x, axis, keepdims=True)
            got = ad.row_max(x, axis)
            assert got.shape == want.shape and np.array_equal(got, want), (i, axis)
            if i == 0:
                assert got.tobytes() == want.tobytes()
            assert ad.softmax_kernel(x, axis).tobytes() == _softmax_oracle(x, axis).tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(shape)
        x.flat[-1] = bad
        with pytest.raises(NumericError):
            ad.softmax_kernel(x, -1)
