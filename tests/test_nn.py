import math
import pickle

import numpy as np
import pytest

from safesteer import bayes, io, nn, uncertainty
from oracles import (adam_step_reference, central_diff, im2col_reference, max_rel_error,
                     naive_forward, nll_and_grad_batch_reference)


def small_spec(num_classes=4):
    return nn.NetworkSpec(
        layers=(nn.conv(2, 3, 2), nn.relu(), nn.conv(3, 3, 1), nn.relu(),
                nn.flatten(), nn.fc(8, dropout=0.25), nn.relu(), nn.fc(num_classes)),
        input_shape=(9, 11, 1),
        num_classes=num_classes,
    )


def smooth_instance(spec, seed, h=1e-5, mask_rng=None):
    """Draw (w, x, label, mask) and redraw until no relu input sits within
    10h of its kink, so finite differences stay clean."""
    rng = np.random.default_rng(seed)
    mask = None
    for _ in range(50):
        w = nn.init_weights(spec, rng) + rng.normal(0, 0.05, nn.param_count(spec))
        x = rng.normal(0, 1, spec.input_shape)
        label = int(rng.integers(spec.num_classes))
        if mask_rng is not None:
            mask = nn.sample_dropout_mask(spec, mask_rng)
        ok = True
        for i, layer in enumerate(spec.layers):
            if layer.kind == "relu":
                pre = nn.forward_batch(spec, w, x[None], mask, stop_after=i - 1)
                if np.abs(pre).min() < 10 * h:
                    ok = False
                    break
        if ok:
            return w, x, label, mask
    raise AssertionError("could not find a kink-free instance")


# ---------------------------------------------------------------------------
# forward

def test_forward_identity_fc():
    spec = nn.NetworkSpec((nn.fc(2),), (2,), 2)
    w = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
    out = nn.forward(spec, w, np.array([0.3, -0.7]))
    assert np.allclose(out, [0.3, -0.7], atol=0)


def test_forward_all_ones_mask_scales_by_inverse_keep():
    spec = nn.NetworkSpec((nn.fc(3, dropout=0.5),), (4,), 3)
    rng = np.random.default_rng(0)
    w = rng.normal(0, 1, nn.param_count(spec))
    w[-3:] = 0.0  # zero bias so the scaling is visible on the whole output
    x = rng.normal(0, 1, 4)
    masked = nn.forward(spec, w, x, {0: np.ones(4)})
    unmasked = nn.forward(spec, w, x)
    assert np.allclose(masked, 2.0 * unmasked, rtol=0, atol=1e-12)


def test_forward_matches_naive_loop_oracle():
    spec = small_spec()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = nn.init_weights(spec, rng)
        x = rng.normal(0, 1, spec.input_shape)
        assert np.abs(nn.forward(spec, w, x) - naive_forward(spec, w, x)).max() < 1e-10


def test_forward_with_mask_matches_naive_loop_oracle():
    spec = small_spec()
    rng = np.random.default_rng(7)
    w = nn.init_weights(spec, rng)
    x = rng.normal(0, 1, spec.input_shape)
    mask = nn.sample_dropout_mask(spec, rng)
    got = nn.forward(spec, w, x, mask)
    want = naive_forward(spec, w, x, mask)
    assert np.abs(got - want).max() < 1e-10


def test_forward_rejects_shape_mismatch():
    spec = small_spec()
    w = nn.init_weights(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.forward(spec, w, np.zeros((9, 11)))
    with pytest.raises(ValueError):
        nn.forward(spec, w[:-1], np.zeros((9, 11, 1)))



@pytest.mark.parametrize("rows,mask_shape", [(1, (5, 64)), (3, (5, 64)), (3, (3, 1, 64)),
                                             (3, (3, 63)), (3, (64,))])
def test_forward_batch_rejects_mask_of_wrong_shape(rows, mask_shape):
    head = nn.head_spec(nn.default_network_spec(20))
    w = nn.init_weights(head, np.random.default_rng(0))
    mask = {i: np.ones(mask_shape) for i in head.plan.dropout}
    with pytest.raises(ValueError, match="mask for layer 0 has shape"):
        nn.forward_batch(head, w, np.zeros((rows, 64)), mask)
    # the batch's own (rows, width) mask, and a 1-D mask on a single row, pass
    good = nn.sample_dropout_mask(head, np.random.default_rng(1), batch=rows)
    assert nn.forward_batch(head, w, np.zeros((rows, 64)), good).shape == (rows, 20)
    single = nn.sample_dropout_mask(head, np.random.default_rng(1))
    assert nn.forward_batch(head, w, np.zeros((1, 64)), single).shape == (1, 20)


@pytest.mark.parametrize("batch", [1, 3, 16])
def test_im2col_equals_the_slice_copy_loop_on_the_default_conv_layers(batch):
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(batch)
    convs = [i for i, layer in enumerate(spec.layers) if layer.kind == "conv"]
    assert len(convs) == 3
    for i in convs:
        layer = spec.layers[i]
        x = rng.normal(0, 1, (batch,) + spec.plan.in_shapes[i])
        got = nn._im2col(x, layer.kernel, layer.stride)
        want = im2col_reference(x, layer.kernel, layer.stride)
        assert got.reshape(want.shape).tobytes() == want.tobytes()


def test_im2col_equals_the_slice_copy_loop_at_stride_1_with_channels():
    x = np.random.default_rng(4).normal(0, 1, (2, 7, 6, 3))
    got = nn._im2col(x, 3, 1)
    want = im2col_reference(x, 3, 1)
    assert got.shape == (2, 5, 4, 3, 3, 3) and want.shape == (2, 5, 4, 27)
    assert got.reshape(want.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "sliced"])
def test_im2col_is_a_read_only_view(layout):
    x = np.random.default_rng(5).normal(0, 1, (3, 11, 9, 2))
    if layout == "sliced":
        x = np.random.default_rng(5).normal(0, 1, (3, 11, 18, 2))[:, :, ::2]
    got = nn._im2col(x, 3, 2)
    assert not got.flags.writeable
    assert got.shape == (3, 5, 4, 3, 3, 2)
    if layout == "contiguous":
        assert np.shares_memory(got, x) and got.base is x  # no copy of the input
    want = im2col_reference(x, 3, 2)
    assert got.reshape(want.shape).tobytes() == want.tobytes()


def test_forward_is_pure():
    spec = small_spec()
    rng = np.random.default_rng(3)
    w = nn.init_weights(spec, rng)
    x = rng.normal(0, 1, spec.input_shape)
    mask = nn.sample_dropout_mask(spec, rng)
    a = nn.forward(spec, w, x, mask)
    b = nn.forward(spec, w, x, mask)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("stop_after", [5, 8], ids=["last-conv-relu", "features"])
def test_passes_that_share_buffers_keep_the_first_result_and_the_unbuffered_bytes(stop_after):
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(6)
    w = nn.init_weights(spec, rng) + 0.01 * rng.standard_normal(nn.param_count(spec))
    first_x, second_x = rng.uniform(0, 1, (2, 20) + spec.input_shape)
    buffers = {}
    first = nn.forward_batch(spec, w, first_x, stop_after=stop_after, buffers=buffers)
    kept = first.copy()
    second = nn.forward_batch(spec, w, second_x[:13], stop_after=stop_after, buffers=buffers)
    assert first.tobytes() == kept.tobytes()  # the second pass left it alone
    assert sorted(buffers) == [i for i, l in enumerate(spec.layers) if l.kind == "conv"]
    for got, x in ((first, first_x), (second, second_x[:13])):
        assert got.tobytes() == nn.forward_batch(spec, w, x, stop_after=stop_after).tobytes()


@pytest.mark.parametrize("stop_after", [0, 1, 4, 5, 6, 8, None],
                         ids=["conv", "relu", "last-conv", "last-relu", "flatten", "fc-relu",
                              "logits"])
def test_a_buffered_pass_returns_no_view_of_its_buffers(stop_after):
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(7)
    w = nn.init_weights(spec, rng)
    x = rng.uniform(0, 1, (5,) + spec.input_shape)
    buffers = {}
    got = nn.forward_batch(spec, w, x, stop_after=stop_after, buffers=buffers)
    assert buffers  # the conv layers did write into the dict
    assert not any(np.shares_memory(got, a) for pair in buffers.values() for a in pair)
    assert got.tobytes() == nn.forward_batch(spec, w, x, stop_after=stop_after).tobytes()


@pytest.mark.parametrize("stop_after", [1, 6, 8, None])
def test_a_pass_over_zero_frames_returns_an_empty_array(stop_after):
    spec = nn.default_network_spec(20)
    w = nn.init_weights(spec, np.random.default_rng(8))
    i = len(spec.layers) - 1 if stop_after is None else stop_after
    for buffers in (None, {}):
        got = nn.forward_batch(spec, w, np.zeros((0,) + spec.input_shape),
                               stop_after=stop_after, buffers=buffers)
        assert got.shape == (0,) + spec.plan.out_shapes[i]


def test_inverted_dropout_expectation_single_linear_layer():
    # averaging masked forwards over many masks approximates the mask-free
    # forward within 3 Monte Carlo standard errors per logit
    spec = nn.NetworkSpec((nn.fc(3, dropout=0.3),), (6,), 3)
    rng = np.random.default_rng(11)
    w = rng.normal(0, 1, nn.param_count(spec))
    x = rng.normal(0, 1, 6)
    n = 10_000
    masks = nn.sample_dropout_mask(spec, rng, batch=n)
    outs = nn.forward_batch(spec, w, np.tile(x, (n, 1)), masks)
    base = nn.forward(spec, w, x)
    se = outs.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(outs.mean(axis=0) - base) <= 3.0 * se)


# ---------------------------------------------------------------------------
# stacked weights: one weight row per input row

@pytest.mark.parametrize("spec", [nn.head_spec(nn.default_network_spec()),
                                  nn.NetworkSpec((nn.fc(5), nn.relu(), nn.fc(3)), (4,), 3)],
                         ids=["default-head", "small"])
def test_stacked_forward_batch_equals_per_row_calls(spec):
    rng = np.random.default_rng(12)
    rows = 9
    w = rng.normal(0, 0.3, (rows, nn.param_count(spec)))
    x = rng.normal(0, 1, (rows,) + spec.input_shape)
    got = nn.forward_batch(spec, w, x)
    want = np.stack([nn.forward_batch(spec, w[b], x[b:b + 1])[0] for b in range(rows)])
    assert got.tobytes() == want.tobytes()
    # a broadcast input row, as the predictive passes it
    shared = np.broadcast_to(x[0], x.shape)
    want = np.stack([nn.forward_batch(spec, w[b], x[:1])[0] for b in range(rows)])
    assert nn.forward_batch(spec, w, shared).tobytes() == want.tobytes()


def test_stacked_weights_rejected_on_conv_spec_and_row_mismatch():
    spec = nn.default_network_spec()
    x = np.zeros((2,) + spec.input_shape)
    with pytest.raises(ValueError, match="conv"):
        nn.forward_batch(spec, np.zeros((2, nn.param_count(spec))), x)
    head = nn.head_spec(spec)
    p = nn.param_count(head)
    feats = np.zeros((3,) + head.input_shape)
    with pytest.raises(ValueError, match="stacked weights have shape"):
        nn.forward_batch(head, np.zeros((2, p)), feats)
    with pytest.raises(ValueError, match="stacked weights have shape"):
        nn.forward_batch(head, np.zeros((3, p - 1)), feats)
    with pytest.raises(ValueError, match="one flat weight vector"):
        nn.nll_and_grad_batch(head, np.zeros((3, p)), feats, np.zeros(3, dtype=int))


@pytest.mark.parametrize("bad", [-1, 20, 25])
def test_nll_and_grad_batch_rejects_a_label_outside_the_classes(bad):
    """NumPy would read -1 as the last class, and 20 or more as an
    IndexError; the first bad label is named."""
    head = nn.head_spec(nn.default_network_spec(20))
    w = nn.init_weights(head, np.random.default_rng(0))
    feats = np.random.default_rng(1).normal(0, 1, (4,) + head.input_shape)
    with pytest.raises(ValueError, match=f"label {bad} out of range for 20 classes"):
        nn.nll_and_grad_batch(head, w, feats, np.array([3, bad, 0, -2 if bad > 0 else 30]))
    with pytest.raises(ValueError, match=f"label {bad} out of range"):
        nn.backward(head, w, feats[0], bad)


# ---------------------------------------------------------------------------
# softmax / cross entropy

def test_softmax_symmetry():
    assert np.allclose(nn.softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_softmax_no_overflow():
    out = nn.softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[0] - 1.0) < 1e-12


def test_softmax_direct_formula():
    z = np.array([1.0, 2.0, 3.0])
    want = np.exp(z) / np.exp(z).sum()
    assert np.abs(nn.softmax(z) - want).max() < 1e-12


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.normal(0, 5, rng.integers(2, 12))
        p = nn.softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.abs(nn.softmax(z + 17.3) - p).max() < 1e-12
        assert np.all(p >= 0)


def test_cross_entropy_one_hot_is_zero():
    p = np.zeros(20)
    p[3] = 1.0
    assert nn.cross_entropy(p, 3) < 1e-11


def test_cross_entropy_uniform_20_classes():
    p = np.full(20, 1.0 / 20.0)
    assert abs(nn.cross_entropy(p, 7) - 2.995732273553991) < 1e-9


def test_cross_entropy_point_one():
    assert abs(nn.cross_entropy(np.array([0.9, 0.1]), 1) - 2.302585092994046) < 1e-9


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ValueError):
        nn.cross_entropy(np.array([0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# backward

def loss_fn(spec, x, label, mask=None):
    def f(w):
        return nn.cross_entropy(nn.softmax(nn.forward(spec, w, x, mask)), label)
    return f


def test_backward_matches_finite_differences():
    spec = small_spec()
    worst = 0.0
    for seed in range(10):
        w, x, label, _ = smooth_instance(spec, seed)
        grad = nn.backward(spec, w, x, label)
        fd = central_diff(loss_fn(spec, x, label), w)
        worst = max(worst, max_rel_error(grad, fd))
    assert worst < 1e-4


def test_backward_matches_finite_differences_with_mask():
    spec = small_spec()
    mask_rng = np.random.default_rng(99)
    w, x, label, mask = smooth_instance(spec, 4, mask_rng=mask_rng)
    grad = nn.backward(spec, w, x, label, mask)
    fd = central_diff(loss_fn(spec, x, label, mask), w)
    assert max_rel_error(grad, fd) < 1e-4


def _grad_cases():
    """(spec, weights, inputs, labels, mask): the default network with
    dropout masks, its head, a spec whose first layer is a flatten, and one
    whose second conv has a 1x1 kernel, so its patches are the rows of its
    input."""
    rng = np.random.default_rng(21)
    spec = nn.default_network_spec(20)
    w = nn.init_weights(spec, rng) + 0.01 * rng.standard_normal(nn.param_count(spec))
    x = rng.random((16,) + spec.input_shape)
    yield spec, w, x, rng.integers(0, 20, 16), nn.sample_dropout_mask(spec, rng, batch=16)
    head = spec.plan.head_spec
    hx = rng.standard_normal((40, nn.FEATURE_DIM))
    yield head, w[spec.plan.head_slice], hx, rng.integers(0, 20, 40), None
    flat = nn.NetworkSpec((nn.flatten(), nn.fc(7, dropout=0.2), nn.relu(), nn.fc(5)), (3, 4, 2), 5)
    fw = rng.standard_normal(nn.param_count(flat))
    yield flat, fw, rng.standard_normal((9, 3, 4, 2)), rng.integers(0, 5, 9), \
        nn.sample_dropout_mask(flat, rng, batch=9)
    pointwise = nn.NetworkSpec((nn.conv(3, 3, 1), nn.relu(), nn.conv(4, 1, 1), nn.relu(),
                                nn.flatten(), nn.fc(5)), (6, 5, 2), 5)
    pw = rng.standard_normal(nn.param_count(pointwise))
    yield pointwise, pw, rng.standard_normal((7, 6, 5, 2)), rng.integers(0, 5, 7), None


@pytest.mark.parametrize("mean", [True, False])
def test_backprop_that_stops_at_the_first_weighted_layer_keeps_the_gradient_bytes(mean):
    for spec, w, x, labels, mask in _grad_cases():
        loss, grad = nn.nll_and_grad_batch(spec, w, x, labels, mask, mean=mean)
        want_loss, want = nll_and_grad_batch_reference(spec, w, x, labels, mask, mean=mean)
        assert float(loss).hex() == float(want_loss).hex()
        assert grad.tobytes() == want.tobytes()
    assert nn.default_network_spec(20).plan.first_weighted == 0
    assert nn.default_network_spec(20).plan.head_spec.plan.first_weighted == 0
    assert nn.NetworkSpec((nn.flatten(), nn.fc(5)), (5,), 5).plan.first_weighted == 1


def test_minibatches_that_share_buffers_keep_the_loss_and_gradient_bytes():
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(22)
    w = nn.init_weights(spec, rng) + 0.01 * rng.standard_normal(nn.param_count(spec))
    buffers = {}
    kept = []
    for batch in (16, 5, 16):
        x = rng.random((batch,) + spec.input_shape)
        labels = rng.integers(0, 20, batch)
        mask = nn.sample_dropout_mask(spec, rng, batch=batch)
        loss, grad = nn.nll_and_grad_batch(spec, w, x, labels, mask, buffers=buffers)
        want_loss, want = nn.nll_and_grad_batch(spec, w, x, labels, mask)
        ref_loss, ref = nll_and_grad_batch_reference(spec, w, x, labels, mask)
        assert float(loss).hex() == float(want_loss).hex() == float(ref_loss).hex()
        assert grad.tobytes() == want.tobytes() == ref.tobytes()
        assert not any(np.shares_memory(grad, a) for kept_arrays in buffers.values()
                       for a in kept_arrays)
        kept.append((grad, grad.copy()))
    assert all(g.tobytes() == copy.tobytes() for g, copy in kept)  # later calls left them alone


@pytest.mark.parametrize("mean", [True, False])
def test_every_grad_case_through_one_shared_dict_keeps_the_reference_bytes(mean):
    """All the cases, twice over, share one dict of buffers. The patch
    gradients of the 1x1 conv overwrite its im2col matrix, which leaves
    the caller's input as it was."""
    buffers = {}
    cases = list(_grad_cases())
    for spec, w, x, labels, mask in cases + cases:
        x_before = x.copy()
        loss, grad = nn.nll_and_grad_batch(spec, w, x, labels, mask, mean=mean,
                                           buffers=buffers)
        want_loss, want = nll_and_grad_batch_reference(spec, w, x, labels, mask, mean=mean)
        assert float(loss).hex() == float(want_loss).hex()
        assert grad.tobytes() == want.tobytes()
        assert x.tobytes() == x_before.tobytes()


def test_backward_bias_gradient_closed_form():
    # zero input, zero weights, single linear layer
    spec = nn.NetworkSpec((nn.fc(3),), (2,), 3)
    w = np.zeros(nn.param_count(spec))
    grad = nn.backward(spec, w, np.zeros(2), 1)
    bias_grad = grad[-3:]
    want = nn.softmax(np.zeros(3)) - np.array([0.0, 1.0, 0.0])
    assert np.abs(bias_grad - want).max() < 1e-12


def test_backward_masked_out_path_has_zero_gradient():
    spec = nn.NetworkSpec((nn.fc(3, dropout=0.5),), (2,), 3)
    rng = np.random.default_rng(1)
    w = rng.normal(0, 1, nn.param_count(spec))
    mask = {0: np.array([1.0, 0.0])}
    grad = nn.backward(spec, w, rng.normal(0, 1, 2), 2, mask)
    mat_grad = grad[:6].reshape(2, 3)
    assert np.all(mat_grad[1] == 0.0)  # weights fed by the dropped input
    assert np.any(mat_grad[0] != 0.0)


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradient_keeps_weights():
    state = nn.AdamState.fresh(4)
    w = np.array([1.0, -2.0, 3.0, 0.5])
    w2, s2 = nn.adam_step(state, w, np.zeros(4))
    assert np.array_equal(w, w2)
    assert s2.step == 1


def test_adam_first_step_magnitude():
    state = nn.AdamState.fresh(3, lr=1e-4)
    w = np.zeros(3)
    g = np.array([0.5, -0.5, 0.5])
    w2, _ = nn.adam_step(state, w, g)
    assert np.abs(w2 - (-1e-4 * np.sign(g))).max() < 1e-9


def test_adam_rejects_nonfinite_gradient():
    state = nn.AdamState.fresh(2)
    with pytest.raises(ValueError):
        nn.adam_step(state, np.zeros(2), np.array([np.nan, 0.0]))


def test_adam_steps_keep_the_bytes_of_whole_array_expressions():
    rng = np.random.default_rng(12)
    w = want_w = rng.standard_normal(50)
    state = want_state = nn.AdamState.fresh(50, lr=3e-3)
    for _ in range(5):
        g = rng.standard_normal(50)
        inputs = (w, state.m, state.v)
        copies = [a.copy() for a in inputs]
        w, state = nn.adam_step(state, w, g)
        assert all(a.tobytes() == c.tobytes() for a, c in zip(inputs, copies))  # pure
        want_w, want_state = adam_step_reference(want_state, want_w, g)
        for got, want in ((w, want_w), (state.m, want_state.m), (state.v, want_state.v)):
            assert got.tobytes() == want.tobytes()
        assert state.step == want_state.step


def test_adam_converges_on_quadratic():
    # f(w) = ||w||^2, task-scaled learning rate
    state = nn.AdamState.fresh(2, lr=0.05)
    w = np.array([1.0, 1.0])
    for _ in range(200):
        w, state = nn.adam_step(state, w, 2.0 * w)
    assert float(w @ w) < 1e-2


# ---------------------------------------------------------------------------
# dropout masks

def test_mask_rate_zero_is_all_ones():
    spec = nn.NetworkSpec((nn.fc(3),), (4,), 3)
    assert nn.sample_dropout_mask(spec, np.random.default_rng(0)) == {}


def test_mask_survivor_fraction():
    spec = nn.NetworkSpec((nn.fc(2, dropout=0.1),), (100_000,), 2)
    mask = nn.sample_dropout_mask(spec, np.random.default_rng(5))
    frac = mask[0].mean()
    assert 0.89 <= frac <= 0.91


def test_mask_deterministic_given_seed():
    spec = small_spec()
    a = nn.sample_dropout_mask(spec, np.random.default_rng(42))
    b = nn.sample_dropout_mask(spec, np.random.default_rng(42))
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


# ---------------------------------------------------------------------------
# spec plumbing

def test_default_spec_shapes():
    spec = nn.default_network_spec(20)
    shapes = spec.plan.out_shapes
    assert shapes[-1] == (20,)
    assert nn.head_spec(spec).input_shape == (64,)
    assert nn.param_count(nn.head_spec(spec)) == 5616


def test_a_head_spec_has_the_networks_classes():
    assert nn.default_network_spec(7).plan.head_spec.num_classes == 7


def test_spec_rejects_bad_compositions():
    with pytest.raises(ValueError):
        nn.NetworkSpec((nn.fc(3),), (2, 2, 1), 3)  # fc on a 3-d input
    with pytest.raises(ValueError):
        nn.NetworkSpec((nn.conv(2, 5, 1), nn.flatten(), nn.fc(2)), (3, 3, 1), 2)
    with pytest.raises(ValueError):
        nn.LayerSpec("fc", width=4, dropout_rate=1.0)


def _refuse_hash(self):
    raise AssertionError("a NetworkSpec was hashed")


def test_network_plan_is_read_without_hashing_the_spec(monkeypatch):
    monkeypatch.setattr(nn.NetworkSpec, "__hash__", _refuse_hash)
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(0)
    w = nn.init_weights(spec, rng)
    x = rng.random((2,) + spec.input_shape)
    mask = nn.sample_dropout_mask(spec, rng, batch=2)
    assert nn.forward_batch(spec, w, x, mask).shape == (2, 20)
    _, grad = nn.nll_and_grad_batch(spec, w, x, np.array([3, 7]), mask)
    assert grad.shape == w.shape
    mcd = bayes.McdPosterior(spec, w)
    feats = bayes.extract_features(mcd, rng.integers(0, 256, (48, 64)).astype(np.uint8))
    head = nn.head_spec(spec)
    hw = bayes.head_weights(mcd)
    for post in (mcd, bayes.ViPosterior(head, hw, np.full(hw.size, -3.0)),
                 bayes.HmcPosterior(head, np.stack([hw, 0.9 * hw]))):
        pred = uncertainty.predictive(post, feats, 32, rng)
        assert pred.per_sample_probs.shape == (32, 20)
    assert bayes.Prior(1.0).param_sigmas(head).shape == (nn.param_count(head),)
    copies = (pickle.loads(pickle.dumps(spec)), io._spec_from_dict(io._spec_to_dict(spec)))
    for copy in copies:
        assert copy == spec
        assert nn.param_count(copy) == nn.param_count(spec)
        assert copy.plan.head_slice == spec.plan.head_slice
    monkeypatch.undo()
    # the plan is not part of the spec's identity
    assert all(hash(copy) == hash(spec) for copy in copies)
    assert "plan" not in repr(spec)
