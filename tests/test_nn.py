import math
import pickle

import numpy as np
import pytest

from safesteer import bayes, io, nn, uncertainty
from oracles import central_diff, max_rel_error, naive_forward


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


def test_forward_is_pure():
    spec = small_spec()
    rng = np.random.default_rng(3)
    w = nn.init_weights(spec, rng)
    x = rng.normal(0, 1, spec.input_shape)
    mask = nn.sample_dropout_mask(spec, rng)
    a = nn.forward(spec, w, x, mask)
    b = nn.forward(spec, w, x, mask)
    assert np.array_equal(a, b)


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
    shapes = nn.layer_shapes(spec)
    assert shapes[-1] == (20,)
    assert nn.head_spec(spec).input_shape == (64,)
    assert nn.param_count(nn.head_spec(spec)) == 5616


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
                 bayes.HmcPosterior(head, (hw, 0.9 * hw))):
        pred = uncertainty.predictive(post, feats, 32, rng)
        assert pred.per_sample_probs.shape == (32, 20)
    assert bayes.Prior(1.0).param_sigmas(head).shape == (nn.param_count(head),)
    copies = (pickle.loads(pickle.dumps(spec)), io._spec_from_dict(io._spec_to_dict(spec)))
    for copy in copies:
        assert copy == spec
        assert nn.param_count(copy) == nn.param_count(spec)
        assert nn.head_slice(copy) == nn.head_slice(spec)
    monkeypatch.undo()
    # the plan is not part of the spec's identity
    assert all(hash(copy) == hash(spec) for copy in copies)
    assert "plan" not in repr(spec)
