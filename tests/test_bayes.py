import math

import numpy as np
import pytest

from safesteer import bayes, nn
from safesteer.datasets import FeatureDataset, ImageDataset
from oracles import central_diff, leapfrog_harmonic, max_rel_error, naive_forward

PRIOR = bayes.Prior(1.0)


def smooth_head(num_classes=3):
    # relu-free so the potential/likelihood is smooth in the weights
    return nn.NetworkSpec((nn.fc(6), nn.fc(num_classes)), (4,), num_classes)


def relu_head(num_classes=3):
    return nn.NetworkSpec((nn.fc(6), nn.relu(), nn.fc(num_classes)), (4,), num_classes)


def toy_feature_ds(seed=0, n=12, dim=4, k=3):
    rng = np.random.default_rng(seed)
    return FeatureDataset(rng.normal(0, 1, (n, dim)), rng.integers(0, k, n))


def separable_image_ds(seed=0, n=60):
    """Bright-left vs bright-right images, linearly separable."""
    rng = np.random.default_rng(seed)
    images = np.zeros((n, 48, 64), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        side = i % 2
        img = rng.integers(0, 40, (48, 64))
        if side == 0:
            img[:, :32] += 160
        else:
            img[:, 32:] += 160
        images[i] = img.astype(np.uint8)
        labels[i] = side
    return ImageDataset(images, labels)


# ---------------------------------------------------------------------------
# prior

def test_prior_scales():
    head = smooth_head()
    sig = bayes.Prior(2.0).param_sigmas(head)
    assert sig.shape == (nn.param_count(head),)
    assert np.all(sig == 2.0)
    per_layer = bayes.Prior(per_layer=(1.0, 3.0)).param_sigmas(head)
    assert per_layer[0] == 1.0 and per_layer[-1] == 3.0
    with pytest.raises(ValueError):
        bayes.Prior(-1.0)


# ---------------------------------------------------------------------------
# MCD training

def test_train_mcd_separable_toy():
    ds = separable_image_ds()
    spec = nn.default_network_spec(2)
    post = bayes.train_mcd(ds, spec, epochs=25, batch_size=16, lr=1e-4,
                           rng=np.random.default_rng(1))
    x = np.stack([img[..., None] / 255.0 for img in ds.images])
    acc = (np.argmax(nn.forward_batch(spec, post.weights, x), axis=1) == ds.labels).mean()
    assert acc >= 0.95


def test_train_mcd_zero_epochs_returns_init():
    ds = separable_image_ds()
    spec = nn.default_network_spec(2)
    post = bayes.train_mcd(ds, spec, epochs=0, rng=np.random.default_rng(5))
    assert np.array_equal(post.weights, nn.init_weights(spec, np.random.default_rng(5)))


def test_train_mcd_deterministic():
    ds = separable_image_ds(n=20)
    spec = nn.default_network_spec(2)
    a = bayes.train_mcd(ds, spec, epochs=2, rng=np.random.default_rng(9))
    b = bayes.train_mcd(ds, spec, epochs=2, rng=np.random.default_rng(9))
    assert np.array_equal(a.weights, b.weights)
    assert a.rates == (0.1, 0.08, 0.08)


def test_train_mcd_rejects_empty():
    spec = nn.default_network_spec(2)
    with pytest.raises(ValueError):
        bayes.train_mcd(ImageDataset(np.zeros((0, 48, 64), np.uint8),
                                     np.zeros(0, np.int64)), spec)


# ---------------------------------------------------------------------------
# feature extraction

def test_extract_features_zero_image_zero_biases():
    spec = nn.default_network_spec(2)
    w = nn.init_weights(spec, np.random.default_rng(0))  # biases start at zero
    post = bayes.McdPosterior(spec, w)
    feats = bayes.extract_features(post, np.zeros((48, 64), dtype=np.uint8))
    assert feats.shape == (64,)
    assert np.all(feats == 0.0)


def test_extract_features_dim_and_purity():
    spec = nn.default_network_spec(20)
    w = nn.init_weights(spec, np.random.default_rng(1))
    post = bayes.McdPosterior(spec, w)
    img = np.random.default_rng(2).integers(0, 256, (48, 64)).astype(np.uint8)
    a = bayes.extract_features(post, img)
    assert a.shape == (64,)
    assert np.array_equal(a, bayes.extract_features(post, img))


def test_extract_features_matches_naive_oracle():
    spec = nn.default_network_spec(2)
    rng = np.random.default_rng(3)
    w = nn.init_weights(spec, rng)
    post = bayes.McdPosterior(spec, w)
    img = rng.integers(0, 256, (48, 64)).astype(np.uint8)
    feats = bayes.extract_features(post, img)
    boundary = nn.feature_boundary(spec)
    ext_spec = nn.NetworkSpec(spec.layers[:boundary], spec.input_shape, 64)
    n_ext = nn.param_count(ext_spec)
    want = naive_forward(ext_spec, w[:n_ext], img[..., None] / 255.0)
    assert np.abs(feats - want).max() < 1e-10


def test_extract_features_rejects_bad_shape():
    spec = nn.default_network_spec(2)
    post = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        bayes.extract_features(post, np.zeros((10, 10), dtype=np.uint8))


# ---------------------------------------------------------------------------
# ELBO

def test_elbo_gradient_empty_dataset_at_prior_is_zero():
    head = smooth_head()
    n = nn.param_count(head)
    empty = FeatureDataset(np.zeros((0, 4)), np.zeros(0, np.int64))
    gm, gr, _ = bayes.elbo_gradient(empty, head, PRIOR, np.zeros(n),
                                    np.log(np.ones(n)), np.random.default_rng(0))
    assert np.abs(gm).max() == 0.0
    assert np.abs(gr).max() == 0.0


def test_kl_of_prior_with_itself_is_zero():
    sig = np.full(7, 1.3)
    assert bayes.kl_diag_gaussian(np.zeros(7), np.log(sig), sig) == pytest.approx(0.0, abs=1e-12)


def elbo_value(ds, head, prior, mu, rho, seed):
    """Same-seed ELBO estimate (common random numbers for the FD oracle)."""
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(mu.size)
    sigma = np.exp(rho)
    w = mu + sigma * zeta
    x, y = ds.features, ds.labels
    if len(y):
        nll, _ = nn.nll_and_grad_batch(head, w, x, y, mean=False)
    else:
        nll = 0.0
    return -nll - bayes.kl_diag_gaussian(mu, rho, prior.param_sigmas(head))


def test_elbo_gradient_matches_finite_differences():
    head = smooth_head()
    n = nn.param_count(head)
    ds = toy_feature_ds(1)
    worst = 0.0
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        mu = rng.normal(0, 0.4, n)
        rho = rng.normal(-1.0, 0.2, n)
        gm, gr, _ = bayes.elbo_gradient(ds, head, PRIOR, mu, rho,
                                        np.random.default_rng(seed))
        fd_mu = central_diff(lambda m: elbo_value(ds, head, PRIOR, m, rho, seed), mu)
        fd_rho = central_diff(lambda r: elbo_value(ds, head, PRIOR, mu, r, seed), rho)
        worst = max(worst, max_rel_error(gm, fd_mu), max_rel_error(gr, fd_rho))
    assert worst < 1e-4


def test_train_vi_zero_iterations_returns_init():
    head = smooth_head()
    ds = toy_feature_ds(2)
    post = bayes.train_vi(ds, head, PRIOR, bayes.ViConfig(iterations=0, seed=0))
    assert np.all(post.mu == 0.0)
    assert np.allclose(np.exp(post.rho), 1.0)


def conjugate_fixture(seed=0, n_obs=20):
    """Gaussian likelihood with unit noise and N(0,1) prior: the posterior
    is N(sum(y)/(n+1), 1/(n+1))."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.7, 1.0, n_obs)

    def loglik(w):
        r = y - w[0]
        return float(-0.5 * (r @ r)), np.array([r.sum()])

    return loglik, y.sum() / (n_obs + 1.0), math.sqrt(1.0 / (n_obs + 1.0))


def test_vi_conjugate_gaussian_recovery():
    loglik, mu_post, sd_post = conjugate_fixture()
    fit = bayes.fit_mean_field(loglik, 1, np.ones(1), bayes.ViConfig(4000, 1, 0.02, 7))
    assert abs(fit.mu[0] - mu_post) < 0.05
    assert abs(math.exp(fit.rho[0]) - sd_post) <= 0.1 * sd_post


def test_vi_elbo_trend_on_conjugate_model():
    loglik, _, _ = conjugate_fixture()
    fit = bayes.fit_mean_field(loglik, 1, np.ones(1), bayes.ViConfig(3000, 1, 0.01, 7))
    window = fit.elbo_trace.reshape(-1, 100).mean(axis=1)
    # windows climb; at stationarity adjacent window means wobble with
    # standard error sqrt(2) * (trace std / sqrt(100))
    se_diff = math.sqrt(2.0) * np.std(fit.elbo_trace[1500:]) / 10.0
    assert np.all(np.diff(window) >= -4.0 * se_diff)
    assert window[-1] > window[0]


def test_train_vi_classification_smoke_and_determinism():
    head = relu_head()
    ds = toy_feature_ds(3, n=30)
    cfg = bayes.ViConfig(iterations=150, lr=0.01, seed=4)
    a = bayes.train_vi(ds, head, PRIOR, cfg)
    b = bayes.train_vi(ds, head, PRIOR, cfg)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.rho, b.rho)
    with pytest.raises(ValueError):
        bayes.train_vi(FeatureDataset(np.zeros((0, 4)), np.zeros(0, np.int64)),
                       head, PRIOR, cfg)


# ---------------------------------------------------------------------------
# potential energy and leapfrog

def test_potential_energy_prior_only():
    head = smooth_head()
    n = nn.param_count(head)
    empty = FeatureDataset(np.zeros((0, 4)), np.zeros(0, np.int64))
    w = np.random.default_rng(0).normal(0, 1, n)
    u, grad = bayes.potential_energy(w, empty, head, PRIOR)
    assert u == pytest.approx(0.5 * float(w @ w), rel=1e-12)
    assert np.allclose(grad, w, atol=1e-12)
    u2, _ = bayes.potential_energy(2.0 * w, empty, head, PRIOR)
    assert u2 == pytest.approx(4.0 * u, rel=1e-12)


def test_potential_energy_matches_finite_differences():
    head = smooth_head()
    ds = toy_feature_ds(4)
    worst = 0.0
    for seed in range(6):
        w = np.random.default_rng(200 + seed).normal(0, 0.4, nn.param_count(head))
        _, grad = bayes.potential_energy(w, ds, head, PRIOR)
        fd = central_diff(lambda v: bayes.potential_energy(v, ds, head, PRIOR)[0], w)
        worst = max(worst, max_rel_error(grad, fd))
    assert worst < 1e-4


def test_leapfrog_reversibility_on_random_heads():
    prior = PRIOR
    for seed in range(10):
        rng = np.random.default_rng(seed)
        head = relu_head()
        ds = toy_feature_ds(seed)
        n = nn.param_count(head)
        q = rng.normal(0, 0.4, n)
        p = rng.normal(0, 1, n)
        grad = lambda x: bayes.potential_energy(x, ds, head, prior)[1]
        q1, p1 = bayes.leapfrog(q, p, 0.05, 12, grad)
        q2, p2 = bayes.leapfrog(q1, -p1, 0.05, 12, grad)
        assert np.abs(q2 - q).max() < 1e-9
        assert np.abs(-p2 - p).max() < 1e-9


def test_leapfrog_matches_harmonic_recursion():
    grad = lambda q: q
    q, p = bayes.leapfrog(np.array([1.0]), np.array([0.0]), 0.1, 10, grad)
    q_ref, p_ref = leapfrog_harmonic(1.0, 0.0, 0.1, 10)
    assert q[0] == pytest.approx(q_ref, abs=1e-12)
    assert p[0] == pytest.approx(p_ref, abs=1e-12)


def test_leapfrog_energy_error_scales_second_order():
    head = smooth_head()
    ds = toy_feature_ds(5)
    rng = np.random.default_rng(6)
    n = nn.param_count(head)
    q0 = rng.normal(0, 0.3, n)
    p0 = rng.normal(0, 1, n)
    u = lambda w: bayes.potential_energy(w, ds, head, PRIOR)
    h0 = u(q0)[0] + 0.5 * float(p0 @ p0)

    def err(eps, steps):
        q, p = bayes.leapfrog(q0, p0, eps, steps, lambda x: u(x)[1])
        return abs(u(q)[0] + 0.5 * float(p @ p) - h0)

    ratio = err(0.08, 10) / err(0.04, 20)
    assert 3.0 <= ratio <= 5.0


# ---------------------------------------------------------------------------
# HMC

def test_hmc_prior_only_standard_normal_moments():
    dim = 12
    cfg = bayes.HmcConfig(step_size=0.2, leapfrog_steps=10, burn_in=500,
                          samples=5000, thin=2)
    u = lambda w: (0.5 * float(w @ w), w)
    samples, acc = bayes.hmc_chain(u, dim, cfg, np.random.default_rng(42))
    s = np.stack(samples)
    assert acc > 0.6
    for i in range(dim):
        ess = bayes.effective_sample_size(s[:, i])
        se = s[:, i].std(ddof=1) / math.sqrt(ess)
        assert abs(s[:, i].mean()) <= 3.0 * se
        assert 0.9 <= s[:, i].var() <= 1.1


def test_hmc_huge_step_size_rejects():
    cfg = bayes.HmcConfig(step_size=10.0, leapfrog_steps=10, burn_in=0,
                          samples=200, thin=1)
    u = lambda w: (0.5 * float(w @ w), w)
    _, acc = bayes.hmc_chain(u, 12, cfg, np.random.default_rng(1))
    assert acc < 0.1


def test_train_hmc_deterministic():
    head = relu_head()
    ds = toy_feature_ds(7, n=10)
    cfg = bayes.HmcConfig(step_size=0.05, leapfrog_steps=5, burn_in=20,
                          samples=30, thin=2)
    a = bayes.train_hmc(ds, head, PRIOR, cfg, np.random.default_rng(3))
    b = bayes.train_hmc(ds, head, PRIOR, cfg, np.random.default_rng(3))
    assert len(a.samples) == 30
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa, sb)


# ---------------------------------------------------------------------------
# posterior sampling

def test_sample_weights_vi_degenerate():
    head = smooth_head()
    n = nn.param_count(head)
    mu = np.random.default_rng(0).normal(0, 1, n)
    post = bayes.ViPosterior(head, mu, np.full(n, -1e6))
    for w in bayes.sample_weights(post, 5, np.random.default_rng(1)):
        assert np.array_equal(w, mu)


def test_sample_weights_hmc_single_sample():
    head = smooth_head()
    w0 = np.random.default_rng(0).normal(0, 1, nn.param_count(head))
    post = bayes.HmcPosterior(head, (w0,))
    for w in bayes.sample_weights(post, 7, np.random.default_rng(2)):
        assert np.array_equal(w, w0)


def test_sample_weights_vi_mean_concentration():
    head = smooth_head()
    n = nn.param_count(head)
    rng = np.random.default_rng(3)
    mu = rng.normal(0, 1, n)
    rho = np.full(n, math.log(0.5))
    post = bayes.ViPosterior(head, mu, rho)
    draws = np.stack(bayes.sample_weights(post, 100_000, np.random.default_rng(0)))
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3.0 * se)


def test_sample_weights_mcd_masks():
    spec = nn.default_network_spec(2)
    post = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
    masks = bayes.sample_weights(post, 3, np.random.default_rng(1))
    assert len(masks) == 3
    for m in masks:
        assert set(m) == set(nn.dropout_layout(spec))
        for v in m.values():
            assert set(np.unique(v)).issubset({0.0, 1.0})
