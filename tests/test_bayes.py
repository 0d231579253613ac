import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from safesteer import bayes, cli, nn, sim, uncertainty
from safesteer.datasets import FeatureDataset, ImageDataset, image_to_input, images_to_input
from oracles import (central_diff, extract_features_batch_reference, fit_mean_field_reference,
                     leapfrog_harmonic, max_rel_error, naive_forward,
                     sample_weights_hmc_reference,
                     sample_weights_per_row, train_mcd_reference,
                     training_accuracy_reference, training_logits_reference)

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
    with pytest.raises(ValueError):
        bayes.Prior(-1.0)
    with pytest.raises(ValueError, match="nan"):
        bayes.Prior(math.nan)
    with pytest.raises(ValueError, match="inf"):
        bayes.Prior(math.inf)


@pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
def test_a_rate_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="finite and positive"):
        bayes.ViConfig(lr=value)
    with pytest.raises(ValueError, match="finite and positive"):
        bayes.HmcConfig(step_size=value)


@pytest.mark.parametrize("make, name, value", [
    (bayes.ViConfig, "iterations", 2.5),
    (bayes.ViConfig, "iterations", -1),
    (bayes.ViConfig, "iterations", True),
    (bayes.ViConfig, "mc_samples", 0),
    (bayes.HmcConfig, "leapfrog_steps", True),
    (bayes.HmcConfig, "leapfrog_steps", 0),
    (bayes.HmcConfig, "burn_in", np.int64(5)),
    (bayes.HmcConfig, "burn_in", -1),
    (bayes.HmcConfig, "samples", 2.5),
    (bayes.HmcConfig, "samples", False),
    (bayes.HmcConfig, "thin", 0),
])
def test_a_chain_count_that_is_not_an_integer_in_range_is_refused_by_name(make, name, value):
    """A bool would run as a 1-step chain and a float fail later, inside
    NumPy; each is refused where the config is made, by the train_mcd rule."""
    least = 0 if name in ("iterations", "burn_in") else 1
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an integer >= {least}, got {value!r}")):
        make(**{name: value})


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


@pytest.mark.parametrize("method", ["vi", "hmc"])
def test_head_training_rejects_an_empty_dataset(method):
    # train_hmc once returned a sample of the prior
    empty = FeatureDataset(np.zeros((0, 4)), np.zeros(0, np.int64))
    with pytest.raises(ValueError, match="empty dataset"):
        if method == "vi":
            bayes.train_vi(empty, smooth_head(), PRIOR, bayes.ViConfig(iterations=5))
        else:
            bayes.train_hmc(empty, smooth_head(), PRIOR,
                            bayes.HmcConfig(burn_in=0, samples=2, thin=1),
                            np.random.default_rng(0))


def random_image_ds(n, seed=0, k=20):
    rng = np.random.default_rng(seed)
    return ImageDataset(rng.integers(0, 256, (n, 48, 64)).astype(np.uint8),
                        rng.integers(0, k, n))


@pytest.mark.parametrize("batch_size", [1, 7, 16, 24], ids=["1", "7", "16", "n+1"])
def test_train_mcd_streams_minibatches_through_one_dict_and_keeps_the_weight_bytes(
        batch_size, monkeypatch):
    ds = random_image_ds(23, seed=batch_size)
    spec = nn.default_network_spec(20)
    seen = []
    original = nn.nll_and_grad_batch

    def recording(*args, **kwargs):
        seen.append(kwargs.get("buffers"))
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, "nll_and_grad_batch", recording)
    got = bayes.train_mcd(ds, spec, epochs=2, batch_size=batch_size, lr=1e-3,
                          rng=np.random.default_rng(4))
    assert len(seen) == 2 * -(-23 // batch_size)
    assert isinstance(seen[0], dict) and all(b is seen[0] for b in seen)
    want = train_mcd_reference(ds, spec, epochs=2, batch_size=batch_size, lr=1e-3,
                               rng=np.random.default_rng(4))
    assert got.weights.tobytes() == want.weights.tobytes()


def _traced_rises(monkeypatch, name):
    """Record, for each call of nn.<name>, how far tracemalloc's peak rose
    above the traced memory at the call."""
    rises = []
    original = getattr(nn, name)

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = original(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(nn, name, traced)
    return rises


def test_a_training_step_after_the_first_allocates_no_large_array(monkeypatch):
    """Once the first minibatch has sized the buffers, a gradient pass
    needs about 0.23 MB besides the gradient it returns (11.1 MB when each
    pass made its own arrays, 4.9 MB with only the forward pass buffered),
    and an ADAM update about 36 KB."""
    spec = nn.default_network_spec(20)
    grads = _traced_rises(monkeypatch, "nll_and_grad_batch")
    updates = _traced_rises(monkeypatch, "_adam_update")
    tracemalloc.start()
    try:
        bayes.train_mcd(random_image_ds(302), spec, epochs=1, rng=np.random.default_rng(1))
    finally:
        tracemalloc.stop()
    assert len(grads) == len(updates) == 19
    transient = max(grads[1:]) - 8 * nn.param_count(spec)  # less the returned gradient
    assert transient < 512 * 2 ** 10, transient
    assert max(updates[1:]) < 128 * 2 ** 10, max(updates[1:])


def test_training_peak_memory_does_not_grow_with_the_dataset():
    peaks = []
    for n in (256, 1024):
        ds = random_image_ds(n)
        tracemalloc.start()
        try:
            bayes.train_mcd(ds, nn.default_network_spec(20), epochs=1,
                            rng=np.random.default_rng(2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 64 * 2 ** 10, peaks


@pytest.mark.parametrize("kwargs, match", [
    ({"epochs": -3}, "epochs must be an integer >= 0"),
    ({"epochs": 1.0}, "epochs must be an integer >= 0"),
    ({"batch_size": -1}, "batch_size must be an integer >= 1"),
    ({"batch_size": 0}, "batch_size must be an integer >= 1"),
    ({"batch_size": True}, "batch_size must be an integer >= 1"),
    ({"lr": -1.0}, "lr must be finite and positive"),
    ({"lr": 0.0}, "lr must be finite and positive"),
    ({"lr": math.nan}, "lr must be finite and positive"),
    ({"lr": math.inf}, "lr must be finite and positive"),
    ({"images": (40, 64)}, re.escape("image shape (40, 64, 1) != (48, 64, 1)")),
    ({"label": -1, "epochs": 0}, "label -1 out of range for 20 classes"),
    ({"label": 20}, "label 20 out of range for 20 classes"),
])
def test_train_mcd_rejects_bad_arguments_before_any_work(kwargs, match):
    kwargs = dict(kwargs)
    ds = random_image_ds(9)
    images = np.zeros((9,) + kwargs.pop("images"), np.uint8) if "images" in kwargs else ds.images
    labels = ds.labels.copy()
    if "label" in kwargs:
        labels[5] = kwargs.pop("label")
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        bayes.train_mcd(ImageDataset(images, labels), nn.default_network_spec(20),
                        **{"epochs": 1, **kwargs}, rng=rng)
    assert rng.bit_generator.state == state  # not even the weights were drawn


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
    boundary = spec.plan.feature_boundary
    ext_spec = nn.NetworkSpec(spec.layers[:boundary], spec.input_shape, 64)
    n_ext = nn.param_count(ext_spec)
    want = naive_forward(ext_spec, w[:n_ext], img[..., None] / 255.0)
    assert np.abs(feats - want).max() < 1e-10


def test_images_to_input_equals_the_per_image_map():
    images = np.random.default_rng(8).integers(0, 256, (5, 48, 64)).astype(np.uint8)
    for batch in (images, images[..., None], list(images), images[2:3]):
        got = images_to_input(batch)
        want = np.stack([image_to_input(img) for img in batch])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_extract_features_rejects_bad_shape():
    spec = nn.default_network_spec(2)
    post = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        bayes.extract_features(post, np.zeros((10, 10), dtype=np.uint8))


def test_extract_features_batch_rejects_bad_shape_in_chunks():
    spec = nn.default_network_spec(2)
    post = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="image shape"):
        bayes.extract_features_batch(post, np.zeros((40, 48, 63), dtype=np.uint8))


def _mcd(seed=11):
    """Default network with random kernels and small non-zero biases."""
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(seed)
    w = nn.init_weights(spec, rng) + 0.01 * rng.standard_normal(nn.param_count(spec))
    return bayes.McdPosterior(spec, w)


@pytest.fixture(scope="module")
def collected():
    """The 604 frames of a 4-episode collection."""
    ds = sim.collect_dataset(sim.straight_obstacle_scenario(), 4, 5, 2)
    assert len(ds) == 604
    return ds


@pytest.mark.parametrize("n", [1, 2, 3, 4, 31, 32, 33, 47, 64, 65, 100])
def test_chunked_extraction_equals_one_whole_stack_pass(n):
    mcd = _mcd()
    images = np.random.default_rng(n).integers(0, 256, (n, 48, 64)).astype(np.uint8)
    got = bayes.extract_features_batch(mcd, images)
    want = extract_features_batch_reference(mcd, images)
    assert got.shape == want.shape == (n, nn.FEATURE_DIM)
    assert got.tobytes() == want.tobytes()


def test_chunked_extraction_and_training_accuracy_equal_the_whole_dataset_pass(collected):
    mcd = _mcd()
    got = bayes.extract_features_batch(mcd, collected.images)
    assert got.tobytes() == extract_features_batch_reference(mcd, collected.images).tobytes()
    # the head pass over the chunked features gives the full pass's logits
    plan = mcd.spec.plan
    logits = nn.forward_batch(plan.head_spec, mcd.weights[plan.head_slice], got)
    assert logits.tobytes() == training_logits_reference(mcd, collected.images).tobytes()
    acc = cli.training_accuracy(mcd, collected)
    assert float(acc).hex() == float(training_accuracy_reference(mcd, collected)).hex()


@pytest.mark.parametrize("n", [256, 1024])
def test_extraction_peak_memory_does_not_grow_with_the_dataset(n):
    mcd = _mcd()
    images = np.random.default_rng(n).integers(0, 256, (n, 48, 64)).astype(np.uint8)
    tracemalloc.start()
    try:
        bayes.extract_features_batch(mcd, images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


# Traced bytes that one 100-frame dataset pass leaves behind, less its output's
# bytes, in a fresh process: no earlier pass there can have made a buffer
# that this one keeps.
KEPT_BY_A_PASS = """
import tracemalloc
import numpy as np
from safesteer import bayes, nn
spec = nn.default_network_spec(20)
mcd = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
images = np.random.default_rng(9).integers(0, 256, (100, 48, 64)).astype(np.uint8)
tracemalloc.start()
before, _ = tracemalloc.get_traced_memory()
feats = bayes.extract_features_batch(mcd, images)
after, _ = tracemalloc.get_traced_memory()
print(after - before - feats.nbytes)
"""


def test_a_dataset_pass_keeps_no_memory_and_leaves_earlier_results_alone():
    proc = subprocess.run([sys.executable, "-c", KEPT_BY_A_PASS], capture_output=True,
                          text=True, check=True)
    # the conv buffers of the chunk loop are gone once the pass returns
    assert int(proc.stdout) < 64 * 2 ** 10, proc.stdout
    mcd = _mcd()
    images = np.random.default_rng(9).integers(0, 256, (2, 100, 48, 64)).astype(np.uint8)
    first = bayes.extract_features_batch(mcd, images[0])
    kept = first.copy()
    bayes.extract_features_batch(mcd, images[1])
    assert first.tobytes() == kept.tobytes()


def test_extracting_zero_frames_gives_zero_feature_rows():
    got = bayes.extract_features_batch(_mcd(), np.zeros((0, 48, 64), dtype=np.uint8))
    assert got.shape == (0, nn.FEATURE_DIM)


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


@pytest.mark.parametrize("iterations", [1, 4, 40])
def test_fit_mean_field_keeps_the_bytes_of_the_copying_adam_steps(iterations):
    """The in-place ADAM update gives the (mu, rho) and ELBO trace of one
    copying adam_step per iteration, from the prior and from a given mean."""
    head = relu_head()
    ds = toy_feature_ds(6, n=30)
    loglik = bayes._class_loglik(ds, head)
    n = nn.param_count(head)
    cfg = bayes.ViConfig(iterations=iterations, lr=0.01, seed=9)
    for init_mu in (None, np.random.default_rng(10).normal(0, 0.5, n)):
        got = bayes.fit_mean_field(loglik, n, PRIOR.param_sigmas(head), cfg, init_mu=init_mu)
        want = fit_mean_field_reference(loglik, n, PRIOR.param_sigmas(head), cfg,
                                        init_mu=init_mu)
        for field in ("mu", "rho", "elbo_trace"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


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


@pytest.mark.parametrize("bad", [-1, 3])
def test_the_trainers_reject_a_label_outside_the_classes(bad):
    """-1 would otherwise train as the last class, and 3 fail as a bare
    IndexError, deep inside the loss."""
    head = relu_head()
    ds = toy_feature_ds(5)
    labels = ds.labels.copy()
    labels[4] = bad
    ds = FeatureDataset(ds.features, labels)
    match = f"label {bad} out of range for 3 classes"
    with pytest.raises(ValueError, match=match):
        bayes.train_vi(ds, head, PRIOR, bayes.ViConfig(iterations=5))
    with pytest.raises(ValueError, match=match):
        bayes.train_hmc(ds, head, PRIOR, bayes.HmcConfig(burn_in=0, samples=2, thin=1),
                        np.random.default_rng(0))
    images = separable_image_ds(n=8)
    spec = nn.default_network_spec(3)
    with pytest.raises(ValueError, match=match):
        bayes.train_mcd(ImageDataset(images.images, labels[:8]), spec, epochs=1,
                        batch_size=16, rng=np.random.default_rng(0))


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
# posterior validation

def test_hmc_posterior_rejects_sample_of_wrong_length():
    head = smooth_head()
    n = nn.param_count(head)
    with pytest.raises(ValueError, match=f"{n} parameters"):
        bayes.HmcPosterior(head, np.zeros((2, n - 1)))
    with pytest.raises(ValueError, match=f"{n} parameters"):
        bayes.HmcPosterior(head, np.zeros((1, 1, n)))
    with pytest.raises(ValueError, match=f"{n} parameters"):
        bayes.HmcPosterior(head, np.zeros(n))
    with pytest.raises(ValueError, match=f"{n} parameters"):
        bayes.HmcPosterior(head, (np.zeros(n), np.zeros(n)))  # a tuple of samples
    with pytest.raises(ValueError, match="at least one sample"):
        bayes.HmcPosterior(head, np.zeros((0, n)))


def test_hmc_posterior_samples_are_one_read_only_array():
    head = smooth_head()
    n = nn.param_count(head)
    given = np.random.default_rng(0).normal(0, 1, (4, n))
    post = bayes.HmcPosterior(head, given)
    assert isinstance(post.samples, np.ndarray) and post.samples.shape == (4, n)
    assert not post.samples.flags.writeable
    assert np.shares_memory(post.samples, given)  # a view, not a second copy
    with pytest.raises(ValueError):
        post.samples[0, 0] = 1.0
    trained = bayes.train_hmc(toy_feature_ds(7, n=10), relu_head(), PRIOR,
                              bayes.HmcConfig(0.05, 5, 3, 6, 2), np.random.default_rng(3))
    assert trained.samples.shape == (6, nn.param_count(relu_head()))
    assert not trained.samples.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_posteriors_reject_non_finite_values(bad):
    head = smooth_head()
    n = nn.param_count(head)
    spoiled = np.zeros(n)
    spoiled[n // 2] = bad
    with pytest.raises(ValueError, match="finite"):
        bayes.McdPosterior(head, spoiled)
    with pytest.raises(ValueError, match="finite"):
        bayes.ViPosterior(head, spoiled, np.zeros(n))
    with pytest.raises(ValueError, match="finite"):
        bayes.ViPosterior(head, np.zeros(n), spoiled)
    with pytest.raises(ValueError, match="finite"):
        bayes.HmcPosterior(head, np.stack([np.zeros(n), spoiled]))


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
    post = bayes.HmcPosterior(head, w0[None])
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


@pytest.mark.parametrize("n", [1, 7, 32])
def test_sample_weights_vi_and_hmc_stack_the_per_row_draws(n):
    head = relu_head()
    p = nn.param_count(head)
    rng = np.random.default_rng(n)
    vi = bayes.ViPosterior(head, rng.normal(0, 1, p), rng.normal(-1.0, 0.5, p))
    hmc = bayes.HmcPosterior(head, np.stack([rng.normal(0, 1, p) for _ in range(5)]))
    for post in (vi, hmc):
        draws = bayes.sample_weights(post, n, np.random.default_rng([n, 1]))
        assert isinstance(draws, np.ndarray) and draws.shape == (n, p)
        want = np.stack(sample_weights_per_row(post, n, np.random.default_rng([n, 1])))
        assert draws.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 32, 100])
def test_sample_weights_hmc_equals_the_stacked_gather_and_leaves_the_same_rng_state(n):
    head = relu_head()
    p = nn.param_count(head)
    post = bayes.HmcPosterior(head, np.random.default_rng(n).normal(0, 1, (1000, p)))
    rng, ref_rng = np.random.default_rng([n, 2]), np.random.default_rng([n, 2])
    got = bayes.sample_weights(post, n, rng)
    want = sample_weights_hmc_reference(post, n, ref_rng)
    assert got.shape == want.shape == (n, p) and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_an_unknown_posterior_is_a_type_error_from_sample_weights():
    with pytest.raises(TypeError, match="unknown posterior"):
        bayes.sample_weights(object(), 4, np.random.default_rng(0))
    with pytest.raises(TypeError, match="unknown posterior"):
        uncertainty.predictive(object(), np.zeros(4), 4, np.random.default_rng(0))


def test_sample_weights_mcd_masks():
    spec = nn.default_network_spec(2)
    post = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
    head = spec.plan.head_spec
    masks = bayes.sample_weights(post, 3, np.random.default_rng(1))
    # one mask dict over the head's dropout layers, one 0/1 row per sample
    assert set(masks) == set(head.plan.dropout)
    for i, v in masks.items():
        assert v.shape == (3, head.plan.dropout[i])
        assert set(np.unique(v)).issubset({0.0, 1.0})
    # predictive draws exactly these masks and nothing else
    feats = np.random.default_rng(2).normal(0, 1, nn.FEATURE_DIM)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    uncertainty.predictive(post, feats, 32, rng)
    bayes.sample_weights(post, 32, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
