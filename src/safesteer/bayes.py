"""Posterior approximations over the classification head: MC dropout
training and sampling, mean-field variational inference by reparameterized
ELBO ascent, and Hamiltonian Monte Carlo with leapfrog proposals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import FeatureDataset, ImageDataset, images_to_input
from . import nn


@dataclass(frozen=True)
class Prior:
    """Zero-mean Gaussian prior with one scale for every parameter."""

    sigma: float = 1.0

    def __post_init__(self):
        _check_positive("prior sigma", self.sigma)

    def param_sigmas(self, spec: nn.NetworkSpec) -> np.ndarray:
        """Per-parameter scale vector for the given network."""
        return np.full(spec.plan.param_count, self.sigma, dtype=np.float64)


@dataclass(frozen=True)
class McdPosterior:
    spec: nn.NetworkSpec
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (nn.param_count(self.spec),):
            raise ValueError("weight vector does not match the network")
        if not np.isfinite(self.weights).all():
            raise ValueError("MCD weights must be finite")

    @property
    def rates(self) -> tuple[float, ...]:
        """The dropout rates of the network's dropout layers, in order."""
        return tuple(l.dropout_rate for l in self.spec.layers if l.dropout_rate > 0.0)


@dataclass(frozen=True)
class ViPosterior:
    head: nn.NetworkSpec
    mu: np.ndarray
    rho: np.ndarray  # log standard deviations

    def __post_init__(self):
        n = nn.param_count(self.head)
        if self.mu.shape != (n,) or self.rho.shape != (n,):
            raise ValueError("mu/rho length does not match the head")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.rho).all()):
            raise ValueError("VI mu and rho must be finite")


@dataclass(frozen=True)
class HmcPosterior:
    head: nn.NetworkSpec
    samples: np.ndarray  # (S, param_count), one retained sample per row; read-only

    def __post_init__(self):
        n = nn.param_count(self.head)
        if not isinstance(self.samples, np.ndarray) or self.samples.ndim != 2 \
                or self.samples.shape[1] != n:
            raise ValueError(f"HMC samples must be an (S, {n}) array, one row of "
                             f"the head's {n} parameters per sample")
        if self.samples.shape[0] == 0:
            raise ValueError("HMC posterior needs at least one sample")
        if not np.isfinite(self.samples).all():
            raise ValueError("HMC samples must be finite")
        view = self.samples.view()
        view.flags.writeable = False
        object.__setattr__(self, "samples", view)


Posterior = McdPosterior | ViPosterior | HmcPosterior


def _check_count(name: str, value, least: int) -> None:
    """A count is an int (not a bool) of at least `least`."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """A positive real is finite and above 0; a NaN fails too."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ViConfig:
    iterations: int = 2000
    mc_samples: int = 1
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        _check_count("iterations", self.iterations, 0)
        _check_count("mc_samples", self.mc_samples, 1)
        _check_positive("VI lr", self.lr)


@dataclass(frozen=True)
class HmcConfig:
    step_size: float = 0.01
    leapfrog_steps: int = 10
    burn_in: int = 500
    samples: int = 1000
    thin: int = 2

    def __post_init__(self):
        _check_positive("step size", self.step_size)
        for name, least in (("leapfrog_steps", 1), ("burn_in", 0), ("samples", 1), ("thin", 1)):
            _check_count(name, getattr(self, name), least)


def train_mcd(dataset: ImageDataset, spec: nn.NetworkSpec, epochs: int = 25,
              batch_size: int = 16, lr: float = 1e-4,
              rng: np.random.Generator | None = None) -> McdPosterior:
    """Train the full network with dropout active (fresh masks per example)
    under ADAM. One dict of buffers per call, sized by the first minibatch
    (the largest) and dropped on return, holds each minibatch's scaled
    input, conv arrays and ADAM temporaries, so memory does not grow with
    the dataset. Bad arguments raise ValueError before any work."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    _check_count("epochs", epochs, 0)
    _check_count("batch_size", batch_size, 1)
    _check_positive("lr", lr)
    _check_image_shape(spec, dataset.images.shape[1:] + (1,))
    y_all = np.asarray(dataset.labels, dtype=np.int64)
    nn._check_labels(spec, y_all)
    rng = rng if rng is not None else np.random.default_rng(0)
    w = nn.init_weights(spec, rng)
    m, v = np.zeros(w.size), np.zeros(w.size)
    n = len(dataset)
    buffers: dict = {}
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            x, = nn._buffers(buffers, "input", (len(idx),) + spec.input_shape)
            np.divide(dataset.images[idx, ..., None], 255.0, out=x, dtype=np.float64)
            masks = nn.sample_dropout_mask(spec, rng, batch=len(idx))
            _, grad = nn.nll_and_grad_batch(spec, w, x, y_all[idx], masks, buffers=buffers)
            t += 1
            nn._adam_update(w, grad, m, v, t, lr, buffers)
    return McdPosterior(spec, w)


def extract_features(mcd: McdPosterior, image: np.ndarray) -> np.ndarray:
    """Mask-free forward through the fixed extractor (conv stack and the
    first fc+relu); pure function of (weights, image)."""
    return extract_features_batch(mcd, np.asarray(image)[None])[0]


# Most frames in one extractor pass. A pass holds its im2col matrices, about
# 0.4 MB per frame, so a whole-dataset pass runs in chunks. Chunks of 16 to
# 32 frames give rows bit-identical to one whole-dataset batch; chunks of
# 1 to 3 frames do not.
EXTRACT_CHUNK = 32


def extract_features_batch(mcd: McdPosterior, images: np.ndarray) -> np.ndarray:
    """Features of a stack of frames, one row per frame. More than
    EXTRACT_CHUNK frames run as ceil(n / EXTRACT_CHUNK) near-equal
    contiguous chunks of 16 to 32 frames, so peak memory does not grow
    with n. The chunks share one set of conv buffers, sized by the first
    chunk (np.array_split makes it the largest) and dropped on return."""
    n = len(images)
    if n <= EXTRACT_CHUNK:
        return _extract_chunk(mcd, images)
    buffers: dict = {}
    return np.concatenate([_extract_chunk(mcd, chunk, buffers)
                           for chunk in np.array_split(images, -(-n // EXTRACT_CHUNK))])


def _extract_chunk(mcd: McdPosterior, images: np.ndarray,
                   buffers: dict | None = None) -> np.ndarray:
    boundary = mcd.spec.plan.feature_boundary
    x = images_to_input(images)
    _check_image_shape(mcd.spec, x.shape[1:])
    return nn.forward_batch(mcd.spec, mcd.weights, x, stop_after=boundary - 1,
                            buffers=buffers)


def _check_image_shape(spec: nn.NetworkSpec, shape: tuple[int, ...]) -> None:
    if shape != spec.input_shape:
        raise ValueError(f"image shape {shape} != {spec.input_shape}")


def head_weights(mcd: McdPosterior) -> np.ndarray:
    return mcd.weights[mcd.spec.plan.head_slice].copy()


# ---------------------------------------------------------------------------
# Variational inference

def _class_loglik(ds: FeatureDataset, head: nn.NetworkSpec):
    """Total log-likelihood of the dataset and its weight gradient."""
    x = np.asarray(ds.features, dtype=np.float64)
    y = np.asarray(ds.labels, dtype=np.int64)

    def fn(w: np.ndarray) -> tuple[float, np.ndarray]:
        if len(y) == 0:
            return 0.0, np.zeros_like(w)
        nll, grad = nn.nll_and_grad_batch(head, w, x, y, mean=False)
        return -nll, -grad

    return fn


def kl_diag_gaussian(mu: np.ndarray, rho: np.ndarray,
                     prior_sigma: np.ndarray) -> float:
    """KL(N(mu, exp(rho)^2) || N(0, prior_sigma^2)), summed over coordinates."""
    sigma = np.exp(rho)
    return float(np.sum(np.log(prior_sigma / sigma)
                        + (sigma ** 2 + mu ** 2) / (2.0 * prior_sigma ** 2) - 0.5))


def _elbo_estimate(loglik_fn, mu, rho, prior_sigma, rng, mc_samples):
    """Mean over mc_samples reparameterized draws (w = mu + e^rho * zeta) of
    the ELBO and its (mu, rho) gradient; the KL term is exact."""
    sigma = np.exp(rho)
    kl = kl_diag_gaussian(mu, rho, prior_sigma)
    gm = np.zeros_like(mu)
    gr = np.zeros_like(rho)
    elbo = 0.0
    for _ in range(mc_samples):
        zeta = rng.standard_normal(mu.size)
        ll, dw = loglik_fn(mu + sigma * zeta)
        grad_mu = dw - mu / prior_sigma ** 2
        grad_rho = dw * sigma * zeta - (sigma ** 2 / prior_sigma ** 2 - 1.0)
        sample_elbo = ll - kl
        if not (np.isfinite(sample_elbo) and np.all(np.isfinite(grad_mu))
                and np.all(np.isfinite(grad_rho))):
            raise FloatingPointError("non-finite ELBO gradient")
        gm += grad_mu / mc_samples
        gr += grad_rho / mc_samples
        elbo += sample_elbo / mc_samples
    return gm, gr, elbo


def elbo_gradient(ds: FeatureDataset, head: nn.NetworkSpec, prior: Prior,
                  mu: np.ndarray, rho: np.ndarray, rng: np.random.Generator):
    """Reparameterization estimator of the ELBO gradient (w = mu + e^rho * zeta)
    with the Gaussian-vs-Gaussian KL in closed form."""
    return _elbo_estimate(_class_loglik(ds, head), mu, rho, prior.param_sigmas(head), rng, 1)


@dataclass(frozen=True)
class ViFit:
    mu: np.ndarray
    rho: np.ndarray
    elbo_trace: np.ndarray


def fit_mean_field(loglik_fn, dim: int, prior_sigma: np.ndarray, cfg: ViConfig,
                   init_mu: np.ndarray | None = None) -> ViFit:
    """ADAM ascent on the reparameterized ELBO for any total log-likelihood;
    starts at q = prior unless init_mu is given. The returned (mu, rho) is
    the Polyak average of the final quarter of the iterates, which removes
    the stationary jitter of the stochastic gradient."""
    rng = np.random.default_rng(cfg.seed)
    prior_sigma = np.broadcast_to(np.asarray(prior_sigma, dtype=np.float64), (dim,))
    mu = np.zeros(dim) if init_mu is None else np.asarray(init_mu, dtype=np.float64).copy()
    rho = np.log(prior_sigma).copy()
    params = np.concatenate([mu, rho])
    m, v = np.zeros(params.size), np.zeros(params.size)
    trace = np.empty(cfg.iterations)
    tail_from = cfg.iterations - max(cfg.iterations // 4, 1)
    tail_sum = np.zeros_like(params)
    tail_n = 0
    for it in range(cfg.iterations):
        gm, gr, trace[it] = _elbo_estimate(loglik_fn, params[:dim], params[dim:],
                                           prior_sigma, rng, cfg.mc_samples)
        # ascent: ADAM minimizes, so feed the negative gradient
        nn._adam_update(params, -np.concatenate([gm, gr]), m, v, it + 1, cfg.lr)
        if it >= tail_from:
            tail_sum += params
            tail_n += 1
    final = tail_sum / tail_n if tail_n else params
    return ViFit(final[:dim].copy(), final[dim:].copy(), trace)


def train_vi(ds: FeatureDataset, head: nn.NetworkSpec, prior: Prior,
             cfg: ViConfig, init_mu: np.ndarray | None = None) -> ViPosterior:
    """Mean-field Gaussian posterior over the head weights."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    fit = fit_mean_field(_class_loglik(ds, head), nn.param_count(head),
                         prior.param_sigmas(head), cfg, init_mu=init_mu)
    return ViPosterior(head, fit.mu, fit.rho)


# ---------------------------------------------------------------------------
# Hamiltonian Monte Carlo

def potential_energy(w: np.ndarray, ds: FeatureDataset, head: nn.NetworkSpec,
                     prior: Prior) -> tuple[float, np.ndarray]:
    """U = total cross-entropy + ||w||^2/(2 sigma^2) (negative log posterior
    up to a constant), with its gradient."""
    prior_sigma = prior.param_sigmas(head)
    ll, dll = _class_loglik(ds, head)(w)
    u = -ll + float(np.sum(w ** 2 / (2.0 * prior_sigma ** 2)))
    grad = -dll + w / prior_sigma ** 2
    if not (math.isfinite(u) and np.all(np.isfinite(grad))):
        raise FloatingPointError("non-finite potential energy")
    return u, grad


def leapfrog(q: np.ndarray, p: np.ndarray, step_size: float, steps: int,
             grad_u) -> tuple[np.ndarray, np.ndarray]:
    """Half-step/full-step/half-step leapfrog integration of Hamiltonian
    dynamics; grad_u maps position to the potential gradient."""
    if q.shape != p.shape:
        raise ValueError("position/momentum shapes disagree")
    if steps < 1:
        raise ValueError("need at least one step")
    q = q.astype(np.float64)  # astype copies, so the caller's arrays stay as they were
    p = p.astype(np.float64)
    p -= 0.5 * step_size * grad_u(q)
    for i in range(steps):
        q += step_size * p
        if i < steps - 1:
            p -= step_size * grad_u(q)
    p -= 0.5 * step_size * grad_u(q)
    return q, p


def hmc_chain(u_fn, dim: int, cfg: HmcConfig, rng: np.random.Generator,
              init: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Metropolis-adjusted HMC for any potential; u_fn(w) -> (U, grad U).
    Returns the retained post-burn-in thinned samples as a (cfg.samples, dim)
    array, one per row, and the acceptance rate."""
    q = np.zeros(dim) if init is None else np.asarray(init, dtype=np.float64).copy()
    u = u_fn(q)[0]
    kept = np.empty((cfg.samples, dim))
    accepted = 0
    total = cfg.burn_in + cfg.samples * cfg.thin
    for it in range(total):
        p = rng.standard_normal(dim)
        h0 = u + 0.5 * float(p @ p)
        q2, p2 = leapfrog(q, p, cfg.step_size, cfg.leapfrog_steps,
                          lambda x: u_fn(x)[1])
        u2 = u_fn(q2)[0]
        h1 = u2 + 0.5 * float(p2 @ p2)
        if rng.random() < math.exp(min(0.0, h0 - h1)):
            q, u = q2, u2
            accepted += 1
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            kept[(it - cfg.burn_in) // cfg.thin] = q
    return kept, accepted / total


def train_hmc(ds: FeatureDataset, head: nn.NetworkSpec, prior: Prior,
              cfg: HmcConfig, rng: np.random.Generator,
              init_w: np.ndarray | None = None) -> HmcPosterior:
    """Sample the head posterior with HMC; the target is exp(-U) with U from
    potential_energy."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    samples, _ = hmc_chain(lambda w: potential_energy(w, ds, head, prior),
                           nn.param_count(head), cfg, rng, init=init_w)
    return HmcPosterior(head, samples)


def effective_sample_size(x: np.ndarray) -> float:
    """ESS of a scalar chain via Geyer's initial positive sequence."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    # autocovariance by direct products (chains here are short enough)
    tau = 1.0
    k = 1
    while k < n - 1:
        rho_a = float(x[:-k] @ x[k:]) / (n * var)
        rho_b = float(x[:-(k + 1)] @ x[(k + 1):]) / (n * var) if k + 1 < n else 0.0
        if rho_a + rho_b <= 0.0:
            break
        tau += 2.0 * (rho_a + rho_b)
        k += 2
    return n / tau


def sample_weights(post: Posterior, n: int,
                   rng: np.random.Generator) -> np.ndarray | nn.DropoutMask:
    """Draw n posterior samples of the head: for VI and HMC an
    (n, param_count) array of weights, one sample per row; for MCD one
    batched dropout mask over the head's dropout layers, (n, width) rows of
    0/1 to apply to the fixed head weights."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if isinstance(post, McdPosterior):
        return nn.sample_dropout_mask(post.spec.plan.head_spec, rng, batch=n)
    if isinstance(post, ViPosterior):
        sigma = np.exp(post.rho)
        zeta = rng.standard_normal((n, post.mu.size))
        return post.mu + sigma * zeta
    if isinstance(post, HmcPosterior):
        return post.samples[rng.integers(0, len(post.samples), size=n)]
    raise TypeError(f"unknown posterior {type(post)!r}")
