"""Posterior approximations over the classification head: MC dropout
training and sampling, mean-field variational inference by reparameterized
ELBO ascent, and Hamiltonian Monte Carlo with leapfrog proposals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import FeatureDataset, ImageDataset, image_to_input
from . import nn


@dataclass(frozen=True)
class Prior:
    """Zero-mean Gaussian prior; one scale per parameterized layer (a scalar
    broadcasts to every layer)."""

    sigma: float = 1.0
    per_layer: tuple[float, ...] | None = None

    def __post_init__(self):
        scales = self.per_layer if self.per_layer is not None else (self.sigma,)
        if any(s <= 0 for s in scales):
            raise ValueError("prior scales must be positive")

    def param_sigmas(self, spec: nn.NetworkSpec) -> np.ndarray:
        """Per-parameter scale vector for the given network."""
        sl = [s for s in spec.plan.slices if s is not None]
        if self.per_layer is not None and len(self.per_layer) != len(sl):
            raise ValueError(f"{len(self.per_layer)} scales for {len(sl)} parameterized layers")
        out = np.empty(spec.plan.param_count)
        for i, (wsl, bsl) in enumerate(sl):
            scale = self.per_layer[i] if self.per_layer is not None else self.sigma
            out[wsl] = scale
            out[bsl] = scale
        return out


@dataclass(frozen=True)
class McdPosterior:
    spec: nn.NetworkSpec
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (nn.param_count(self.spec),):
            raise ValueError("weight vector does not match the network")

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


@dataclass(frozen=True)
class HmcPosterior:
    head: nn.NetworkSpec
    samples: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("HMC posterior needs at least one sample")


Posterior = McdPosterior | ViPosterior | HmcPosterior


@dataclass(frozen=True)
class ViConfig:
    iterations: int = 2000
    mc_samples: int = 1
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0 or self.mc_samples < 1:
            raise ValueError("counts must be positive")


@dataclass(frozen=True)
class HmcConfig:
    step_size: float = 0.01
    leapfrog_steps: int = 10
    burn_in: int = 500
    samples: int = 1000
    thin: int = 2

    def __post_init__(self):
        if self.step_size <= 0 or self.leapfrog_steps < 1:
            raise ValueError("step size must be positive and leapfrog_steps >= 1")
        if self.burn_in < 0 or self.samples < 1 or self.thin < 1:
            raise ValueError("bad chain counts")


def train_mcd(dataset: ImageDataset, spec: nn.NetworkSpec, epochs: int = 25,
              batch_size: int = 16, lr: float = 1e-4,
              rng: np.random.Generator | None = None) -> McdPosterior:
    """Train the full network with dropout active (fresh masks per example)
    under ADAM."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = rng if rng is not None else np.random.default_rng(0)
    x_all = np.stack([image_to_input(img) for img in dataset.images])
    y_all = np.asarray(dataset.labels, dtype=np.int64)
    w = nn.init_weights(spec, rng)
    adam = nn.AdamState.fresh(w.size, lr=lr)
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            masks = nn.sample_dropout_mask(spec, rng, batch=len(idx))
            _, grad = nn.nll_and_grad_batch(spec, w, x_all[idx], y_all[idx], masks)
            w, adam = nn.adam_step(adam, w, grad)
    return McdPosterior(spec, w)


def extract_features(mcd: McdPosterior, image: np.ndarray) -> np.ndarray:
    """Mask-free forward through the fixed extractor (conv stack and the
    first fc+relu); pure function of (weights, image)."""
    return extract_features_batch(mcd, np.asarray(image)[None])[0]


def extract_features_batch(mcd: McdPosterior, images: np.ndarray) -> np.ndarray:
    boundary = mcd.spec.plan.feature_boundary
    x = np.stack([image_to_input(img) for img in images])
    if x.shape[1:] != tuple(mcd.spec.input_shape):
        raise ValueError(f"image shape {x.shape[1:]} != {tuple(mcd.spec.input_shape)}")
    return nn.forward_batch(mcd.spec, mcd.weights, x, stop_after=boundary - 1)


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
                  mu: np.ndarray, rho: np.ndarray, rng: np.random.Generator,
                  mc_samples: int = 1):
    """Reparameterization estimator of the ELBO gradient (w = mu + e^rho * zeta)
    with the Gaussian-vs-Gaussian KL in closed form."""
    return _elbo_estimate(_class_loglik(ds, head), mu, rho, prior.param_sigmas(head),
                          rng, mc_samples)


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
    adam = nn.AdamState.fresh(params.size, lr=cfg.lr)
    trace = np.empty(cfg.iterations)
    tail_from = cfg.iterations - max(cfg.iterations // 4, 1)
    tail_sum = np.zeros_like(params)
    tail_n = 0
    for it in range(cfg.iterations):
        gm, gr, trace[it] = _elbo_estimate(loglik_fn, params[:dim], params[dim:],
                                           prior_sigma, rng, cfg.mc_samples)
        # ascent: ADAM minimizes, so feed the negative gradient
        params, adam = nn.adam_step(adam, params, -np.concatenate([gm, gr]))
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
    """U = total cross-entropy + ||w||^2/(2 sigma^2) per layer (negative log
    posterior up to a constant), with its gradient."""
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
    q = q.astype(np.float64).copy()
    p = p.astype(np.float64).copy()
    p -= 0.5 * step_size * grad_u(q)
    for i in range(steps):
        q += step_size * p
        if i < steps - 1:
            p -= step_size * grad_u(q)
    p -= 0.5 * step_size * grad_u(q)
    return q, p


def hmc_chain(u_fn, dim: int, cfg: HmcConfig, rng: np.random.Generator,
              init: np.ndarray | None = None) -> tuple[list[np.ndarray], float]:
    """Metropolis-adjusted HMC for any potential; u_fn(w) -> (U, grad U).
    Returns the retained post-burn-in thinned samples and the acceptance rate."""
    q = np.zeros(dim) if init is None else np.asarray(init, dtype=np.float64).copy()
    u, gu = u_fn(q)
    kept: list[np.ndarray] = []
    accepted = 0
    total = cfg.burn_in + cfg.samples * cfg.thin
    for it in range(total):
        p = rng.standard_normal(dim)
        h0 = u + 0.5 * float(p @ p)
        q2, p2 = leapfrog(q, p, cfg.step_size, cfg.leapfrog_steps,
                          lambda x: u_fn(x)[1])
        u2, gu2 = u_fn(q2)
        h1 = u2 + 0.5 * float(p2 @ p2)
        if rng.random() < math.exp(min(0.0, h0 - h1)):
            q, u, gu = q2, u2, gu2
            accepted += 1
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            kept.append(q.copy())
    return kept, accepted / total


def train_hmc(ds: FeatureDataset, head: nn.NetworkSpec, prior: Prior,
              cfg: HmcConfig, rng: np.random.Generator,
              init_w: np.ndarray | None = None) -> HmcPosterior:
    """Sample the head posterior with HMC; the target is exp(-U) with U from
    potential_energy."""
    samples, _ = hmc_chain(lambda w: potential_energy(w, ds, head, prior),
                           nn.param_count(head), cfg, rng, init=init_w)
    return HmcPosterior(head, tuple(samples))


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


def sample_weights(post: Posterior, n: int, rng: np.random.Generator) -> list:
    """Draw n head weight samples (for MCD: n dropout masks over the full
    network, to be applied to the fixed weights)."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if isinstance(post, McdPosterior):
        return [nn.sample_dropout_mask(post.spec, rng) for _ in range(n)]
    if isinstance(post, ViPosterior):
        sigma = np.exp(post.rho)
        zeta = rng.standard_normal((n, post.mu.size))
        return [post.mu + sigma * z for z in zeta]
    if isinstance(post, HmcPosterior):
        idx = rng.integers(0, len(post.samples), size=n)
        return [post.samples[i] for i in idx]
    raise TypeError(f"unknown posterior {type(post)!r}")
