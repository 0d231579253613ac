"""From posterior samples to decisions and real-time confidence: the
predictive distribution, argmax decision over steering bins, the epsilon-ball
decision confidence, mutual information, and the tiered warning rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bayes, nn


@dataclass(frozen=True)
class Binning:
    """Uniform steering bins over [lo, hi]; decisions actuate bin centers."""

    num_classes: int = 20
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.num_classes < 1 or self.hi <= self.lo:
            raise ValueError("bad binning")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.num_classes

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.num_classes) + 0.5) * self.width


DEFAULT_BINNING = Binning()


def bin_center(class_index: int, bins: Binning = DEFAULT_BINNING) -> float:
    if not 0 <= class_index < bins.num_classes:
        raise ValueError(f"class {class_index} out of range")
    return bins.lo + (class_index + 0.5) * bins.width


def steering_to_class(angle: float, bins: Binning = DEFAULT_BINNING) -> int:
    """Bin an angle; out-of-range angles clamp, the top edge maps to the
    last bin."""
    a = min(max(angle, bins.lo), bins.hi)
    return min(int((a - bins.lo) / bins.width), bins.num_classes - 1)


@dataclass(frozen=True)
class PredictiveDistribution:
    per_sample_probs: np.ndarray  # (n, K)
    mean_probs: np.ndarray        # (K,)

    def __post_init__(self):
        p = self.per_sample_probs
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError("need an (n, K) matrix with n >= 1")
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("rows must sum to 1")

    @classmethod
    def from_samples(cls, rows: np.ndarray) -> "PredictiveDistribution":
        rows = np.asarray(rows, dtype=np.float64)
        return cls(rows, rows.mean(axis=0))

    @property
    def n_samples(self) -> int:
        return self.per_sample_probs.shape[0]


@dataclass(frozen=True)
class Decision:
    class_index: int
    steering: float


@dataclass(frozen=True)
class ConfidenceReport:
    eta2: float
    mutual_info: float
    warning: str | None
    n_samples: int


def predictive(post: bayes.Posterior, features_or_image: np.ndarray, n: int,
               rng: np.random.Generator) -> PredictiveDistribution:
    """Forward + softmax under n posterior weight samples. MCD accepts a raw
    image or a precomputed feature vector; VI/HMC take features."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    x = np.asarray(features_or_image)
    if isinstance(post, bayes.McdPosterior):
        head = post.spec.plan.head_spec
        hw = post.weights[post.spec.plan.head_slice]
        if x.ndim == 1:
            feats = x.astype(np.float64)
        else:
            feats = bayes.extract_features(post, x)
        # one batched draw is the same mask distribution as n single draws
        masks = nn.sample_dropout_mask(head, rng, batch=n)
        logits = nn.forward_batch(head, hw, np.broadcast_to(feats, (n, feats.size)), masks)
    elif isinstance(post, (bayes.ViPosterior, bayes.HmcPosterior)):
        if x.ndim != 1:
            raise ValueError("VI/HMC predictive needs a feature vector")
        draws = bayes.sample_weights(post, n, rng)
        logits = np.stack([nn.forward_batch(post.head, w, x[None])[0] for w in draws])
    else:
        raise TypeError(f"unknown posterior {type(post)!r}")
    return PredictiveDistribution.from_samples(nn.softmax(logits))


def decide(pred: PredictiveDistribution, bins: Binning = DEFAULT_BINNING) -> Decision:
    """Most likely class of the predictive mean; ties break low."""
    idx = int(np.argmax(pred.mean_probs))
    return Decision(idx, bin_center(idx, bins))


def decision_confidence(pred: PredictiveDistribution, decision: Decision,
                        eps: float = 0.1, bins: Binning = DEFAULT_BINNING) -> float:
    """Fraction of weight samples whose own most likely steering lands within
    eps of the deployed decision."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    votes = np.argmax(pred.per_sample_probs, axis=1)
    centers = bins.centers()[votes]
    # small slack so a center distance of exactly eps survives float rounding
    inside = np.abs(centers - decision.steering) <= eps + 1e-12
    return float(inside.mean())


def _entropy(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def mutual_information(pred: PredictiveDistribution) -> float:
    """Disagreement among samples in nats: H(mean) - mean per-sample H."""
    mi = float(_entropy(pred.mean_probs) - _entropy(pred.per_sample_probs).mean())
    return max(mi, 0.0)


WARNING_SEVERITY = {None: 0, "W0": 1, "W1": 2, "W2": 3}

# The published mutual-information warning threshold is 0.45 with the log
# base unstated; entropies in this codebase are natural-log, and the BALD
# convention is bits, so the deployed default converts 0.45 bits to nats.
MI_THRESHOLD_BITS = 0.45
DEFAULT_MI_THRESHOLD = MI_THRESHOLD_BITS * math.log(2.0)


def classify_warning(eta2: float, mutual_info: float, delta1: float = 0.7,
                     delta2: float = 0.6,
                     mi_threshold: float = DEFAULT_MI_THRESHOLD) -> str | None:
    """Tiered warning: W2 below delta2 confidence, W1 below delta1, W0 when
    confident but mutual information (nats) runs high."""
    if delta2 >= delta1:
        raise ValueError("delta2 must be below delta1")
    if eta2 < delta2:
        return "W2"
    if eta2 < delta1:
        return "W1"
    if mutual_info > mi_threshold:
        return "W0"
    return None


@dataclass(frozen=True)
class WarningThresholds:
    delta1: float = 0.7
    delta2: float = 0.6
    mi_threshold: float = DEFAULT_MI_THRESHOLD

    def __post_init__(self):
        if self.delta2 >= self.delta1:
            raise ValueError("delta2 must be below delta1")

    def classify(self, eta2: float, mutual_info: float) -> str | None:
        return classify_warning(eta2, mutual_info, self.delta1, self.delta2,
                                self.mi_threshold)


def confidence_report(pred: PredictiveDistribution, decision: Decision,
                      eps: float, bins: Binning,
                      thresholds: WarningThresholds) -> ConfidenceReport:
    eta2 = decision_confidence(pred, decision, eps, bins)
    mi = mutual_information(pred)
    return ConfidenceReport(eta2, mi, thresholds.classify(eta2, mi), pred.n_samples)
