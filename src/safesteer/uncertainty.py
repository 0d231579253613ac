"""From posterior samples to decisions and real-time confidence: the
predictive distribution, argmax decision over steering bins, the epsilon-ball
decision confidence, mutual information, and the tiered warning rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bayes, nn


# The steering range the bins cover: sim.step and the autopilot clamp to it.
STEERING_LO, STEERING_HI = -1.0, 1.0
# The bins of collected labels and of `train`'s network. Elsewhere K is the
# width of the network's output: bins are uniform over the range, and a
# decision actuates its bin's centre.
NUM_BINS = 20


def bin_width(k: int) -> float:
    return (STEERING_HI - STEERING_LO) / k


def bin_center(class_index: int, k: int = NUM_BINS) -> float:
    if not 0 <= class_index < k:
        raise ValueError(f"class {class_index} out of range")
    return STEERING_LO + (class_index + 0.5) * bin_width(k)


def steering_to_class(angle: float, k: int = NUM_BINS) -> int:
    """Bin an angle; out-of-range angles clamp, the top edge maps to the
    last bin."""
    a = min(max(angle, STEERING_LO), STEERING_HI)
    return min(int((a - STEERING_LO) / bin_width(k)), k - 1)


@dataclass(frozen=True)
class PredictiveDistribution:
    per_sample_probs: np.ndarray  # (n, K): the network's K outputs, one steering bin each

    def __post_init__(self):
        p = self.per_sample_probs
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError("need an (n, K) matrix with n >= 1")
        # written so that a NaN fails both tests
        if not np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9:
            raise ValueError("rows must be finite and sum to 1")
        if not p.min() >= 0.0:
            raise ValueError("probabilities must be non-negative")

    @classmethod
    def from_samples(cls, rows: np.ndarray) -> "PredictiveDistribution":
        return cls(np.asarray(rows, dtype=np.float64))

    @cached_property
    def mean_probs(self) -> np.ndarray:  # (K,)
        p = self.per_sample_probs
        return p.sum(axis=0) / p.shape[0]


@dataclass(frozen=True)
class Decision:
    class_index: int
    steering: float


@dataclass(frozen=True)
class ConfidenceReport:
    eta2: float
    mutual_info: float
    warning: str | None


def predictive(post: bayes.Posterior, features: np.ndarray, n: int,
               rng: np.random.Generator) -> PredictiveDistribution:
    """Forward + softmax of one feature vector under the n posterior samples
    of `bayes.sample_weights`, as one head pass over n rows (MCD: n dropout
    masks on the fixed head weights; VI/HMC: one weight sample per row)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("predictive needs a feature vector")
    draw = bayes.sample_weights(post, n, rng)
    rows = np.broadcast_to(x, (n, x.size))
    if isinstance(post, bayes.McdPosterior):
        plan = post.spec.plan
        logits = nn.forward_batch(plan.head_spec, post.weights[plan.head_slice], rows, draw)
    else:
        logits = nn.forward_batch(post.head, draw, rows)
    return PredictiveDistribution.from_samples(nn.softmax(logits))


def decide(pred: PredictiveDistribution) -> Decision:
    """Most likely class of the predictive mean; ties break low."""
    idx = int(np.argmax(pred.mean_probs))
    return Decision(idx, bin_center(idx, pred.per_sample_probs.shape[1]))


def decision_confidence(pred: PredictiveDistribution, decision: Decision,
                        eps: float = 0.1) -> float:
    """Fraction of weight samples whose own most likely steering lands within
    eps of the deployed decision."""
    bayes._check_positive("eps", eps)
    votes = np.argmax(pred.per_sample_probs, axis=1)
    centers = STEERING_LO + (votes + 0.5) * bin_width(pred.per_sample_probs.shape[1])
    # small slack so a center distance of exactly eps survives float rounding
    inside = np.abs(centers - decision.steering) <= eps + 1e-12
    return int(np.count_nonzero(inside)) / inside.size


def _entropy(p: np.ndarray) -> np.ndarray:
    """-sum p log p along the last axis, with 0 log 0 = 0."""
    logp = np.log(p, out=np.zeros(p.shape), where=p > 0.0)
    return -(p * logp).sum(axis=-1)


def mutual_information(pred: PredictiveDistribution) -> float:
    """Disagreement among samples in nats: H(mean) - mean per-sample H."""
    per_sample = _entropy(pred.per_sample_probs)
    mi = float(_entropy(pred.mean_probs) - per_sample.sum() / per_sample.size)
    return max(mi, 0.0)


# The published mutual-information warning threshold is 0.45 with the log
# base unstated; entropies in this codebase are natural-log, and the BALD
# convention is bits, so the deployed default converts 0.45 bits to nats.
MI_THRESHOLD_BITS = 0.45
DEFAULT_MI_THRESHOLD = MI_THRESHOLD_BITS * math.log(2.0)


@dataclass(frozen=True)
class WarningThresholds:
    delta1: float = 0.7
    delta2: float = 0.6
    mi_threshold: float = DEFAULT_MI_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.delta2 < self.delta1 <= 1.0:  # a NaN fails too
            raise ValueError("need 0 <= delta2 < delta1 <= 1")
        if not self.mi_threshold >= 0.0:
            raise ValueError("mi_threshold must be >= 0")

    def classify(self, eta2: float, mutual_info: float) -> str | None:
        """Tiered warning: W2 below delta2 confidence, W1 below delta1, W0
        when confident but mutual information (nats) runs high."""
        if eta2 < self.delta2:
            return "W2"
        if eta2 < self.delta1:
            return "W1"
        if mutual_info > self.mi_threshold:
            return "W0"
        return None


def confidence_report(pred: PredictiveDistribution, decision: Decision,
                      eps: float, thresholds: WarningThresholds) -> ConfidenceReport:
    eta2 = decision_confidence(pred, decision, eps)
    mi = mutual_information(pred)
    return ConfidenceReport(eta2, mi, thresholds.classify(eta2, mi))
