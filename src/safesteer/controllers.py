"""The deployed controller: posterior sampling per frame, argmax decision,
and (when monitoring) the per-step confidence report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bayes, uncertainty


@dataclass(frozen=True)
class BnnController:
    """Maps an observation to a steering command via n posterior samples;
    the posterior's network has one output per steering bin.

    For VI/HMC posteriors the fixed extractor weights come from `mcd`
    (features are computed once per frame regardless of method).
    """

    mcd: bayes.McdPosterior
    posterior: bayes.Posterior
    eps: float = 0.1
    n_samples: int = 32
    thresholds: uncertainty.WarningThresholds = uncertainty.WarningThresholds()
    with_confidence: bool = True

    def __post_init__(self):
        bayes._check_count("n_samples", self.n_samples, 1)
        bayes._check_positive("eps", self.eps)

    def act(self, obs: np.ndarray, state, scenario,
            rng: np.random.Generator):
        feats = bayes.extract_features(self.mcd, obs)
        pred = uncertainty.predictive(self.posterior, feats, self.n_samples, rng)
        decision = uncertainty.decide(pred)
        if not self.with_confidence:
            return decision.steering, None
        report = uncertainty.confidence_report(pred, decision, self.eps, self.thresholds)
        return decision.steering, report
