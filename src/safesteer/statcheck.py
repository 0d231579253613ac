"""Chernoff sample-size planning and the Bernoulli estimators that turn
episode outcomes and weight-sample indicators into certified probability
estimates."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bayes, sim, uncertainty


@dataclass(frozen=True)
class PrecisionSpec:
    """Absolute error bound theta and confidence parameter gamma."""

    theta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")


def chernoff_sample_size(spec: PrecisionSpec) -> int:
    """Smallest n with n > ln(2/gamma) / (2 theta^2), which guarantees
    P(|estimate - truth| > theta) <= gamma for Bernoulli means."""
    bound = math.log(2.0 / spec.gamma) / (2.0 * spec.theta ** 2)
    return int(math.floor(bound)) + 1


@dataclass(frozen=True)
class SafetyEstimate:
    eta_hat: float
    n: int
    spec: PrecisionSpec
    safe_count: int
    handover_count: int
    collision_count: int
    out_of_bounds_count: int
    error_count: int
    autonomy_rate: float
    logged: tuple[sim.EpisodePath, ...] = field(default=(), repr=False)


def estimate_bernoulli(trial, spec: PrecisionSpec, master_seed) -> tuple[float, int]:
    """Plan n with the Chernoff bound and average n independent indicator
    trials; trial(rng) -> bool."""
    n = chernoff_sample_size(spec)
    hits = 0
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([*_seed_key(master_seed), i]))
        hits += bool(trial(rng))
    return hits / n, n


def _seed_key(seed) -> list[int]:
    return list(seed) if isinstance(seed, (list, tuple)) else [seed]


# The cell a pool worker runs episodes of, set once when the worker starts
_worker_cell = ()


def _set_worker_cell(*cell):
    global _worker_cell
    _worker_cell = cell


def _run_episode(idx, cell=None):
    """Episode idx of a cell (by default the pool worker's): its path if it
    is logged, else its outcome."""
    scenario, controller, monitor, master_seed, log_episodes = cell or _worker_cell
    path = sim.run_episode(scenario, controller, monitor, seed=[*_seed_key(master_seed), idx])
    return path if idx < log_episodes else path.outcome


def estimate_probabilistic_safety(scenario: sim.ScenarioConfig, controller,
                                  monitor: sim.MonitorPolicy | None,
                                  spec: PrecisionSpec, master_seed,
                                  jobs: int = 1, log_episodes: int = 0) -> SafetyEstimate:
    """Run the Chernoff-planned number n of episodes and count safe runs.
    The Chernoff bound assumes n i.i.d. Bernoulli trials: every index i has
    its own seed [*master_seed, i], from which `sim.run_episode` spawns the
    episode's SeedSequence child streams; scenario, controller and monitor
    are the same for all n indices; each outcome is safe (sim.SAFE_OUTCOMES)
    or not, and an episode that raises counts as unsafe (and as an error).
    Results merge in index order, so the estimate is independent of jobs.
    Pool workers receive the cell once, when they start, and then only
    episode indices. The first min(log_episodes, n) episodes of this
    certified batch come back as `logged` paths, in index order."""
    bayes._check_count("jobs", jobs, 1)
    bayes._check_count("log_episodes", log_episodes, 0)
    n = chernoff_sample_size(spec)
    k = min(log_episodes, n)
    cell = (scenario, controller, monitor, master_seed, k)
    if jobs > 1:
        chunk = max(1, n // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs, initializer=_set_worker_cell,
                                 initargs=cell) as pool:
            results = list(pool.map(_run_episode, range(n), chunksize=chunk))
    else:
        results = [_run_episode(i, cell) for i in range(n)]
    logged = tuple(results[:k])
    outcomes = [p.outcome for p in logged] + results[k:]
    count = {o: outcomes.count(o) for o in sim.OUTCOMES}
    safe = sum(count[o] for o in sim.SAFE_OUTCOMES)
    return SafetyEstimate(
        eta_hat=safe / n, n=n, spec=spec, safe_count=safe,
        handover_count=count["handover"], collision_count=count["collided"],
        out_of_bounds_count=count["out_of_bounds"], error_count=count["error"],
        autonomy_rate=1.0 - count["handover"] / n, logged=logged)


def estimate_decision_confidence_offline(posterior: bayes.Posterior, features: np.ndarray,
                                         spec: PrecisionSpec, seed, eps: float = 0.1,
                                         decision: uncertainty.Decision | None = None,
                                         ) -> tuple[float, int]:
    """Audit of the fixed-sample real-time confidence: draw the
    Chernoff-planned number of weight samples for one observation and
    evaluate the epsilon-ball indicator."""
    n = chernoff_sample_size(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pred = uncertainty.predictive(posterior, features, n, rng)
    if decision is None:
        decision = uncertainty.decide(pred)
    return uncertainty.decision_confidence(pred, decision, eps), n

