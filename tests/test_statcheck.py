import dataclasses
import math

import numpy as np
import pytest

from safesteer import bayes, io, nn, sim, statcheck
from safesteer.statcheck import (PrecisionSpec, chernoff_sample_size, estimate_bernoulli,
                                 estimate_decision_confidence_offline,
                                 estimate_probabilistic_safety)
from safesteer.uncertainty import ConfidenceReport

QUIET = sim.Disturbances(0.0, 0.0)
FAST_SPEC = PrecisionSpec(0.45, 0.5)  # n = 4, for cheap episode tests


@dataclasses.dataclass(frozen=True)
class ScriptedController:
    steering: float = 0.0
    eta2: float = 1.0
    warning: str | None = None

    def act(self, obs, state, scenario, rng):
        return self.steering, ConfidenceReport(self.eta2, 0.0, self.warning)


# ---------------------------------------------------------------------------
# planner

def test_chernoff_exact_values():
    assert chernoff_sample_size(PrecisionSpec(0.05, 0.05)) == 738
    assert chernoff_sample_size(PrecisionSpec(0.1, 0.05)) == 185


def test_chernoff_strict_inequality_is_tight():
    rng = np.random.default_rng(0)
    for _ in range(200):
        spec = PrecisionSpec(rng.uniform(0.01, 0.9), rng.uniform(0.01, 1.0))
        n = chernoff_sample_size(spec)
        bound = math.log(2.0 / spec.gamma) / (2.0 * spec.theta ** 2)
        assert n > bound
        assert n - 1 <= bound


def test_chernoff_monotonicity():
    base = chernoff_sample_size(PrecisionSpec(0.1, 0.05))
    assert chernoff_sample_size(PrecisionSpec(0.1, 0.025)) > base
    quartered = chernoff_sample_size(PrecisionSpec(0.05, 0.05))
    assert 4 * base - 3 <= quartered <= 4 * base


def test_chernoff_rejects_bad_spec():
    for theta, gamma in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.5), (-0.1, 0.5)):
        with pytest.raises(ValueError):
            PrecisionSpec(theta, gamma)


# ---------------------------------------------------------------------------
# synthetic Bernoulli coverage

def test_bernoulli_estimator_coverage_single_p():
    spec = PrecisionSpec(0.1, 0.05)
    p = 0.3
    failures = 0
    reps = 150
    for rep in range(reps):
        eta, n = estimate_bernoulli(lambda rng: rng.random() < p, spec, [777, rep])
        assert n == 185
        if abs(eta - p) > spec.theta:
            failures += 1
    assert failures / reps <= 0.07


# ---------------------------------------------------------------------------
# probabilistic safety over episodes

def test_safety_autopilot_clear_is_one():
    scn = sim.straight_obstacle_scenario()
    est = estimate_probabilistic_safety(scn, sim.AutopilotController(), None,
                                        FAST_SPEC, master_seed=5)
    assert est.n == 4
    assert est.eta_hat == 1.0
    assert est.safe_count == 4
    assert est.autonomy_rate == 1.0


def test_safety_forced_brake_counts():
    scn = sim.straight_obstacle_scenario(disturbances=QUIET)
    ctrl = ScriptedController(0.0, eta2=0.0, warning="W2")
    est = estimate_probabilistic_safety(scn, ctrl, sim.MonitorPolicy(),
                                        FAST_SPEC, master_seed=5)
    assert est.collision_count == 0
    assert est.autonomy_rate == 0.0
    assert est.handover_count == est.n
    assert est.eta_hat == 1.0  # stops before any violation


def test_safety_counts_sum_and_failures_reported():
    class Dead:
        def act(self, obs, state, scenario, rng):
            raise RuntimeError("dead controller")

    scn = sim.straight_obstacle_scenario()
    est = estimate_probabilistic_safety(scn, Dead(), None, FAST_SPEC, master_seed=1)
    assert est.error_count == est.n
    assert est.eta_hat == 0.0
    total = est.safe_count + est.collision_count + est.out_of_bounds_count + est.error_count
    assert total == est.n


def test_safety_independent_of_jobs():
    scn = sim.straight_obstacle_scenario(weather="rain")
    ctrl = ScriptedController(0.0)
    a = estimate_probabilistic_safety(scn, ctrl, None, FAST_SPEC, master_seed=3, jobs=1)
    b = estimate_probabilistic_safety(scn, ctrl, None, FAST_SPEC, master_seed=3, jobs=2)
    assert a == b


def test_safety_logs_the_first_episodes_of_the_certified_batch():
    scn = sim.straight_obstacle_scenario(weather="rain")
    ctrl = ScriptedController(0.0, eta2=0.65, warning="W1")
    mon = sim.MonitorPolicy()
    expect = tuple(sim.run_episode(scn, ctrl, mon, seed=[7, i]) for i in range(2))
    for jobs in (1, 2):
        est = estimate_probabilistic_safety(scn, ctrl, mon, FAST_SPEC, master_seed=7,
                                            jobs=jobs, log_episodes=2)
        assert est.logged == expect


def test_safety_logged_episodes_clamp_to_n_and_default_to_none():
    scn = sim.straight_obstacle_scenario(disturbances=QUIET)
    ctrl = ScriptedController(0.0)
    est = estimate_probabilistic_safety(scn, ctrl, None, FAST_SPEC, master_seed=[4, 1],
                                        log_episodes=10)
    assert [p.seed for p in est.logged] == [[4, 1, i] for i in range(est.n)]
    assert [p.outcome for p in est.logged].count("collided") == est.collision_count
    default = estimate_probabilistic_safety(scn, ctrl, None, FAST_SPEC, master_seed=[4, 1])
    assert default.logged == ()
    assert "logged" not in repr(est)


@pytest.mark.parametrize("name,value", [("jobs", 0), ("jobs", -1), ("jobs", 2.5), ("jobs", True),
                                        ("log_episodes", -1), ("log_episodes", 1.5)])
def test_safety_refuses_a_job_or_log_count_that_is_not_a_count(name, value):
    scn = sim.straight_obstacle_scenario()
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        estimate_probabilistic_safety(scn, ScriptedController(), None, FAST_SPEC, master_seed=0,
                                      **{name: value})


def test_the_report_holds_an_estimates_counts_and_precision():
    # the report's schema: a new SafetyEstimate field goes into it on purpose
    est = estimate_probabilistic_safety(sim.straight_obstacle_scenario(), ScriptedController(),
                                        None, FAST_SPEC, master_seed=2, log_episodes=1)
    counts = ("eta_hat", "n", "safe_count", "handover_count", "collision_count",
              "out_of_bounds_count", "error_count", "autonomy_rate")
    assert io.estimate_to_dict(est) == {"theta": 0.45, "gamma": 0.5,
                                        **{k: getattr(est, k) for k in counts}}


def test_safety_deterministic():
    scn = sim.straight_obstacle_scenario()
    a = estimate_probabilistic_safety(scn, sim.AutopilotController(), None,
                                      FAST_SPEC, master_seed=11)
    b = estimate_probabilistic_safety(scn, sim.AutopilotController(), None,
                                      FAST_SPEC, master_seed=11)
    assert a == b


# ---------------------------------------------------------------------------
# offline decision confidence

def tiny_head(k=4):
    return nn.NetworkSpec((nn.fc(5), nn.relu(), nn.fc(k)), (3,), k)


def test_offline_confidence_degenerate_posterior_is_one():
    head = tiny_head()
    mu = np.random.default_rng(0).normal(0, 0.5, nn.param_count(head))
    post = bayes.ViPosterior(head, mu, np.full(mu.size, -1e6))
    for spec in (PrecisionSpec(0.05, 0.05), PrecisionSpec(0.2, 0.2)):
        eta, n = estimate_decision_confidence_offline(
            post, np.array([0.1, -0.2, 0.4]), spec, seed=1)
        assert eta == 1.0
        assert n == chernoff_sample_size(spec)


def test_offline_confidence_in_unit_interval():
    head = tiny_head()
    rng = np.random.default_rng(1)
    post = bayes.ViPosterior(head, rng.normal(0, 0.5, nn.param_count(head)),
                             np.full(nn.param_count(head), -0.5))
    for seed in range(5):
        eta, _ = estimate_decision_confidence_offline(
            post, rng.normal(0, 1, 3), PrecisionSpec(0.2, 0.2), seed=seed)
        assert 0.0 <= eta <= 1.0
