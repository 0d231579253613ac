"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end test of
criterion 8 dominates the runtime (minutes). Its fixture is one autopilot
dataset (seed COLLECT_SEED) and six MC-dropout controllers trained on it
with the fixed seeds TRAIN_SEED + k, k < 6, two at a time. Each of its three
cells (unmonitored rain, monitored rain, monitored clear) runs 123 episodes
per controller with master seed [EVAL_SEED, k], i.e. a (0.05 * sqrt(6), 0.05)
Chernoff batch, and pools them: 738 independent episodes per cell, which by
Hoeffding's bound keeps the (0.05, 0.05) guarantee for the safety of the
train-then-monitor method rather than of one training draw. Its PASS/FAIL
line lists the outcome counts of every controller and every pooled cell.
"""

import functools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from safesteer import bayes, nn, sim, statcheck, uncertainty
from safesteer.controllers import BnnController
from safesteer.datasets import FeatureDataset
from safesteer.geometry import Rect
from safesteer.statcheck import PrecisionSpec
from oracles import (central_diff, leapfrog_harmonic, max_rel_error,
                     rects_overlap_sampled)

# End-to-end fixture: dataset/training seeds and evaluation precision
COLLECT_EPISODES = 30
COLLECT_SEED = 1000
COLLECT_STRIDE = 2
TRAIN_SEED = 2000
CONTROLLERS = 6
EVAL_SEED = 42
EVAL_JOBS = 2


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_chernoff_planner_exactness():
    t0 = time.time()
    n1 = statcheck.chernoff_sample_size(PrecisionSpec(0.05, 0.05))
    n2 = statcheck.chernoff_sample_size(PrecisionSpec(0.1, 0.05))
    elapsed = time.time() - t0
    ok = n1 == 738 and n2 == 185 and elapsed < 1.0
    report(1, ok, f"n(0.05,0.05)={n1}, n(0.1,0.05)={n2}, {elapsed:.3f}s")


def test_criterion_2_gradient_correctness():
    small = nn.NetworkSpec(
        (nn.conv(2, 3, 2), nn.relu(), nn.conv(3, 3, 1), nn.relu(),
         nn.flatten(), nn.fc(8, dropout=0.25), nn.relu(), nn.fc(4)),
        (9, 11, 1), 4)
    worst = 0.0
    count = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            w = nn.init_weights(small, rng) + rng.normal(0, 0.05, nn.param_count(small))
            x = rng.normal(0, 1, small.input_shape)
            label = int(rng.integers(small.num_classes))
            clean = all(
                np.abs(nn.forward_batch(small, w, x[None], stop_after=i - 1)).min() > 1e-4
                for i, l in enumerate(small.layers) if l.kind == "relu")
            if clean:
                break
        grad = nn.backward(small, w, x, label)

        def loss(v):
            return nn.cross_entropy(nn.softmax(nn.forward(small, v, x)), label)

        worst = max(worst, max_rel_error(grad, central_diff(loss, w)))
        count += 1

    head = nn.NetworkSpec((nn.fc(6), nn.fc(3)), (4,), 3)
    dim = nn.param_count(head)
    prior = bayes.Prior(1.0)
    prior_sig = prior.param_sigmas(head)
    ds = FeatureDataset(np.random.default_rng(1).normal(0, 1, (12, 4)),
                        np.random.default_rng(2).integers(0, 3, 12))

    def elbo_at(mu, rho, seed):
        rng = np.random.default_rng(seed)
        zeta = rng.standard_normal(dim)
        w = mu + np.exp(rho) * zeta
        ll, _ = bayes._class_loglik(ds, head)(w)
        return ll - bayes.kl_diag_gaussian(mu, rho, prior_sig)

    for seed in range(40):
        rng = np.random.default_rng(500 + seed)
        mu = rng.normal(0, 0.4, dim)
        rho = rng.normal(-1.0, 0.2, dim)
        gm, gr, _ = bayes.elbo_gradient(ds, head, prior, mu, rho,
                                        np.random.default_rng(seed))
        fd_mu = central_diff(lambda m: elbo_at(m, rho, seed), mu)
        fd_rho = central_diff(lambda r: elbo_at(mu, r, seed), rho)
        worst = max(worst, max_rel_error(gm, fd_mu), max_rel_error(gr, fd_rho))
        count += 1
    ok = worst < 1e-4 and count == 100
    report(2, ok, f"max relative error {worst:.2e} over {count} instances")


def test_criterion_3_hmc_sanity():
    dim = 12
    cfg = bayes.HmcConfig(step_size=0.2, leapfrog_steps=10, burn_in=500,
                          samples=5000, thin=2)
    u = lambda w: (0.5 * float(w @ w), w)
    samples, acc = bayes.hmc_chain(u, dim, cfg, np.random.default_rng(42))
    s = np.stack(samples)
    mean_ok = True
    var_lo, var_hi = 1.0, 1.0
    for i in range(dim):
        ess = bayes.effective_sample_size(s[:, i])
        se = s[:, i].std(ddof=1) / math.sqrt(ess)
        mean_ok &= abs(s[:, i].mean()) <= 3.0 * se
        var_lo = min(var_lo, s[:, i].var())
        var_hi = max(var_hi, s[:, i].var())
    var_ok = 0.9 <= var_lo and var_hi <= 1.1

    rng = np.random.default_rng(7)
    q = rng.normal(0, 1, dim)
    p = rng.normal(0, 1, dim)
    grad = lambda x: x
    q1, p1 = bayes.leapfrog(q, p, 0.1, 10, grad)
    q2, p2 = bayes.leapfrog(q1, -p1, 0.1, 10, grad)
    rev_err = max(np.abs(q2 - q).max(), np.abs(-p2 - p).max())

    h0 = 0.5 * float(q @ q) + 0.5 * float(p @ p)

    def energy_err(eps, steps):
        qq, pp = bayes.leapfrog(q, p, eps, steps, grad)
        return abs(0.5 * float(qq @ qq) + 0.5 * float(pp @ pp) - h0)

    ratio = energy_err(0.1, 10) / energy_err(0.05, 20)
    ok = mean_ok and var_ok and rev_err < 1e-9 and 3.0 <= ratio <= 5.0
    report(3, ok, f"acc={acc:.2f}, var in [{var_lo:.3f},{var_hi:.3f}], "
                  f"reversibility {rev_err:.1e}, energy ratio {ratio:.2f}")


def test_criterion_4_vi_conjugate_recovery():
    rng = np.random.default_rng(0)
    y = rng.normal(0.7, 1.0, 20)
    mu_post = y.sum() / 21.0
    sd_post = math.sqrt(1.0 / 21.0)

    def loglik(w):
        r = y - w[0]
        return float(-0.5 * (r @ r)), np.array([r.sum()])

    fit = bayes.fit_mean_field(loglik, 1, np.ones(1), bayes.ViConfig(4000, 1, 0.02, 7))
    mu_err = abs(fit.mu[0] - mu_post)
    sd_rel = abs(math.exp(fit.rho[0]) - sd_post) / sd_post
    ok = mu_err < 0.05 and sd_rel <= 0.10
    report(4, ok, f"|mu err|={mu_err:.4f} (<0.05), sigma rel err={sd_rel:.4f} (<0.10)")


def test_criterion_5_uncertainty_bounds():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 21))
        rows = rng.dirichlet(np.full(k, rng.uniform(0.2, 3.0)),
                             size=int(rng.integers(1, 40)))
        pred = uncertainty.PredictiveDistribution.from_samples(rows)
        mi = uncertainty.mutual_information(pred)
        eta2 = uncertainty.decision_confidence(pred, uncertainty.decide(pred), 0.1)
        ok &= 0.0 <= mi <= math.log(k) + 1e-12
        ok &= 0.0 <= eta2 <= 1.0
    same = uncertainty.PredictiveDistribution.from_samples(
        np.tile(rng.dirichlet(np.ones(20)), (10, 1)))
    mi_same = uncertainty.mutual_information(same)
    two = uncertainty.PredictiveDistribution.from_samples(
        np.array([[1.0, 0.0]] * 8 + [[0.0, 1.0]] * 8))
    mi_two = uncertainty.mutual_information(two)
    ok = ok and mi_same <= 1e-9 and abs(mi_two - math.log(2)) <= 1e-9
    report(5, ok, f"1000 ensembles in bounds; identical-rows MI={mi_same:.1e}, "
                  f"two-cluster |MI - ln2|={abs(mi_two - math.log(2)):.1e}")


def test_criterion_6_estimator_coverage():
    spec = PrecisionSpec(0.1, 0.05)
    fractions = {}
    ok = True
    for p in (0.1, 0.3, 0.5, 0.9):
        fails = 0
        for rep in range(300):
            eta, n = statcheck.estimate_bernoulli(
                lambda rng: rng.random() < p, spec, [int(p * 1000), rep])
            assert n == 185
            if abs(eta - p) > spec.theta:
                fails += 1
        fractions[p] = fails / 300.0
        ok &= fractions[p] <= 0.07
    report(6, ok, f"failure fractions {fractions} (all <= 0.07)")


def test_criterion_7_simulator_oracles():
    details = []
    ok = True

    # 40 m gap / 8 m/s / zero steering collides at 5.0 s
    quiet = sim.straight_obstacle_scenario(disturbances=sim.Disturbances(0.0, 0.0))

    class Zero:
        def act(self, obs, state, scenario, rng):
            return 0.0, None

    path = sim.run_episode(quiet, Zero(), None, seed=0)
    t_coll = len(path.records) * quiet.dt
    ok &= path.outcome == "collided" and abs(t_coll - 5.0) <= quiet.dt + 1e-9
    details.append(f"collision at {t_coll:.2f}s")

    # circular-motion closure within O(dt)
    steering, v, dt = 0.3, 5.0, 0.05
    radius = sim.WHEELBASE / math.tan(steering * sim.DELTA_MAX)
    steps = round(2 * math.pi * radius / (v * dt))
    s = sim.VehicleState(0, 0, 0, v)
    for _ in range(steps):
        s = sim.step(s, steering, v, dt)
    closure = math.hypot(s.x, s.y)
    ok &= closure < 5.0 * dt
    details.append(f"circle closure {closure:.3f} m")

    # is_safe agrees with the point-sampling overlap oracle
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(1000):
        a = Rect(rng.uniform(-2, 2), rng.uniform(-2, 2),
                 rng.uniform(-math.pi, math.pi), 4.0, 1.8)
        b = Rect(a.x + rng.uniform(-6, 6), a.y + rng.uniform(-6, 6),
                 rng.uniform(-math.pi, math.pi), 4.0, 1.8)
        from safesteer.geometry import rects_overlap
        agree += rects_overlap(a, b) == rects_overlap_sampled(a, b)
    ok &= agree == 1000
    details.append(f"overlap oracle agreement {agree}/1000")

    # the autopilot is safe over 100 seeded episodes per scenario
    for make in (sim.straight_obstacle_scenario, sim.roundabout_scenario):
        scn = make()
        unsafe = sum(
            sim.run_episode(scn, sim.AutopilotController(), None, seed=[101, ep]).outcome
            != "completed"
            for ep in range(100))
        ok &= unsafe == 0
        details.append(f"{scn.kind} autopilot unsafe {unsafe}/100")

    report(7, ok, "; ".join(details))


def _counts(est):
    return (f"{est.safe_count - est.handover_count}/{est.handover_count}/"
            f"{est.out_of_bounds_count}/{est.collision_count}/{est.error_count}")


def _pool_estimates(parts, spec):
    """One estimate over the union of independent per-controller batches."""
    n = sum(e.n for e in parts)
    safe = sum(e.safe_count for e in parts)
    handover = sum(e.handover_count for e in parts)
    return statcheck.SafetyEstimate(
        eta_hat=safe / n, n=n, spec=spec, safe_count=safe,
        handover_count=handover,
        collision_count=sum(e.collision_count for e in parts),
        out_of_bounds_count=sum(e.out_of_bounds_count for e in parts),
        error_count=sum(e.error_count for e in parts),
        autonomy_rate=1.0 - handover / n)


def test_criterion_8_collision_avoidance_end_to_end():
    t0 = time.time()
    scn = sim.straight_obstacle_scenario()
    ds = sim.collect_dataset(scn, episodes=COLLECT_EPISODES, seed=COLLECT_SEED,
                             frame_stride=COLLECT_STRIDE)
    spec = nn.default_network_spec(20)
    train = functools.partial(bayes.train_mcd, ds, spec, 25, 16, 1e-4)
    rngs = [np.random.default_rng(TRAIN_SEED + k) for k in range(CONTROLLERS)]
    # Fresh single-threaded BLAS per worker: forked workers keep the parent's
    # threaded BLAS and oversubscribe the cores (three times slower).
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}
    with (mock.patch.dict(os.environ, one_thread),
          ProcessPoolExecutor(EVAL_JOBS, mp_context=multiprocessing.get_context("spawn"))
          as pool):
        posts = list(pool.map(train, rngs))

    prec = PrecisionSpec(0.05, 0.05)
    per_controller = PrecisionSpec(0.05 * math.sqrt(CONTROLLERS), 0.05)
    n_k = statcheck.chernoff_sample_size(per_controller)
    assert n_k * CONTROLLERS == statcheck.chernoff_sample_size(prec) == 738
    # Hoeffding over the 738 pooled independent episodes keeps (0.05, 0.05)
    assert 2.0 * math.exp(-2.0 * n_k * CONTROLLERS * prec.theta ** 2) <= prec.gamma

    monitor = sim.MonitorPolicy()
    rain = sim.scenario_by_name("straight_obstacle", weather="rain")
    clear = sim.scenario_by_name("straight_obstacle", weather="clear")
    cells = {"unmonitored rain": (rain, False), "monitored rain": (rain, True),
             "monitored clear": (clear, True)}
    parts = {name: [] for name in cells}
    lines = []
    for k, post in enumerate(posts):
        row = []
        for name, (scenario, monitored) in cells.items():
            est = statcheck.estimate_probabilistic_safety(
                scenario, BnnController(post, post, with_confidence=monitored),
                monitor if monitored else None, per_controller, [EVAL_SEED, k],
                jobs=EVAL_JOBS)
            parts[name].append(est)
            row.append(f"{name} {est.eta_hat:.3f} [{_counts(est)}]")
        lines.append(f"  controller {k} (seed {TRAIN_SEED + k}): " + ", ".join(row))
    unmon_rain, mon_rain, mon_clear = (_pool_estimates(parts[name], prec)
                                       for name in cells)
    for name, est in zip(cells, (unmon_rain, mon_rain, mon_clear)):
        assert est.n == 738
        lines.append(f"  pooled {name}: {est.eta_hat:.3f} [{_counts(est)}]")

    minutes = (time.time() - t0) / 60.0
    ok = (unmon_rain.eta_hat <= 0.5 and mon_rain.eta_hat >= 0.8
          and mon_clear.eta_hat >= 0.95 and mon_clear.autonomy_rate >= 0.95)
    report(8, ok,
           f"unmonitored rain {unmon_rain.eta_hat:.3f} (<=0.5), "
           f"monitored rain {mon_rain.eta_hat:.3f} (>=0.8), "
           f"monitored clear {mon_clear.eta_hat:.3f} (>=0.95) "
           f"autonomy {mon_clear.autonomy_rate:.3f} (>=0.95); "
           f"n=738 per cell over {CONTROLLERS} controllers x {n_k} episodes, "
           f"{minutes:.1f} min; outcome counts "
           f"completed/handover/out_of_bounds/collided/error:\n" + "\n".join(lines))


def test_criterion_9_determinism(tmp_path):
    from safesteer.cli import main

    def run(*args):
        assert main(list(args)) == 0

    blobs = []
    for tag in ("a", "b"):
        d = tmp_path / f"ds_{tag}"
        run("collect", "--scenario", "straight_obstacle", "--episodes", "1",
            "--frame-stride", "16", "--seed", "5", "--out", str(d))
        model = tmp_path / f"m_{tag}.json"
        run("train", "--method", "mcd", "--dataset", str(d), "--out", str(model),
            "--epochs", "1", "--seed", "3")
        traj = tmp_path / f"t_{tag}.csv"
        run("drive", "--model", str(model), "--scenario", "straight_obstacle",
            "--weather", "rain", "--monitor", "--seed", "9", "--out", str(traj))
        rep = tmp_path / f"r_{tag}.json"
        log = tmp_path / f"l_{tag}.csv"
        run("eval-safety", "--model", str(model), "--scenario", "straight_obstacle",
            "--theta", "0.45", "--gamma", "0.5", "--weathers", "clear",
            "--seed", "2", "--log-episodes", "1",
            "--report", str(rep), "--log", str(log))
        dataset_bytes = b"".join(p.read_bytes() for p in sorted(d.iterdir()))
        blobs.append((dataset_bytes, model.read_bytes(), traj.read_bytes(),
                      rep.read_bytes(), log.read_bytes()))
    ok = blobs[0] == blobs[1]
    report(9, ok, "collect/train/drive/eval-safety artifacts byte-identical "
                  "across repeated seeded runs")
