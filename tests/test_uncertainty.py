import dataclasses
import math

import numpy as np
import pytest

from safesteer import bayes, nn, sim, uncertainty
from safesteer.controllers import BnnController
from safesteer.uncertainty import (Decision, PredictiveDistribution,
                                   WarningThresholds, bin_center, bin_width,
                                   decide, decision_confidence,
                                   mutual_information, predictive,
                                   steering_to_class)
from oracles import (decision_confidence_reference, entropy_reference,
                     mutual_information_reference, predictive_per_sample)


def tiny_head(num_classes=4):
    return nn.NetworkSpec((nn.fc(5), nn.relu(), nn.fc(num_classes)), (3,), num_classes)


def pred_from_rows(rows):
    return PredictiveDistribution.from_samples(np.asarray(rows, dtype=np.float64))


# ---------------------------------------------------------------------------
# binning

def test_bin_centers():
    assert bin_center(7) == pytest.approx(-0.25, abs=1e-12)
    assert bin_center(10) == pytest.approx(0.05, abs=1e-12)
    assert bin_center(0) == pytest.approx(-0.95, abs=1e-12)


def test_steering_to_class_boundaries():
    assert steering_to_class(-1.0) == 0
    assert steering_to_class(1.0) == 19  # top edge clamps into the last bin
    assert steering_to_class(0.0) == 10
    assert steering_to_class(-2.0) == 0
    assert steering_to_class(2.0) == 19


@pytest.mark.parametrize("k", [1, 2, 3, 10, 20])
def test_binning_round_trip(k):
    rng = np.random.default_rng(0)
    for angle in rng.uniform(-1, 1, 10_000):
        back = bin_center(steering_to_class(angle, k), k)
        assert abs(back - angle) <= bin_width(k) / 2 + 1e-12


# ---------------------------------------------------------------------------
# predictive

def test_predictive_degenerate_vi_rows_identical():
    head = tiny_head()
    rng = np.random.default_rng(0)
    mu = rng.normal(0, 0.5, nn.param_count(head))
    post = bayes.ViPosterior(head, mu, np.full(mu.size, -1e6))  # exp(rho) = 0
    pred = predictive(post, np.array([0.2, -0.1, 0.4]), 8, np.random.default_rng(1))
    assert np.all(pred.per_sample_probs == pred.per_sample_probs[0])


def test_predictive_mean_is_column_average():
    head = tiny_head()
    rng = np.random.default_rng(2)
    post = bayes.ViPosterior(head, rng.normal(0, 0.3, nn.param_count(head)),
                             np.full(nn.param_count(head), -2.0))
    pred = predictive(post, np.array([0.5, 0.1, -0.2]), 16, np.random.default_rng(3))
    assert np.array_equal(pred.mean_probs, pred.per_sample_probs.mean(axis=0))


def test_predictive_single_sample():
    head = tiny_head()
    rng = np.random.default_rng(4)
    post = bayes.ViPosterior(head, rng.normal(0, 0.3, nn.param_count(head)),
                             np.full(nn.param_count(head), -3.0))
    pred = predictive(post, np.array([0.5, 0.1, -0.2]), 1, np.random.default_rng(5))
    assert np.array_equal(pred.mean_probs, pred.per_sample_probs[0])


def test_predictive_hmc_single_stored_sample():
    head = tiny_head()
    w = np.random.default_rng(6).normal(0, 0.4, nn.param_count(head))
    post = bayes.HmcPosterior(head, w[None])
    pred = predictive(post, np.array([0.1, 0.2, 0.3]), 12, np.random.default_rng(7))
    assert np.all(pred.per_sample_probs == pred.per_sample_probs[0])


def stacked_pass_posterior(kind, head, seed):
    rng = np.random.default_rng(seed)
    p = nn.param_count(head)
    if kind == "vi":
        return bayes.ViPosterior(head, rng.normal(0, 0.3, p), rng.normal(-2.0, 0.5, p))
    return bayes.HmcPosterior(head, np.stack([rng.normal(0, 0.3, p) for _ in range(40)]))


@pytest.mark.parametrize("n", [1, 7, 32])
@pytest.mark.parametrize("head_name", ["default", "tiny"])
@pytest.mark.parametrize("kind", ["vi", "hmc"])
def test_predictive_stacked_pass_matches_per_sample_loop(kind, head_name, n):
    head = nn.head_spec(nn.default_network_spec()) if head_name == "default" else tiny_head()
    post = stacked_pass_posterior(kind, head, n)
    x = np.random.default_rng([n, 1]).normal(0, 1, head.input_shape[0])
    pred = predictive(post, x, n, np.random.default_rng([n, 2]))
    want = predictive_per_sample(post, x, n, np.random.default_rng([n, 2]))
    assert pred.per_sample_probs.tobytes() == want.tobytes()
    assert pred.mean_probs.tobytes() == want.mean(axis=0).tobytes()


def test_predictive_makes_one_head_call_per_decision(monkeypatch):
    calls = []
    original = nn.forward_batch

    def counted(spec, w, x, *args, **kwargs):
        calls.append(x.shape[0])
        return original(spec, w, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward_batch", counted)
    spec = nn.default_network_spec()
    head = nn.head_spec(spec)
    feats = np.random.default_rng(0).normal(0, 1, head.input_shape[0])
    mcd = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(1)))
    for post in (mcd, stacked_pass_posterior("vi", head, 2),
                 stacked_pass_posterior("hmc", head, 3)):
        calls.clear()
        predictive(post, feats, 32, np.random.default_rng(4))
        assert calls == [32]


@pytest.mark.parametrize("shape", [(48, 64), (1, 64)])
@pytest.mark.parametrize("kind", ["mcd", "vi", "hmc"])
def test_predictive_rejects_anything_but_a_feature_vector(kind, shape):
    spec = nn.default_network_spec()
    if kind == "mcd":
        post = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(1)))
    else:
        post = stacked_pass_posterior(kind, nn.head_spec(spec), 2)
    with pytest.raises(ValueError, match="predictive needs a feature vector"):
        predictive(post, np.zeros(shape), 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# decide

def test_decide_one_hot():
    rows = np.zeros((3, 20))
    rows[:, 7] = 1.0
    d = decide(pred_from_rows(rows))
    assert d.class_index == 7
    assert d.steering == pytest.approx(-0.25, abs=1e-12)


def test_decide_tie_breaks_low():
    row = np.zeros(20)
    row[3] = 0.5
    row[9] = 0.5
    assert decide(pred_from_rows([row])).class_index == 3
    uniform = np.full(20, 1.0 / 20.0)
    assert decide(pred_from_rows([uniform])).class_index == 0


def test_decide_rescaling_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rows = rng.dirichlet(np.ones(20), size=6)
        base = decide(pred_from_rows(rows)).class_index
        scaled = rows * rng.uniform(0.5, 3.0)
        scaled = scaled / scaled.sum(axis=1, keepdims=True)
        assert decide(pred_from_rows(scaled)).class_index == base


@pytest.mark.parametrize("method", ["mcd", "hmc"])
def test_a_controller_steers_by_the_bins_of_its_networks_outputs(method):
    # class i of a 10-class network means the centre of bin i of 10; no
    # such centre is the centre of a bin of 20
    spec = nn.default_network_spec(10)
    rng = np.random.default_rng(5)
    mcd = bayes.McdPosterior(spec, nn.init_weights(spec, rng))
    hw = bayes.head_weights(mcd)
    samples = hw + 0.5 * rng.standard_normal((6, hw.size))
    post = mcd if method == "mcd" else bayes.HmcPosterior(spec.plan.head_spec, samples)
    ctl = BnnController(mcd, post)
    scenario = sim.straight_obstacle_scenario()
    for i, x in enumerate(np.linspace(0.0, 40.0, 12)):
        state = sim.VehicleState(x, 0.3 * math.sin(i), 0.1 * math.cos(i), 8.0)
        obs = sim.render(state, scenario)
        steering, report = ctl.act(obs, state, scenario, np.random.default_rng(i))
        pred = predictive(post, bayes.extract_features(mcd, obs), ctl.n_samples,
                          np.random.default_rng(i))
        idx = int(np.argmax(pred.mean_probs))
        assert steering == bin_center(idx, 10)
        assert report.eta2 == decision_confidence(pred, Decision(idx, steering), ctl.eps)


@pytest.mark.parametrize("setting, value", [("eps", v) for v in (0.0, -0.1, math.nan, math.inf)]
                         + [("n_samples", v) for v in (0, 2.5, True)])
def test_a_controller_checks_its_settings_when_built(setting, value):
    # each once built without complaint, and every monitored episode then
    # ended in error
    spec = nn.default_network_spec()
    mcd = bayes.McdPosterior(spec, np.zeros(spec.plan.param_count))
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        BnnController(mcd, mcd, **{setting: value})


# ---------------------------------------------------------------------------
# decision confidence

def one_hot_rows(classes, k=20):
    rows = np.zeros((len(classes), k))
    for i, c in enumerate(classes):
        rows[i, c] = 1.0
    return rows


def test_confidence_all_agree():
    pred = pred_from_rows(one_hot_rows([5] * 10))
    d = decide(pred)
    assert decision_confidence(pred, d, 0.1) == 1.0


def test_confidence_counting():
    pred = pred_from_rows(one_hot_rows([5] * 7 + [12] * 3))
    d = Decision(5, bin_center(5))
    assert decision_confidence(pred, d, 0.1) == pytest.approx(0.7)


def test_confidence_adjacent_bins_count_at_one_width():
    # neighbours sit exactly eps away and must count as inside
    pred = pred_from_rows(one_hot_rows([9] * 4 + [10] * 4 + [11] * 4))
    d = Decision(10, bin_center(10))
    assert decision_confidence(pred, d, 0.1) == 1.0
    pred2 = pred_from_rows(one_hot_rows([8] * 4 + [10] * 8))
    assert decision_confidence(pred2, d, 0.1) == pytest.approx(8.0 / 12.0)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_confidence_eps_must_be_positive(eps):
    # a NaN eps would read 0.0 and warn W2 on every frame, an infinite one
    # 1.0 on every frame, so the monitor would never warn
    pred = pred_from_rows(one_hot_rows([5] * 10))
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        decision_confidence(pred, decide(pred), eps)


def test_confidence_permutation_invariant():
    rng = np.random.default_rng(9)
    rows = rng.dirichlet(np.ones(20), size=16)
    pred = pred_from_rows(rows)
    d = decide(pred)
    base = decision_confidence(pred, d, 0.1)
    for _ in range(5):
        shuffled = rows[rng.permutation(16)]
        assert decision_confidence(pred_from_rows(shuffled), d, 0.1) == base


def test_confidence_in_unit_interval():
    rng = np.random.default_rng(10)
    for _ in range(100):
        rows = rng.dirichlet(np.ones(20), size=rng.integers(1, 30))
        pred = pred_from_rows(rows)
        eta2 = decision_confidence(pred, decide(pred), 0.1)
        assert 0.0 <= eta2 <= 1.0


# ---------------------------------------------------------------------------
# mutual information

def test_mi_identical_rows_is_zero():
    rows = np.tile(np.random.default_rng(11).dirichlet(np.ones(20)), (8, 1))
    assert mutual_information(pred_from_rows(rows)) <= 1e-9


def test_mi_two_cluster_ln2():
    rows = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
    assert mutual_information(pred_from_rows(rows)) == pytest.approx(math.log(2), abs=1e-9)


def test_mi_bounds_and_jensen():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 21))
        rows = rng.dirichlet(np.ones(k), size=rng.integers(1, 25))
        pred = pred_from_rows(rows)
        mi = mutual_information(pred)
        mean_entropy = -float(np.sum(np.where(pred.mean_probs > 0,
                                              pred.mean_probs * np.log(pred.mean_probs), 0)))
        assert 0.0 <= mi <= math.log(k) + 1e-9
        assert mi <= mean_entropy + 1e-12


# ---------------------------------------------------------------------------
# warnings

def test_warning_published_thresholds():
    # published constants: delta1 = 0.7, delta2 = 0.6, MI threshold 0.45
    published = WarningThresholds(0.7, 0.6, 0.45)
    assert published.classify(0.55, 0.0) == "W2"
    assert published.classify(0.65, 0.1) == "W1"
    assert published.classify(0.9, 0.5) == "W0"
    assert published.classify(0.9, 0.1) is None


def test_warning_default_threshold_is_bits_converted():
    assert uncertainty.DEFAULT_MI_THRESHOLD == pytest.approx(0.45 * math.log(2))
    # the published example vectors hold under the deployed default too
    assert WarningThresholds().classify(0.9, 0.5) == "W0"
    assert WarningThresholds().classify(0.9, 0.1) is None


def test_warning_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        WarningThresholds(delta1=0.6, delta2=0.6)
    with pytest.raises(ValueError):
        uncertainty.WarningThresholds(delta1=0.5, delta2=0.7)


def test_warning_monotone():
    sev = {None: 0, "W0": 1, "W1": 2, "W2": 3}
    classify = WarningThresholds().classify
    etas = np.linspace(0, 1, 21)
    mis = np.linspace(0, 1, 11)
    for mi in mis:
        levels = [sev[classify(e, mi)] for e in etas]
        assert all(a >= b for a, b in zip(levels, levels[1:]))  # lower eta2, never milder
    for eta in etas:
        levels = [sev[classify(eta, m)] for m in mis]
        assert all(b >= a for a, b in zip(levels, levels[1:]))  # higher MI, never milder


def test_a_confidence_report_holds_the_confidence_the_information_and_the_warning():
    names = [f.name for f in dataclasses.fields(uncertainty.ConfidenceReport)]
    assert names == ["eta2", "mutual_info", "warning"]


def test_predictive_row_validation():
    with pytest.raises(ValueError):
        PredictiveDistribution(np.array([[0.5, 0.2]]))
    good = [0.25, 0.25, 0.5]
    for bad in ([math.nan, 0.5, 0.5], [math.nan] * 3, [math.inf, 0.0, 0.0],
                [-math.inf, 1.0, 1.0], [math.inf, -math.inf, 1.0],
                [1.5, -0.5, 0.0], [-0.0001, 0.5, 0.5001], [-1e-300, 0.5, 0.5]):
        rows = np.array([good, bad, good])
        with np.errstate(invalid="ignore"):  # inf - inf in the row sums
            with pytest.raises(ValueError, match="finite|non-negative"):
                PredictiveDistribution.from_samples(rows)
            with pytest.raises(ValueError, match="finite|non-negative"):
                PredictiveDistribution(rows)
    # exact zeros, -0.0 and rounding within 1e-9 of a unit sum are accepted
    ok = np.array([good, [-0.0, 1.0, 0.0], [0.5, 0.5 - 1e-12, 0.0]])
    assert PredictiveDistribution.from_samples(ok).per_sample_probs.shape == (3, 3)
    assert PredictiveDistribution(ok).per_sample_probs.shape == (3, 3)


def _hex(x):
    return [float(v).hex() for v in np.ravel(x)]


def _confidence_cases():
    """(n, K) probability matrices with exact zeros, one-hot rows and ties,
    and random rows with and without zeroed entries."""
    rng = np.random.default_rng(14)
    tie = np.zeros((6, 20))
    tie[:, [4, 9]] = 0.5                        # every row a two-way tie
    uniform = np.full((5, 20), 1.0 / 20)        # a 20-way tie
    mixed = one_hot_rows([3, 3, 17, 0, 19, 9, 10, 11])
    mixed[5] = tie[0]
    cases = [one_hot_rows([5] * 32), one_hot_rows(list(range(20)) + [7] * 12), tie,
             uniform, mixed, np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5),
             np.array([[1.0]]), one_hot_rows([0])]
    for _ in range(60):
        k = int(rng.choice([2, 3, 20]))
        rows = rng.dirichlet(np.full(k, rng.choice([0.05, 1.0, 5.0])), size=rng.integers(1, 40))
        if rng.random() < 0.5:  # zero some entries, renormalize
            rows = np.where(rng.random(rows.shape) < 0.3, 0.0, rows)
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            rows = rows / rows.sum(axis=1, keepdims=True)
        cases.append(rows)
    return cases


def test_confidence_and_mi_bytes_equal_the_reference_bodies():
    for rows in _confidence_cases():
        pred = pred_from_rows(rows)
        assert pred.mean_probs.tobytes() == rows.mean(axis=0).tobytes()
        k = rows.shape[1]  # K bins, from the rows' width
        for p in (pred.per_sample_probs, pred.mean_probs):
            got, want = uncertainty._entropy(p), entropy_reference(p)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert _hex(got) == _hex(want)
        got = mutual_information(pred)
        assert type(got) is float
        assert got.hex() == mutual_information_reference(pred).hex()
        for decision in (decide(pred), Decision(0, bin_center(0, k)),
                         Decision(k - 1, bin_center(k - 1, k))):
            for eps in (0.1, 0.05, 2.0 / k, 1e-3, 3.0):
                got = decision_confidence(pred, decision, eps)
                want = decision_confidence_reference(pred, decision, eps)
                assert type(got) is float and got.hex() == want.hex()
