"""The benchmark's per-layer timings (`perfbench/run.py --trace 1`) come from
wrappers that replace package functions at their module or class
attributes (`perfbench/workloads.py`, `install_spans`). A call that reaches
a layer some other way, say through a local alias or an inlined body, is
invisible to them and its metric goes missing. These tests wrap the same
attributes and check that one monitored MC-dropout rain episode and one
HMC clear episode call every per-step layer through them, once per step,
and that autopilot episodes form a frame (`render`, then `apply_weather`)
only for the frames they keep."""

from collections import Counter

import numpy as np
import pytest

from safesteer import bayes, controllers, geometry, nn, sim, uncertainty

# (owner, attribute) of every per-episode function the benchmark traces
TRACED = (
    (sim, "run_episode"), (sim, "render"), (sim, "apply_weather"), (sim, "step"),
    (sim, "is_safe"), (nn, "forward_batch"), (nn, "sample_dropout_mask"),
    (bayes, "extract_features"), (bayes, "sample_weights"),
    (uncertainty, "predictive"), (uncertainty, "decide"),
    (uncertainty, "confidence_report"), (geometry.Path, "project"),
    (geometry.Path, "distance_sq_many"), (controllers.BnnController, "act"),
)
# called once per step of a monitored episode
ONCE_PER_STEP = ("render", "apply_weather", "step", "act", "extract_features",
                 "sample_weights", "predictive", "decide", "confidence_report",
                 "distance_sq_many")


def _count_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for owner, name in TRACED:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _posteriors():
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(7)
    mcd = bayes.McdPosterior(spec, nn.init_weights(spec, rng))
    hw = bayes.head_weights(mcd)
    samples = hw + 0.05 * rng.standard_normal((6, hw.size))
    return mcd, bayes.HmcPosterior(spec.plan.head_spec, samples)


@pytest.mark.parametrize("kind,weather", [("mcd", "rain"), ("hmc", "clear")])
def test_monitored_episode_calls_every_traced_layer_through_its_attribute(
        monkeypatch, kind, weather):
    mcd, hmc = _posteriors()
    ctl = controllers.BnnController(mcd, mcd if kind == "mcd" else hmc)
    scn = sim.straight_obstacle_scenario(weather=weather)
    calls = _count_calls(monkeypatch)
    path = sim.run_episode(scn, ctl, sim.MonitorPolicy(), seed=[3, 1])
    steps = len(path.records)
    assert path.outcome != "error" and steps >= 2, (path.outcome, path.error)

    expected = {name for _, name in TRACED}
    # every posterior draws in sample_weights; only MC dropout draws masks
    if kind == "hmc":
        expected.discard("sample_dropout_mask")
    assert set(calls) == expected, expected ^ set(calls)
    assert calls["run_episode"] == 1
    for name in ONCE_PER_STEP:
        assert calls[name] == steps, (name, calls[name], steps)
    assert calls["forward_batch"] == 2 * steps  # the extractor, then the head
    assert calls["sample_dropout_mask"] == (steps if kind == "mcd" else 0)
    # the start pose and every step are checked; a step that does not end
    # the episode also looks for the end of the road
    assert calls["is_safe"] == steps + 1
    assert calls["project"] in (2 * steps, 2 * steps + 1)


def test_an_autopilot_episode_that_keeps_no_frames_forms_none(monkeypatch):
    calls = _count_calls(monkeypatch)
    path = sim.run_episode(sim.straight_obstacle_scenario(weather="rain"),
                           sim.AutopilotController(), None, seed=[3, 1])
    assert path.outcome == "completed"
    assert calls["render"] == calls["apply_weather"] == 0
    assert calls["step"] == len(path.records)


@pytest.mark.parametrize("stride", [1, 2, 3, 16])
def test_collect_forms_exactly_the_frames_it_keeps(monkeypatch, stride):
    scn = sim.roundabout_scenario()
    lengths = [len(sim.run_episode(scn, sim.AutopilotController(), None, seed=[2, ep]).records)
               for ep in range(3)]
    calls = _count_calls(monkeypatch)
    ds = sim.collect_dataset(scn, episodes=3, seed=2, frame_stride=stride)
    kept = sum(-(-n // stride) for n in lengths)  # ceil(n / stride) per episode
    assert len(ds) == kept
    assert calls["render"] == calls["apply_weather"] == kept
    assert calls["run_episode"] == 3 and calls["step"] == sum(lengths)


def test_one_frame_extraction_is_one_batch_1_forward_pass(monkeypatch):
    """The per-step extractor call runs a single forward pass of one frame,
    whatever the whole-dataset passes do."""
    mcd, _ = _posteriors()
    batches = []
    original = nn.forward_batch

    def counted(spec, w, x, *args, **kwargs):
        batches.append(x.shape[0])
        return original(spec, w, x, *args, **kwargs)

    monkeypatch.setattr(nn, "forward_batch", counted)
    frame = np.random.default_rng(4).integers(0, 256, (48, 64)).astype(np.uint8)
    assert bayes.extract_features(mcd, frame).shape == (nn.FEATURE_DIM,)
    assert batches == [1]
