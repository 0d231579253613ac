import csv
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from safesteer import bayes, cli, io, nn, sim
from safesteer.cli import main
from safesteer.datasets import ImageDataset
from oracles import save_model_v2


def run_cli(*args):
    return main(list(args))


def read_bytes(path):
    return Path(path).read_bytes()


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = run_cli("collect", "--scenario", "straight_obstacle", "--episodes", "1",
                   "--frame-stride", "16", "--seed", "3", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def mcd_model(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("models") / "mcd.json"
    code = run_cli("train", "--method", "mcd", "--dataset", str(dataset_dir),
                   "--out", str(out), "--epochs", "1", "--seed", "0")
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# pgm and dataset files

def test_pgm_round_trip(tmp_path):
    img = (np.arange(48 * 64) % 256).astype(np.uint8).reshape(48, 64)
    path = tmp_path / "x.pgm"
    io.write_pgm(path, img)
    data = read_bytes(path)
    assert data.startswith(b"P5\n64 48\n255\n")
    assert len(data) == len(b"P5\n64 48\n255\n") + 3072
    assert np.array_equal(io.read_pgm(path), img)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ds = ImageDataset(rng.integers(0, 256, (5, 48, 64)).astype(np.uint8),
                      np.array([1, 2, 3, 4, 5]), "straight_obstacle", 9,
                      np.linspace(-0.2, 0.2, 5))
    io.write_dataset(ds, tmp_path / "d")
    back, _ = io.read_dataset(tmp_path / "d")
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert np.allclose(back.steerings, ds.steerings)
    assert back.scenario == ds.scenario and back.seed == ds.seed


def test_read_dataset_closes_labels_file(tmp_path):
    ds = ImageDataset(np.zeros((2, 48, 64), dtype=np.uint8), np.array([0, 1]),
                      "straight_obstacle", 1, np.zeros(2))
    io.write_dataset(ds, tmp_path / "d")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        io.read_dataset(tmp_path / "d")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("content", ["", "index,class,steering,scenario,seed\n"])
def test_read_dataset_rejects_empty_labels(tmp_path, content):
    (tmp_path / "labels.csv").write_text(content)
    with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
        io.read_dataset(tmp_path)


def write_four_frame_dataset(directory):
    rng = np.random.default_rng(1)
    ds = ImageDataset(rng.integers(0, 256, (4, 48, 64)).astype(np.uint8),
                      np.array([3, 7, 1, 0]), "straight_obstacle", 1, np.zeros(4))
    io.write_dataset(ds, directory)


def test_the_dataset_digest_covers_labels_then_the_listed_frames_in_row_order(tmp_path):
    d = tmp_path / "d"
    write_four_frame_dataset(d)
    labels = d / "labels.csv"
    lines = labels.read_text().splitlines(keepends=True)
    labels.write_text("".join([lines[0], lines[3], lines[1], lines[4]]))  # frames 2, 0, 3
    want = hashlib.sha256(labels.read_bytes())
    for index in (2, 0, 3):
        want.update((d / f"{index:06d}.pgm").read_bytes())
    ds, digest = io.read_dataset(d)
    assert digest == want.hexdigest()
    assert list(ds.labels) == [1, 3, 0]
    io.write_pgm(d / "000009.pgm", np.zeros((48, 64), dtype=np.uint8))  # a stale frame
    assert io.read_dataset(d)[1] == digest


def test_training_ignores_frames_that_labels_csv_does_not_list(tmp_path):
    d = tmp_path / "d"
    write_four_frame_dataset(d)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    args = ["train", "--method", "mcd", "--dataset", str(d), "--epochs", "1", "--out"]
    assert run_cli(*args, str(first)) == 0
    # what a smaller collect into the directory of a larger one leaves behind
    io.write_pgm(d / "000004.pgm", np.zeros((48, 64), dtype=np.uint8))
    assert run_cli(*args, str(second)) == 0
    assert read_bytes(first) == read_bytes(second)
    meta = io.load_model(first).metadata
    assert meta["dataset_hash"] == io.read_dataset(d)[1]


def test_collect_rows_match_images(dataset_dir):
    rows = read_rows(dataset_dir / "labels.csv")
    images = sorted(dataset_dir.glob("*.pgm"))
    assert len(rows) == len(images) > 0
    assert all(0 <= int(r["class"]) < 20 for r in rows)


def test_collect_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("collect", "--scenario", "straight_obstacle", "--episodes", "1",
                       "--frame-stride", "32", "--seed", "7",
                       "--out", str(tmp_path / sub)) == 0
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert read_bytes(fa) == read_bytes(fb)


# ---------------------------------------------------------------------------
# model files

def test_model_save_load_save_byte_identical(tmp_path, mcd_model):
    model = io.load_model(mcd_model)
    again = tmp_path / "again.json"
    io.save_model(model, again)
    assert read_bytes(mcd_model) == read_bytes(again)
    assert model.method == "mcd"
    assert model.metadata["train_accuracy"] >= 0.0
    assert model.mcd.weights.dtype == np.float64


def read_model_file(path):
    """A model file's JSON header and its raw payload bytes."""
    header, payload = read_bytes(path).split(b"\n", 1)
    return json.loads(header), payload


def write_model_file(path, header, payload):
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("method", ["mcd", "vi", "hmc"])
def test_save_load_save_keeps_every_array_and_byte(tmp_path, mcd_model, method):
    mcd = io.load_model(mcd_model).mcd
    head = nn.head_spec(mcd.spec)
    p = nn.param_count(head)
    rng = np.random.default_rng(5)
    posterior = {"mcd": mcd,
                 "vi": bayes.ViPosterior(head, rng.normal(0, 1, p), rng.normal(-3, 1, p)),
                 "hmc": bayes.HmcPosterior(head, rng.normal(0, 1, (7, p)))}[method]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    io.save_model(io.TrainedModel(method, mcd, posterior, {"note": method}), first)
    loaded = io.load_model(first)
    arrays = {"mcd": lambda post: [post.weights], "vi": lambda post: [post.mu, post.rho],
              "hmc": lambda post: [post.samples]}[method]
    assert loaded.mcd.weights.tobytes() == mcd.weights.tobytes()
    for got, want in zip(arrays(loaded.posterior), arrays(posterior), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for got in [loaded.mcd.weights, *arrays(loaded.posterior)]:
        assert not got.flags.writeable
    io.save_model(loaded, second)
    assert read_bytes(first) == read_bytes(second)
    header, payload = read_model_file(first)
    assert header["format_version"] == io.MODEL_FORMAT_VERSION == 3
    names = {"mcd": [], "vi": ["vi.mu", "vi.rho"], "hmc": ["hmc.samples"]}[method]
    want = [mcd.weights, *(arrays(posterior) if names else [])]
    assert header["arrays"] == [{"name": name, "shape": list(a.shape)}
                                for name, a in zip(["weights", *names], want, strict=True)]
    assert payload == b"".join(a.astype("<f8").tobytes() for a in want)


MISMATCHED_MODELS = ("vi-with-an-hmc-posterior", "hmc-with-an-mcd-posterior",
                     "mcd-with-another-network", "vi-head-of-another-network",
                     "unknown-method")


@pytest.mark.parametrize("case", MISMATCHED_MODELS)
def test_a_trained_model_rejects_a_posterior_its_method_cannot_store(case):
    spec = nn.default_network_spec(20)
    rng = np.random.default_rng(0)
    mcd = bayes.McdPosterior(spec, nn.init_weights(spec, rng))
    head = nn.head_spec(spec)
    p = nn.param_count(head)
    head10 = nn.head_spec(nn.default_network_spec(10))
    p10 = nn.param_count(head10)
    method, posterior, reason = {
        "vi-with-an-hmc-posterior": (
            "vi", bayes.HmcPosterior(head, rng.normal(0, 1, (3, p))),
            "'vi' needs a ViPosterior, not a HmcPosterior"),
        "hmc-with-an-mcd-posterior": (
            "hmc", mcd, "'hmc' needs a HmcPosterior, not a McdPosterior"),
        "mcd-with-another-network": (
            "mcd", bayes.McdPosterior(spec, nn.init_weights(spec, rng)),
            "an mcd model's posterior must be its network"),
        "vi-head-of-another-network": (
            "vi", bayes.ViPosterior(head10, np.zeros(p10), np.full(p10, -3.0)),
            "the vi head is not the network's head"),
        "unknown-method": ("sgd", mcd, "unknown method 'sgd'"),
    }[case]
    with pytest.raises(ValueError, match=re.escape(reason)):
        io.TrainedModel(method, mcd, posterior, {})


def test_loading_an_hmc_model_peaks_near_its_array_bytes(tmp_path, mcd_model):
    mcd = io.load_model(mcd_model).mcd
    head = nn.head_spec(mcd.spec)
    samples = np.random.default_rng(6).normal(0, 1, (300, nn.param_count(head)))
    path = tmp_path / "hmc.json"
    io.save_model(io.TrainedModel("hmc", mcd, bayes.HmcPosterior(head, samples), {}), path)
    array_bytes = mcd.weights.nbytes + samples.nbytes
    tracemalloc.start()
    try:
        model = io.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.posterior.samples.tobytes() == samples.tobytes()
    assert peak < 1.25 * array_bytes  # format version 2 peaked near 3.5x


def test_a_loaded_model_keeps_its_values_when_the_file_is_overwritten(tmp_path, mcd_model):
    path = tmp_path / "hmc.json"
    write_model_file(path, *hmc_model_doc(mcd_model))
    model = io.load_model(path)
    weights, samples = model.mcd.weights.tobytes(), model.posterior.samples.tobytes()
    payload_bytes = len(weights) + len(samples)
    with open(path, "r+b") as fh:  # in place, which a memory-mapped model would see
        fh.seek(-payload_bytes, 2)
        fh.write(bytes(payload_bytes))
    assert model.mcd.weights.tobytes() == weights
    assert model.posterior.samples.tobytes() == samples


def test_load_model_rejects_dropout_rates_that_disagree(tmp_path, mcd_model):
    header, payload = read_model_file(mcd_model)
    assert header["dropout_rates"] == [0.1, 0.08, 0.08]
    header["dropout_rates"] = [0.5, 0.08, 0.08]
    tampered = tmp_path / "tampered.json"
    write_model_file(tampered, header, payload)
    with pytest.raises(ValueError) as err:
        io.load_model(tampered)
    msg = str(err.value)
    assert str(tampered) in msg
    assert "(0.5, 0.08, 0.08)" in msg and "(0.1, 0.08, 0.08)" in msg


@pytest.mark.parametrize("key", ["weights", "network", "vi", "hmc"])
def test_load_model_names_file_and_missing_key(tmp_path, mcd_model, key):
    header, payload = read_model_file(mcd_model)
    if key == "network":
        del header["network"]
    elif key == "weights":
        header["arrays"], payload = [], b""
    else:  # an MCD file's arrays under a method that needs more
        header["method"] = key
    missing = {"weights": "weights", "network": "network", "vi": "vi.mu",
               "hmc": "hmc.samples"}[key]
    tampered = tmp_path / "tampered.json"
    write_model_file(tampered, header, payload)
    with pytest.raises(ValueError) as err:
        io.load_model(tampered)
    assert str(tampered) in str(err.value) and repr(missing) in str(err.value)


def test_load_model_names_file_of_non_finite_weights(tmp_path, mcd_model):
    header, payload = read_model_file(mcd_model)
    weights = np.frombuffer(payload, dtype="<f8").copy()
    weights[3] = float("nan")
    tampered = tmp_path / "tampered.json"
    write_model_file(tampered, header, weights.tobytes())
    with pytest.raises(ValueError, match="finite") as err:
        io.load_model(tampered)
    assert str(tampered) in str(err.value)


def hmc_model_doc(mcd_model):
    """The MCD model file's header and payload turned into an HMC model's,
    with two head samples."""
    header, payload = read_model_file(mcd_model)
    spec = io._spec_from_dict(header["network"])
    head_w = np.frombuffer(payload, dtype="<f8")[spec.plan.head_slice]
    header["method"] = "hmc"
    header["arrays"].append({"name": "hmc.samples", "shape": [2, head_w.size]})
    return header, payload + np.stack([head_w, head_w]).tobytes()


def test_hmc_model_doc_loads_as_two_samples(tmp_path, mcd_model):
    path = tmp_path / "hmc.json"
    write_model_file(path, *hmc_model_doc(mcd_model))
    model = io.load_model(path)
    head_w = bayes.head_weights(model.mcd)
    assert model.posterior.samples.tobytes() == np.stack([head_w, head_w]).tobytes()


EVAL_ARGS = ("--scenario", "straight_obstacle", "--theta", "0.45", "--gamma", "0.5",
             "--weathers", "clear", "--with-monitor", "--seed", "2")


@pytest.mark.parametrize("fault", ["missing-hmc-key", "short-sample", "hmc-not-an-object",
                                   "not-a-json-object", "truncated-json", "trailing-bytes",
                                   "negative-shape", "non-integer-shape", "format-version-1",
                                   "format-version-2"])
def test_eval_safety_exits_2_on_a_malformed_model_file(tmp_path, mcd_model, fault, capsys):
    header, payload = hmc_model_doc(mcd_model)
    samples = header["arrays"][1]
    bad = tmp_path / "bad.json"
    if fault == "missing-hmc-key":
        header["arrays"].pop()
        payload = payload[:-8 * math.prod(samples["shape"])]
    elif fault == "short-sample":  # the payload is one value short of the shapes
        payload = payload[:-8]
    elif fault == "hmc-not-an-object":
        header["arrays"][1] = [samples]
    elif fault == "not-a-json-object":
        header = [header]
    elif fault == "trailing-bytes":  # one value past the shapes
        payload += payload[-8:]
    elif fault == "negative-shape":
        samples["shape"] = [-2, samples["shape"][1]]
    elif fault == "non-integer-shape":
        samples["shape"] = [2.0, samples["shape"][1]]
    elif fault == "format-version-1":
        header["format_version"] = 1
    write_model_file(bad, header, payload)
    if fault == "truncated-json":
        bad.write_bytes(read_bytes(bad)[:100])
    elif fault == "format-version-2":  # a whole file as that version wrote it
        save_model_v2(io.load_model(bad), bad)
    report = tmp_path / "report.json"
    assert run_cli("eval-safety", "--model", str(bad), *EVAL_ARGS, "--report", str(report),
                   "--log", str(tmp_path / "log.csv")) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert not report.exists()
    if fault.startswith("format-version-"):
        assert (f"unsupported format_version {fault[-1]}; "
                "re-run `train` to write a version 3 file") in err


def test_a_runtime_value_error_still_exits_1(tmp_path, mcd_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("not a model-file problem")

    monkeypatch.setattr(cli, "_controller", refuse)
    assert run_cli("eval-safety", "--model", str(mcd_model), *EVAL_ARGS,
                   "--report", str(tmp_path / "r.json"), "--log", str(tmp_path / "l.csv")) == 1


class RaisingController:
    def act(self, obs, state, scenario, rng):
        raise RuntimeError("head exploded")


def test_eval_safety_exits_1_and_names_cells_whose_episodes_raised(
        tmp_path, mcd_model, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_controller", lambda *args, **kwargs: RaisingController())
    report, log = tmp_path / "report.json", tmp_path / "log.csv"
    assert run_cli("eval-safety", "--model", str(mcd_model), *EVAL_ARGS,
                   "--log-episodes", "1", "--report", str(report), "--log", str(log)) == 1
    err = capsys.readouterr().err
    for monitor in ("off", "on"):
        assert (f"mcd straight_obstacle clear monitor={monitor}: 4 of 4 episodes raised "
                "(first logged: RuntimeError: head exploded)") in err
    doc = json.loads(report.read_text())  # the report and log are still written
    assert [cell["estimate"]["error_count"] for cell in doc["cells"]] == [4, 4]
    assert {r["outcome"] for r in read_rows(log)} == {"error"}


def test_drive_exits_1_when_the_controller_raises(tmp_path, mcd_model, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_controller", lambda *args, **kwargs: RaisingController())
    out = tmp_path / "traj.csv"
    assert run_cli("drive", "--model", str(mcd_model), "--seed", "4", "--out", str(out)) == 1
    assert "RuntimeError: head exploded" in capsys.readouterr().err
    assert [r["outcome"] for r in read_rows(out)] == ["error"]


def test_train_vi_requires_mcd_model(dataset_dir, tmp_path):
    code = run_cli("train", "--method", "vi", "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "vi.json"))
    assert code == 2


@pytest.mark.parametrize("method, flag", [("vi", "--vi-model"), ("mcd", "--vi-model"),
                                          ("mcd", "--mcd-model")])
def test_train_exits_2_on_a_model_flag_its_method_does_not_use(dataset_dir, mcd_model,
                                                              tmp_path, method, flag, capsys):
    out = tmp_path / "model.json"
    extra = [] if flag == "--mcd-model" or method == "mcd" else ["--mcd-model", str(mcd_model)]
    assert run_cli("train", "--method", method, "--dataset", str(dataset_dir),
                   flag, str(mcd_model), *extra, "--out", str(out)) == 2
    assert f"train --method {method} does not use {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", [-1, 25])
def test_train_exits_2_on_a_label_outside_the_classes(tmp_path, label, capsys):
    labels = np.array([3, 7, label, 0])
    ds = ImageDataset(np.zeros((4, 48, 64), dtype=np.uint8), labels, "straight_obstacle", 1,
                      np.zeros(4))
    io.write_dataset(ds, tmp_path / "d")
    out = tmp_path / "mcd.json"
    assert run_cli("train", "--method", "mcd", "--dataset", str(tmp_path / "d"),
                   "--out", str(out), "--epochs", "1") == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "d") in err and f"line 4 has class {label}" in err
    assert not out.exists()


DATASET_FAULTS = ("truncated-pgm", "missing-pgm", "non-integer-index", "missing-column",
                  "one-small-frame", "all-frames-40x60", "labels-not-utf8")


@pytest.mark.parametrize("fault", DATASET_FAULTS)
def test_train_exits_2_and_names_the_file_of_a_malformed_dataset(tmp_path, fault, capsys):
    ds = ImageDataset(np.full((4, 48, 64), 100, dtype=np.uint8), np.array([3, 7, 1, 0]),
                      "straight_obstacle", 1, np.zeros(4))
    d = tmp_path / "d"
    io.write_dataset(ds, d)
    named = d / "000002.pgm"
    if fault == "truncated-pgm":
        named.write_bytes(named.read_bytes()[:-10])
    elif fault == "missing-pgm":
        named.unlink()
    elif fault in ("non-integer-index", "missing-column"):
        named = d / "labels.csv"
        lines = named.read_text().splitlines(keepends=True)
        if fault == "non-integer-index":
            lines[3] = "x" + lines[3][1:]
        else:
            lines[0] = lines[0].replace("scenario", "place")
        named.write_text("".join(lines))
    elif fault == "labels-not-utf8":
        named = d / "labels.csv"
        named.write_bytes(named.read_bytes().replace(b"straight_obstacle", b"stra\xdfe"))
    elif fault == "one-small-frame":
        io.write_pgm(named, np.zeros((10, 10), dtype=np.uint8))
    else:
        for i in range(4):
            io.write_pgm(d / f"{i:06d}.pgm", np.zeros((40, 60), dtype=np.uint8))
        named = d / "000000.pgm"
    out = tmp_path / "mcd.json"
    assert run_cli("train", "--method", "mcd", "--dataset", str(d), "--out", str(out),
                   "--epochs", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert not out.exists()


def test_train_vi_and_hmc_round_trip(dataset_dir, mcd_model, tmp_path):
    vi_path = tmp_path / "vi.json"
    assert run_cli("train", "--method", "vi", "--dataset", str(dataset_dir),
                   "--mcd-model", str(mcd_model), "--out", str(vi_path),
                   "--vi-iterations", "20", "--seed", "1") == 0
    vi = io.load_model(vi_path)
    assert isinstance(vi.posterior, bayes.ViPosterior)
    hmc_path = tmp_path / "hmc.json"
    assert run_cli("train", "--method", "hmc", "--dataset", str(dataset_dir),
                   "--mcd-model", str(mcd_model), "--out", str(hmc_path),
                   "--hmc-burn-in", "5", "--hmc-samples", "8", "--hmc-thin", "1",
                   "--hmc-step-size", "0.002", "--seed", "1") == 0
    hmc = io.load_model(hmc_path)
    assert isinstance(hmc.posterior, bayes.HmcPosterior)
    assert len(hmc.posterior.samples) == 8
    resaved = tmp_path / "hmc2.json"
    io.save_model(hmc, resaved)
    assert read_bytes(hmc_path) == read_bytes(resaved)


@pytest.mark.parametrize("case", ["mcd-model", "other-head"])
def test_train_hmc_exits_2_on_a_vi_model_it_cannot_use(dataset_dir, mcd_model, tmp_path,
                                                       case, capsys):
    if case == "mcd-model":
        vi_path, reason = mcd_model, "needs a vi model, not mcd"
    else:  # a VI head of 10 classes for the 20-class MCD model
        spec = nn.default_network_spec(10)
        mcd = bayes.McdPosterior(spec, nn.init_weights(spec, np.random.default_rng(0)))
        head = nn.head_spec(spec)
        p = nn.param_count(head)
        vi_path, reason = tmp_path / "vi10.json", f"VI mean has {p} parameters"
        io.save_model(io.TrainedModel("vi", mcd, bayes.ViPosterior(
            head, np.zeros(p), np.full(p, -3.0)), {}), vi_path)
    out = tmp_path / "hmc.json"
    assert run_cli("train", "--method", "hmc", "--dataset", str(dataset_dir),
                   "--mcd-model", str(mcd_model), "--vi-model", str(vi_path),
                   "--out", str(out), "--hmc-burn-in", "1", "--hmc-samples", "2") == 2
    err = capsys.readouterr().err
    assert str(vi_path) in err and reason in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# drive

def test_drive_unmonitored_empty_confidence_columns(mcd_model, tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli("drive", "--model", str(mcd_model), "--scenario",
                   "straight_obstacle", "--seed", "4", "--out", str(out)) == 0
    rows = read_rows(out)
    assert rows
    assert all(r["eta2"] == "" and r["mi"] == "" and r["warning"] == "" for r in rows)
    outcomes = {r["outcome"] for r in rows}
    assert len(outcomes) == 1 and outcomes <= set(sim.OUTCOMES)


def test_drive_monitored_columns_and_determinism(mcd_model, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("drive", "--model", str(mcd_model), "--scenario",
                       "straight_obstacle", "--weather", "rain", "--monitor",
                       "--seed", "4", "--out", str(out)) == 0
    assert read_bytes(a) == read_bytes(b)
    rows = read_rows(a)
    assert all(r["warning"] in ("", "W0", "W1", "W2") for r in rows)
    assert any(r["eta2"] != "" for r in rows)
    for r in rows:
        if r["eta2"]:
            assert 0.0 <= float(r["eta2"]) <= 1.0


# ---------------------------------------------------------------------------
# eval-safety

def test_eval_safety_report_structure(mcd_model, tmp_path):
    report = tmp_path / "report.json"
    log = tmp_path / "log.csv"
    assert run_cli("eval-safety", "--model", str(mcd_model), "--scenario",
                   "straight_obstacle", "--theta", "0.45", "--gamma", "0.5",
                   "--weathers", "clear", "--with-monitor", "--seed", "2",
                   "--log-episodes", "1", "--report", str(report), "--log", str(log)) == 0
    doc = json.loads(report.read_text())
    assert doc["precision"]["n"] == 4
    assert len(doc["cells"]) == 2  # monitor off and on
    for cell in doc["cells"]:
        est = cell["estimate"]
        total = (est["safe_count"] + est["collision_count"]
                 + est["out_of_bounds_count"] + est["error_count"])
        assert total == est["n"] == 4
        assert est["autonomy_rate"] == 1.0 - est["handover_count"] / est["n"]
    rows = read_rows(log)
    assert rows
    steps = [int(r["step"]) for r in rows if r["episode"] == "0"]
    assert steps == sorted(steps)


def test_eval_safety_deterministic(mcd_model, tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        report = tmp_path / f"{sub}.json"
        log = tmp_path / f"{sub}.csv"
        assert run_cli("eval-safety", "--model", str(mcd_model), "--scenario",
                       "straight_obstacle", "--theta", "0.45", "--gamma", "0.5",
                       "--weathers", "clear", "--seed", "2", "--log-episodes", "1",
                       "--report", str(report), "--log", str(log)) == 0
        outs.append((read_bytes(report), read_bytes(log)))
    assert outs[0] == outs[1]


def test_eval_safety_logs_are_independent_of_jobs(mcd_model, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        report = tmp_path / f"r{jobs}.json"
        log = tmp_path / f"l{jobs}.csv"
        assert run_cli("eval-safety", "--model", str(mcd_model), "--scenario",
                       "straight_obstacle", "--theta", "0.45", "--gamma", "0.5",
                       "--weathers", "rain", "--with-monitor", "--seed", "2",
                       "--log-episodes", "2", "--jobs", jobs,
                       "--report", str(report), "--log", str(log)) == 0
        doc = json.loads(report.read_text())
        assert doc["config"].pop("jobs") == int(jobs)  # the echo of the flag itself
        outs.append((doc, read_bytes(log)))
    assert outs[0] == outs[1]
    rows = read_rows(tmp_path / "l1.csv")
    assert {r["episode"] for r in rows} == {"0", "1", "2", "3"}  # 2 cells x 2 episodes


# ---------------------------------------------------------------------------
# plan-samples and validation

def test_plan_samples_prints_exact_n(capsys):
    assert run_cli("plan-samples", "--theta", "0.05", "--gamma", "0.05") == 0
    assert capsys.readouterr().out.strip() == "738"
    assert run_cli("plan-samples", "--theta", "0.1", "--gamma", "0.05") == 0
    assert capsys.readouterr().out.strip() == "185"


def test_plan_samples_rejects_out_of_range():
    assert run_cli("plan-samples", "--theta", "1.5", "--gamma", "0.05") == 2
    assert run_cli("plan-samples", "--theta", "0.1", "--gamma", "0.0") == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 0.1, "gamma": 0.05}))
    assert run_cli("--config", str(cfg), "plan-samples", "--theta", "0.05",
                   "--gamma", "0.05") == 0
    assert capsys.readouterr().out.strip() == "738"  # flags win


def test_config_rejects_bad_thresholds(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta1": 0.5, "delta2": 0.6}))
    assert run_cli("--config", str(cfg), "plan-samples", "--theta", "0.1",
                   "--gamma", "0.05") == 2


# Values that WarningThresholds or MonitorPolicy rejects, an eps that is not
# finite and positive, or a string where a number belongs, each from a
# --config file
TYPE_RULE_CASES = ({"eps": 0}, {"eps": math.nan}, {"eps": math.inf}, {"slow_factor": 2},
                   {"delta1": 1.5, "delta2": 1.2}, {"delta2": math.nan},
                   {"mi_threshold": -1}, {"eps": "wide"}, {"delta1": "high"})


@pytest.mark.parametrize("config", TYPE_RULE_CASES, ids=[
    ",".join(f"{k}={v}" for k, v in c.items()) for c in TYPE_RULE_CASES])
def test_a_value_its_type_rejects_exits_2_before_any_work(config, tmp_path, mcd_model,
                                                          capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report, log = tmp_path / "report.json", tmp_path / "log.csv"
    assert run_cli("--config", str(cfg), "eval-safety", "--model", str(mcd_model),
                   *EVAL_ARGS, "--report", str(report), "--log", str(log)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.out == ""  # no cell ran
    assert not report.exists() and not log.exists()


@pytest.mark.parametrize("command", ["eval-safety", "drive"])
def test_a_num_classes_key_exits_2_before_any_work(command, tmp_path, mcd_model, capsys):
    # the class count is the model's output width; no setting can disagree
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_classes": 30}))
    out = tmp_path / "out"
    args = {"eval-safety": ["eval-safety", *EVAL_ARGS, "--report", str(out),
                            "--log", str(tmp_path / "log.csv")],
            "drive": ["drive", "--out", str(out)]}[command]
    assert run_cli("--config", str(cfg), *args, "--model", str(mcd_model)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: unknown config keys: ['num_classes']")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("eps", [1.9])
@pytest.mark.parametrize("command", ["eval-safety", "drive"])
def test_an_eps_whose_ball_holds_every_bin_exits_2_before_any_work(command, eps, tmp_path,
                                                                   mcd_model, capsys):
    # with 20 bins every vote lies within 1.9 of any decision, so eta2 would
    # read 1.0 on every frame and the monitor could never warn
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": eps}))
    out = tmp_path / "out"
    args = {"eval-safety": ["eval-safety", *EVAL_ARGS, "--report", str(out),
                            "--log", str(tmp_path / "log.csv")],
            "drive": ["drive", "--weather", "rain", "--monitor", "--seed", "4",
                      "--out", str(out)]}[command]
    assert run_cli("--config", str(cfg), *args, "--model", str(mcd_model)) == 2
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: eps must be below 1.9 (2 - 2/K for the "
                            f"model's K = 20 steering bins), got {eps!r}\n")
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("command", ["eval-safety", "drive"])
def test_an_eps_just_below_the_bound_runs(command, tmp_path, mcd_model):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 1.89}))
    log = tmp_path / "log.csv"
    args = {"eval-safety": ["eval-safety", *EVAL_ARGS, "--report", str(tmp_path / "r.json"),
                            "--log", str(log)],
            "drive": ["drive", "--weather", "rain", "--monitor", "--seed", "4",
                      "--out", str(log)]}[command]
    assert run_cli("--config", str(cfg), *args, "--model", str(mcd_model)) == 0
    assert all(0.0 <= float(r["eta2"]) <= 1.0 for r in read_rows(log) if r["eta2"])


def test_train_has_no_classes_flag(dataset_dir, tmp_path, capsys):
    out = tmp_path / "mcd.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--method", "mcd", "--dataset", str(dataset_dir), "--out", str(out),
                "--classes", "30")
    assert exc.value.code == 2
    assert "unrecognized arguments: --classes 30" in capsys.readouterr().err
    assert not out.exists()


def test_train_has_no_scenario_flag(dataset_dir, tmp_path, capsys):
    # train reads no scenario; a config file may still set one for the other commands
    out = tmp_path / "mcd.json"
    args = ["train", "--method", "mcd", "--dataset", str(dataset_dir), "--epochs", "1",
            "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        run_cli(*args, "--scenario", "straight_obstacle")
    assert exc.value.code == 2
    assert "unrecognized arguments: --scenario straight_obstacle" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "roundabout_first_exit"}))
    assert run_cli("--config", str(cfg), *args) == 0


# eval-safety's arguments without a weather list
CELL_ARGS = ("--scenario", "straight_obstacle", "--theta", "0.45", "--gamma", "0.5",
             "--seed", "2")

# An empty or repeated weather list, from the flag or a config file: (flag
# args, config)
WEATHER_LIST_CASES = ((["--weathers", ""], None), (["--weathers", " , "], None),
                      (["--weathers", "clear,clear"], None), ([], {"weathers": []}),
                      ([], {"weathers": ["rain", "clear", "rain"]}),
                      ([], {"weathers": "clear,clear"}))


@pytest.mark.parametrize("flags,config", WEATHER_LIST_CASES, ids=[
    "flag-empty", "flag-blank", "flag-repeated", "config-empty-list", "config-repeated-list",
    "config-repeated-comma-list"])
def test_an_empty_or_repeated_weather_list_exits_2_before_any_work(flags, config, tmp_path,
                                                                   mcd_model, capsys):
    report, log = tmp_path / "report.json", tmp_path / "log.csv"
    args = ["eval-safety", "--model", str(mcd_model), *CELL_ARGS, *flags,
            "--report", str(report), "--log", str(log)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["--config", str(cfg), *args]
    assert run_cli(*args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: weathers lists ")
    assert captured.out == ""  # no cell ran
    assert not report.exists() and not log.exists()


@pytest.mark.parametrize("value", ["all", "clear,rain", ["clear", "rain"]],
                         ids=["all", "comma-list", "json-list"])
def test_a_config_weather_list_gives_the_cells_of_the_flag(value, tmp_path, mcd_model):
    flag = value if isinstance(value, str) else ",".join(value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weathers": value}))
    outs = []
    for source, pre, weathers in (("flag", [], ["--weathers", flag]),
                                  ("config", ["--config", str(cfg)], [])):
        report, log = tmp_path / f"{source}.json", tmp_path / f"{source}.csv"
        assert run_cli(*pre, "eval-safety", "--model", str(mcd_model), *CELL_ARGS, *weathers,
                       "--log-episodes", "1", "--report", str(report), "--log", str(log)) == 0
        outs.append((read_bytes(report), read_bytes(log)))
    assert outs[0] == outs[1]
    cells = json.loads(outs[0][0])["cells"]
    want = list(cli.ALL_WEATHERS) if value == "all" else ["clear", "rain"]
    assert [cell["weather"] for cell in cells] == want


def test_eval_safety_builds_one_controller_per_monitor_setting(tmp_path, mcd_model,
                                                               monkeypatch):
    # it once built a controller, and a scenario for the log's dt, per cell
    controllers, scenarios = [], []
    build_controller, build_scenario = cli.BnnController, sim.scenario_by_name

    def counted_controller(*args, **kwargs):
        controllers.append(build_controller(*args, **kwargs))
        return controllers[-1]

    def counted_scenario(*args, **kwargs):
        scenarios.append(build_scenario(*args, **kwargs))
        return scenarios[-1]

    monkeypatch.setattr(cli, "BnnController", counted_controller)
    monkeypatch.setattr(sim, "scenario_by_name", counted_scenario)
    report = tmp_path / "report.json"
    assert run_cli("eval-safety", "--model", str(mcd_model), *CELL_ARGS, "--weathers", "all",
                   "--with-monitor", "--report", str(report),
                   "--log", str(tmp_path / "log.csv")) == 0
    assert [c.with_confidence for c in controllers] == [False, True]
    assert [s.weather for s in scenarios] == list(cli.ALL_WEATHERS)
    cells = json.loads(report.read_text())["cells"]
    assert [(c["weather"], c["monitored"]) for c in cells] == [
        (w, m) for w in cli.ALL_WEATHERS for m in (False, True)]


# A rate or step size that is not a finite positive number: (method, field,
# value), each once from its flag and once from a --config file
RATE_CASES = ([("mcd", "lr", v) for v in (-1.0, 0.0, math.nan, math.inf)]
              + [("vi", "vi_lr", v) for v in (-1.0, 0.0, math.nan)]
              + [("hmc", "hmc_step_size", v) for v in (0.0, -0.01, math.nan)])


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("method,name,value", RATE_CASES,
                         ids=[f"{name}={value}" for _, name, value in RATE_CASES])
def test_a_bad_rate_exits_2_before_any_work(method, name, value, source, tmp_path,
                                            mcd_model, capsys):
    out = tmp_path / "model.json"
    args = ["train", "--method", method, "--dataset", str(tmp_path / "missing"),
            "--out", str(out)]
    if method != "mcd":
        args += ["--mcd-model", str(mcd_model)]
    if source == "flag":
        args += ["--" + name.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        args = ["--config", str(cfg), *args]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("method,value", [("vi", "0"), ("vi", "nan"), ("hmc", "-5"),
                                          ("hmc", "inf")])
def test_a_bad_prior_sigma_exits_2_before_the_dataset_is_read(method, value, tmp_path,
                                                              mcd_model, capsys):
    out = tmp_path / "model.json"
    # the dataset does not exist: reading it first would exit 1
    assert run_cli("train", "--method", method, "--dataset", str(tmp_path / "missing"),
                   "--mcd-model", str(mcd_model), "--prior-sigma", value,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("train --prior-sigma: prior sigma must be finite and positive")
    assert not out.exists()


def test_train_mcd_exits_2_on_prior_sigma(dataset_dir, tmp_path, capsys):
    out = tmp_path / "mcd.json"
    assert run_cli("train", "--method", "mcd", "--dataset", str(dataset_dir),
                   "--prior-sigma", "-5", "--out", str(out)) == 2
    assert "train --method mcd does not use --prior-sigma" in capsys.readouterr().err
    assert not out.exists()


def test_a_diverging_chain_is_one_error_line_and_exit_1(dataset_dir, mcd_model, tmp_path,
                                                        capsys):
    out = tmp_path / "vi.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow on the way
        assert run_cli("train", "--method", "vi", "--dataset", str(dataset_dir),
                       "--mcd-model", str(mcd_model), "--vi-lr", "1e6",
                       "--vi-iterations", "20", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: non-finite ELBO gradient\n"
    assert not out.exists()


# Every count once from a --config file, and each one that has a flag once
# from the flag: (subcommand, flag args, config).
COUNT_CASES = (
    [("eval-safety", [], {name: 0}) for name in cli.POSITIVE_COUNTS]
    + [("eval-safety", [], {name: -1}) for name in cli.NON_NEGATIVE_COUNTS]
    + [("eval-safety", [], {"n_samples": 2.5})]
    + [("collect", [flag, "0"], None) for flag in ("--episodes", "--frame-stride")]
    + [("train", [flag, "0"], None) for flag in ("--epochs", "--batch-size",
                                                 "--vi-iterations", "--hmc-samples",
                                                 "--hmc-thin")]
    + [("train", ["--hmc-burn-in", "-1"], None), ("eval-safety", ["--jobs", "0"], None),
       ("eval-safety", ["--log-episodes", "-1"], None)])


@pytest.mark.parametrize("command,flags,config", COUNT_CASES, ids=[
    "config-" + ",".join(f"{k}={v}" for k, v in config.items()) if config else "=".join(flags)
    for _, flags, config in COUNT_CASES])
def test_a_count_below_its_least_value_is_a_configuration_error(
        command, flags, config, tmp_path, dataset_dir, mcd_model, capsys):
    out = tmp_path / "out"
    args = {
        "collect": ["collect", "--out", str(out)],
        "train": ["train", "--method", "mcd", "--dataset", str(dataset_dir), "--out", str(out)],
        "eval-safety": ["eval-safety", "--model", str(mcd_model), *EVAL_ARGS,
                        "--report", str(out), "--log", str(tmp_path / "log.csv")],
    }[command] + flags
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["--config", str(cfg), *args]
    name = next(iter(config)) if config else flags[0][2:].replace("-", "_")
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and name in err
    assert not out.exists()


def _refuse_to_load(path):
    raise AssertionError(f"loaded {path}")


@pytest.mark.parametrize("command", ["collect", "drive"])
def test_an_unknown_scenario_exits_2_before_any_work(command, tmp_path, mcd_model, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(io, "load_model", _refuse_to_load)  # drive checks before loading
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "nowhere"}))
    out = tmp_path / "out"
    args = {"collect": ["collect", "--episodes", "1"],
            "drive": ["drive", "--model", str(mcd_model)]}[command]
    assert run_cli("--config", str(cfg), *args, "--out", str(out)) == 2
    assert capsys.readouterr().err == "configuration error: unknown scenario 'nowhere'\n"
    assert not out.exists()


# A seed that is negative or not an int, from the flag or a config file:
# (flag args, config)
SEED_CASES = ((["--seed", "-1"], None), ([], {"seed": -1}), ([], {"seed": "x"}),
              ([], {"seed": 1.5}), ([], {"seed": True}))


@pytest.mark.parametrize("flags,config", SEED_CASES, ids=[
    "flag-negative", "config-negative", "config-string", "config-float", "config-true"])
def test_a_seed_that_is_not_a_non_negative_int_exits_2_before_any_work(flags, config, tmp_path,
                                                                      capsys):
    out = tmp_path / "out"
    args = ["collect", "--episodes", "1", "--out", str(out), *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["--config", str(cfg), *args]
    assert run_cli(*args) == 2
    value = config["seed"] if config else int(flags[1])
    assert capsys.readouterr().err == (f"configuration error: seed must be an integer >= 0, "
                                       f"got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["drive", "train"])
def test_an_input_path_of_the_wrong_kind_is_one_error_line_and_exit_1(command, tmp_path,
                                                                      capsys):
    # drive --model names a directory, train --dataset a file
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = tmp_path / "out"
    args = {"drive": ["drive", "--model", str(tmp_path)],
            "train": ["train", "--method", "mcd", "--dataset", str(a_file)]}[command]
    assert run_cli(*args, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
    assert not out.exists()


# every module of the package but `__init__` and the entry point `__main__`
MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # the package's top level imports nothing, so no import order hides a cycle
    proc = subprocess.run([sys.executable, "-c", f"import safesteer.{module}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "safesteer", "plan-samples",
                           "--theta", "0.1", "--gamma", "0.05"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "185"
