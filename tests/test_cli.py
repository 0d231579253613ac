import csv
import gc
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from safesteer import bayes, io, nn, sim
from safesteer.cli import main
from safesteer.datasets import ImageDataset


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
    back = io.read_dataset(tmp_path / "d")
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


def test_load_model_rejects_dropout_rates_that_disagree(tmp_path, mcd_model):
    doc = json.loads(read_bytes(mcd_model))
    assert doc["dropout_rates"] == [0.1, 0.08, 0.08]
    doc["dropout_rates"] = [0.5, 0.08, 0.08]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        io.load_model(tampered)
    msg = str(err.value)
    assert str(tampered) in msg
    assert "(0.5, 0.08, 0.08)" in msg and "(0.1, 0.08, 0.08)" in msg


def test_train_vi_requires_mcd_model(dataset_dir, tmp_path):
    code = run_cli("train", "--method", "vi", "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "vi.json"))
    assert code == 2


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


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "safesteer", "plan-samples",
                           "--theta", "0.1", "--gamma", "0.05"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "185"
