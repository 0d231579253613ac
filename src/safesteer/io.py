"""File formats: PGM observations, JSON model files, dataset directories,
trajectory CSV logs, and the JSON summary report. Every writer is
byte-deterministic for identical inputs."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path as FsPath

import numpy as np

from . import bayes, nn
from .datasets import ImageDataset
from .statcheck import PrecisionSpec, SafetyEstimate

MODEL_FORMAT_VERSION = 1


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    data = FsPath(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while data[pos:pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # the single whitespace after maxval
    raw = data[pos:pos + w * h]
    if len(raw) != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w)


# ---------------------------------------------------------------------------
# Dataset directory: zero-padded PGM images plus labels.csv

def write_dataset(ds: ImageDataset, directory) -> None:
    directory = FsPath(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "class", "steering", "scenario", "seed"])
        for i, (img, label) in enumerate(zip(ds.images, ds.labels)):
            write_pgm(directory / f"{i:06d}.pgm", img)
            steering = repr(float(ds.steerings[i])) if ds.steerings is not None else ""
            writer.writerow([i, int(label), steering, ds.scenario, ds.seed])


def read_dataset(directory) -> ImageDataset:
    directory = FsPath(directory)
    with open(directory / "labels.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{directory}: labels.csv lists no images")
    images = []
    labels = []
    steerings = []
    scenario = rows[0]["scenario"]
    seed = int(rows[0]["seed"]) if rows[0]["seed"] else None
    for row in rows:
        img_path = directory / f"{int(row['index']):06d}.pgm"
        if not img_path.exists():
            raise FileNotFoundError(f"missing image for row {row['index']}")
        images.append(read_pgm(img_path))
        labels.append(int(row["class"]))
        steerings.append(float(row["steering"]) if row["steering"] else float("nan"))
    return ImageDataset(np.stack(images), np.asarray(labels, dtype=np.int64),
                        scenario, seed, np.asarray(steerings))


def dataset_hash(directory) -> str:
    """SHA-256 over labels.csv and the image bytes, in index order."""
    directory = FsPath(directory)
    h = hashlib.sha256()
    h.update((directory / "labels.csv").read_bytes())
    for path in sorted(directory.glob("*.pgm")):
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Model files

@dataclass(frozen=True)
class TrainedModel:
    method: str  # "mcd" | "vi" | "hmc"
    mcd: bayes.McdPosterior          # full-network weights (fixed extractor)
    posterior: bayes.Posterior       # what the controller samples from
    metadata: dict


def _spec_to_dict(spec: nn.NetworkSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "layers": [asdict(l) for l in spec.layers],
    }


def _spec_from_dict(d: dict) -> nn.NetworkSpec:
    layers = tuple(nn.LayerSpec(**l) for l in d["layers"])
    return nn.NetworkSpec(layers, tuple(d["input_shape"]), d["num_classes"])


def save_model(model: TrainedModel, path) -> None:
    doc: dict = {
        "format_version": MODEL_FORMAT_VERSION,
        "method": model.method,
        "network": _spec_to_dict(model.mcd.spec),
        "weights": model.mcd.weights.tolist(),
        "dropout_rates": list(model.mcd.rates),
        "metadata": model.metadata,
    }
    if isinstance(model.posterior, bayes.ViPosterior):
        doc["vi"] = {"mu": model.posterior.mu.tolist(),
                     "rho": model.posterior.rho.tolist()}
    elif isinstance(model.posterior, bayes.HmcPosterior):
        doc["hmc"] = {"samples": [s.tolist() for s in model.posterior.samples]}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {doc.get('format_version')}")
    spec = _spec_from_dict(doc["network"])
    weights = np.asarray(doc["weights"], dtype=np.float64)
    mcd = bayes.McdPosterior(spec, weights)
    if tuple(doc["dropout_rates"]) != mcd.rates:
        raise ValueError(f"{path}: dropout_rates {tuple(doc['dropout_rates'])} disagree "
                         f"with the network's {mcd.rates}")
    method = doc["method"]
    head = nn.head_spec(spec)
    posterior: bayes.Posterior
    if method == "mcd":
        posterior = mcd
    elif method == "vi":
        posterior = bayes.ViPosterior(head,
                                      np.asarray(doc["vi"]["mu"]),
                                      np.asarray(doc["vi"]["rho"]))
    elif method == "hmc":
        posterior = bayes.HmcPosterior(
            head, tuple(np.asarray(s) for s in doc["hmc"]["samples"]))
    else:
        raise ValueError(f"{path}: unknown method {method!r}")
    return TrainedModel(method, mcd, posterior, doc.get("metadata", {}))


# ---------------------------------------------------------------------------
# Trajectory CSV

TRAJECTORY_HEADER = ["episode", "step", "t", "x", "y", "heading", "speed",
                     "steering", "eta2", "mi", "warning", "outcome"]


def write_trajectory(paths, dt: float, fh) -> None:
    """Per-step rows for a list of episodes; confidence columns stay empty
    for unmonitored runs."""
    writer = csv.writer(fh)
    writer.writerow(TRAJECTORY_HEADER)
    for ep, path in enumerate(paths):
        for rec in path.records:
            report = rec.report
            writer.writerow([
                ep, rec.step, repr(rec.step * dt),
                repr(rec.state.x), repr(rec.state.y),
                repr(rec.state.heading), repr(rec.state.speed),
                repr(rec.steering),
                repr(report.eta2) if report is not None else "",
                repr(report.mutual_info) if report is not None else "",
                rec.warning or "",
                path.outcome,
            ])


# ---------------------------------------------------------------------------
# Summary report

def estimate_to_dict(est: SafetyEstimate) -> dict:
    return {
        "eta_hat": est.eta_hat,
        "n": est.n,
        "theta": est.spec.theta,
        "gamma": est.spec.gamma,
        "safe_count": est.safe_count,
        "handover_count": est.handover_count,
        "collision_count": est.collision_count,
        "out_of_bounds_count": est.out_of_bounds_count,
        "error_count": est.error_count,
        "autonomy_rate": est.autonomy_rate,
    }


def write_summary_report(path, config_echo: dict, spec: PrecisionSpec,
                         n: int, cells: list[dict]) -> None:
    doc = {
        "config": config_echo,
        "precision": {"theta": spec.theta, "gamma": spec.gamma, "n": n},
        "cells": cells,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
