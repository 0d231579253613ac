"""File formats: PGM observations, model files (a JSON header line and raw
float64 arrays), dataset directories, trajectory CSV logs, and the JSON
summary report. Every writer is byte-deterministic for identical inputs."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from io import StringIO
from pathlib import Path as FsPath

import numpy as np

from . import bayes, nn
from .datasets import ImageDataset
from .statcheck import PrecisionSpec, SafetyEstimate

MODEL_FORMAT_VERSION = 3


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


class InputFileError(ValueError):
    """A malformed input file: a model file with a bad header, a missing
    key, a payload of the wrong size or a value that fails validation, or a
    dataset's labels.csv or frame. The message names the file."""


def read_pgm(path) -> np.ndarray:
    """The 8-bit image of a binary PGM; raises InputFileError if malformed."""
    return _decode_pgm(path, FsPath(path).read_bytes())


def _decode_pgm(path, data: bytes) -> np.ndarray:
    """The image in `data`, the bytes of the PGM file at `path`."""
    try:
        if not data.startswith(b"P5"):
            raise ValueError("not a binary PGM")
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
            raise ValueError(f"unsupported maxval {maxval}")
        pos += 1  # the single whitespace after maxval
        raw = data[pos:pos + w * h]
        if len(raw) != w * h:
            raise ValueError("truncated pixel data")
        return np.frombuffer(raw, dtype=np.uint8).reshape(h, w)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from None


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


def read_dataset(directory) -> tuple[ImageDataset, str]:
    """Read a dataset directory: the dataset and the SHA-256 hex digest of
    the bytes it was parsed from, labels.csv and then each listed frame in
    row order. Raises InputFileError naming the file when labels.csv is not
    UTF-8 or a value in it is malformed, or a listed frame is missing,
    malformed or not 64x48."""
    directory = FsPath(directory)
    labels_path = directory / "labels.csv"
    raw = labels_path.read_bytes()
    digest = hashlib.sha256(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{labels_path}: not UTF-8 text: {exc}") from None
    rows = list(csv.DictReader(StringIO(text, newline="")))
    if not rows:
        raise InputFileError(f"{labels_path}: lists no images")
    images, labels, steerings = [], [], []
    for line, row in enumerate(rows, start=2):
        try:
            index = int(row["index"])
            labels.append(int(row["class"]))
            steerings.append(float(row["steering"] or "nan"))
            if line == 2:
                scenario, seed = row["scenario"], (int(row["seed"]) if row["seed"] else None)
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
            raise InputFileError(f"{labels_path}: line {line}: {exc!r}") from None
        img_path = directory / f"{index:06d}.pgm"
        try:
            data = img_path.read_bytes()
        except FileNotFoundError:
            raise InputFileError(f"{img_path}: missing (labels.csv line {line})") from None
        digest.update(data)
        images.append(_decode_pgm(img_path, data))
        if images[-1].shape != nn.IMAGE_SHAPE[:2]:
            raise InputFileError(f"{img_path}: shape {images[-1].shape}, not {nn.IMAGE_SHAPE[:2]}")
    return (ImageDataset(np.stack(images), np.asarray(labels, dtype=np.int64),
                         scenario, seed, np.asarray(steerings)), digest.hexdigest())


# ---------------------------------------------------------------------------
# Model files

@dataclass(frozen=True)
class TrainedModel:
    """A trained controller. Raises ValueError for an unknown method, a
    posterior of another method's class, an MCD posterior that is not `mcd`
    itself, or a VI or HMC head that is not the network's head."""

    method: str  # a key of METHODS
    mcd: bayes.McdPosterior          # full-network weights (fixed extractor)
    posterior: bayes.Posterior       # what the controller samples from
    metadata: dict

    def __post_init__(self):
        cls, _ = _method(self.method)
        if not isinstance(self.posterior, cls):
            raise ValueError(f"method {self.method!r} needs a {cls.__name__}, "
                             f"not a {type(self.posterior).__name__}")
        if cls is bayes.McdPosterior:
            if self.posterior is not self.mcd:
                raise ValueError("an mcd model's posterior must be its network")
        elif self.posterior.head != self.mcd.spec.plan.head_spec:
            raise ValueError(f"the {self.method} head is not the network's head")


def _spec_to_dict(spec: nn.NetworkSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "layers": [asdict(l) for l in spec.layers],
    }


def _spec_from_dict(d: dict) -> nn.NetworkSpec:
    layers = tuple(nn.LayerSpec(**l) for l in d["layers"])
    return nn.NetworkSpec(layers, tuple(d["input_shape"]), d["num_classes"])


# Each method's posterior class and the posterior fields that a model file
# stores after the network's weights, in file order, as arrays named
# "<method>.<field>". An MCD posterior is the network itself.
METHODS: dict[str, tuple[type, tuple[str, ...]]] = {
    "mcd": (bayes.McdPosterior, ()),
    "vi": (bayes.ViPosterior, ("mu", "rho")),
    "hmc": (bayes.HmcPosterior, ("samples",)),
}


def _method(method) -> tuple[type, tuple[str, ...]]:
    """METHODS' entry for `method`; raises ValueError if it has none."""
    if not isinstance(method, str) or method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method]


def save_model(model: TrainedModel, path) -> None:
    """One line of JSON header, then every array's little-endian float64
    bytes back to back, in the order the header's `arrays` lists them."""
    _, stored = METHODS[model.method]
    arrays = {"weights": model.mcd.weights,
              **{f"{model.method}.{f}": getattr(model.posterior, f) for f in stored}}
    arrays = {name: np.ascontiguousarray(a, dtype="<f8") for name, a in arrays.items()}
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "method": model.method,
        "network": _spec_to_dict(model.mcd.spec),
        "dropout_rates": list(model.mcd.rates),
        "metadata": model.metadata,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays.items()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for a in arrays.values():
            fh.write(a.data)


def _read_header(fh) -> dict:
    """The JSON header line. Versions 1 and 2 were one indented JSON
    document, whose first line is "{"; such a file is parsed whole so that
    its format_version can be named."""
    line = fh.readline()
    if line == b"{\n":
        line += fh.read()
    try:
        header = json.loads(line)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"model header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError("model header is not a JSON object")
    return header


def _array_shapes(header: dict, method: str) -> list[tuple[str, tuple[int, ...]]]:
    """The header's (name, shape) list, checked against the method's arrays."""
    entries = header["arrays"]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("arrays must be a list of objects")
    names = [e["name"] for e in entries]
    _, stored = _method(method)
    expected = ["weights", *(f"{method}.{f}" for f in stored)]
    if names != expected:
        raise ValueError(f"arrays {names} do not match the {method} layout {expected}")
    out = []
    for name, e in zip(names, entries):
        shape = e["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"array {name!r} shape {shape!r} is not a list of "
                             "non-negative integers")
        out.append((name, tuple(shape)))
    return out


def load_model(path) -> TrainedModel:
    """Read a model file; raises InputFileError if it is malformed. The
    payload is read into one read-only buffer that the arrays view, so
    overwriting the file later does not change the model."""
    try:
        with open(path, "rb") as fh:
            header = _read_header(fh)
            if header.get("format_version") != MODEL_FORMAT_VERSION:
                raise ValueError(f"unsupported format_version {header.get('format_version')}; "
                                 f"re-run `train` to write a version {MODEL_FORMAT_VERSION} file")
            method = header["method"]
            spec = _spec_from_dict(header["network"])
            shapes = _array_shapes(header, method)
            offsets = list(itertools.accumulate((math.prod(s) for _, s in shapes), initial=0))
            need = 8 * offsets[-1]
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held != need:  # checked before allocating for a corrupt shape
                raise ValueError(f"payload holds {held} bytes, the arrays need {need}")
            flat = np.empty(offsets[-1], dtype="<f8")
            if fh.readinto(flat) != need or fh.read(1):
                raise ValueError("payload changed size while it was read")
        flat.flags.writeable = False
        arrays = {name: flat[lo:hi].reshape(shape)
                  for (name, shape), lo, hi in zip(shapes, offsets, offsets[1:])}
        mcd = bayes.McdPosterior(spec, arrays["weights"])
        if tuple(header["dropout_rates"]) != mcd.rates:
            raise ValueError(f"dropout_rates {tuple(header['dropout_rates'])} disagree "
                             f"with the network's {mcd.rates}")
        cls, stored = METHODS[method]
        posterior = mcd if cls is bayes.McdPosterior else cls(
            spec.plan.head_spec, *(arrays[f"{method}.{f}"] for f in stored))
        return TrainedModel(method, mcd, posterior, header.get("metadata", {}))
    except KeyError as exc:
        raise InputFileError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # TypeError: a value of the wrong JSON type
        raise InputFileError(f"{path}: {exc}") from None


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
    """Every field but the logged paths, with the spec's theta and gamma for the spec."""
    kept = (f.name for f in fields(est) if f.name not in ("spec", "logged"))
    return dict({k: getattr(est, k) for k in kept}, theta=est.spec.theta, gamma=est.spec.gamma)


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
