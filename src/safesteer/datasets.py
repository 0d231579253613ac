"""Training-set containers shared by the simulator and the trainers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ImageDataset:
    """Grayscale observations with steering-class labels. `steerings` keeps
    the raw commands the labels were binned from, when known."""

    images: np.ndarray  # (N, 48, 64) uint8
    labels: np.ndarray  # (N,) int
    scenario: str = ""
    seed: int | None = None
    steerings: np.ndarray | None = None

    def __post_init__(self):
        if self.images.ndim != 3 or len(self.images) != len(self.labels):
            raise ValueError("images must be (N, H, W) with one label per image")
        if self.steerings is not None and len(self.steerings) != len(self.labels):
            raise ValueError("steerings must match labels")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class FeatureDataset:
    """Extracted feature vectors with steering-class labels."""

    features: np.ndarray  # (N, D) float64
    labels: np.ndarray    # (N,) int

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, D) with one label per row")

    def __len__(self) -> int:
        return len(self.labels)


def images_to_input(images) -> np.ndarray:
    """Map a stack of 8-bit grayscale images, (N, H, W) or (N, H, W, 1), to
    the (N, H, W, 1) float network input."""
    arr = np.asarray(images, dtype=np.float64) / 255.0
    if arr.ndim == 3:
        arr = arr[..., None]
    return arr


def image_to_input(img: np.ndarray) -> np.ndarray:
    """Map an 8-bit grayscale image to the (H, W, 1) float network input."""
    return images_to_input(np.asarray(img)[None])[0]
