"""Dense/convolutional network math on flat weight vectors: forward pass,
exact backpropagation, inverted dropout, cross-entropy, and ADAM.

Weights live in a single float64 vector laid out layer by layer (kernel
then bias). Convolutions are "valid" (no padding) with square kernels.
All functions are pure given explicit rng state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

Shape = tuple[int, ...]


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "conv" | "fc" | "relu" | "flatten"
    filters: int = 0
    kernel: int = 0
    stride: int = 1
    width: int = 0
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("conv", "fc", "relu", "flatten"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.dropout_rate > 0.0 and self.kind != "fc":
            raise ValueError("dropout is only supported on fc-layer inputs")
        if self.kind == "conv" and (self.filters <= 0 or self.kernel <= 0 or self.stride <= 0):
            raise ValueError("conv needs positive filters, kernel and stride")
        if self.kind == "fc" and self.width <= 0:
            raise ValueError("fc needs positive width")


def conv(filters: int, kernel: int, stride: int = 1) -> LayerSpec:
    return LayerSpec("conv", filters=filters, kernel=kernel, stride=stride)


def fc(width: int, dropout: float = 0.0) -> LayerSpec:
    return LayerSpec("fc", width=width, dropout_rate=dropout)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


class NetworkPlan:
    """The layout of a network, derived once from its layer list:

    - `in_shapes`, `out_shapes`: each layer's input and output shape;
    - `kernel_shapes`: per conv/fc layer, the kernel as a (fan_in, outputs)
      matrix, None for relu and flatten;
    - `slices`: per conv/fc layer, the (kernel, bias) slices of the flat
      weight vector, None for relu and flatten;
    - `param_count`: the length of the flat weight vector;
    - `dropout`: index -> input width of every layer that draws a mask.

    The extractor/head split (`feature_boundary`, `head_spec`,
    `head_slice`) is derived on first use, because a head spec has no
    feature boundary of its own. Raises if the shapes do not compose."""

    def __init__(self, layers: tuple[LayerSpec, ...], input_shape: Shape, num_classes: int):
        self._layers = layers
        self._num_classes = num_classes
        in_shapes: list[Shape] = []
        out_shapes: list[Shape] = []
        kernel_shapes: list[tuple[int, int] | None] = []
        slices: list[tuple[slice, slice] | None] = []
        shape = input_shape
        offset = 0
        for i, layer in enumerate(layers):
            in_shapes.append(shape)
            kshape = None
            if layer.kind == "conv":
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: conv needs a HxWxC input, got {shape}")
                h, w, cin = shape
                ho = (h - layer.kernel) // layer.stride + 1
                wo = (w - layer.kernel) // layer.stride + 1
                if ho <= 0 or wo <= 0:
                    raise ValueError(f"layer {i}: kernel {layer.kernel} too large for {shape}")
                kshape = (layer.kernel * layer.kernel * cin, layer.filters)
                shape = (ho, wo, layer.filters)
            elif layer.kind == "fc":
                if len(shape) != 1:
                    raise ValueError(f"layer {i}: fc needs a flat input, got {shape}")
                kshape = (shape[0], layer.width)
                shape = (layer.width,)
            elif layer.kind == "flatten":
                shape = (int(np.prod(shape)),)
            out_shapes.append(shape)
            kernel_shapes.append(kshape)
            if kshape is None:
                slices.append(None)
            else:
                nw, nb = kshape[0] * kshape[1], kshape[1]
                slices.append((slice(offset, offset + nw), slice(offset + nw, offset + nw + nb)))
                offset += nw + nb
        self.in_shapes = tuple(in_shapes)
        self.out_shapes = tuple(out_shapes)
        self.kernel_shapes = tuple(kernel_shapes)
        self.slices = tuple(slices)
        self.param_count = offset
        self.dropout = {i: in_shapes[i][0] for i, layer in enumerate(layers)
                        if layer.dropout_rate > 0.0}

    @cached_property
    def feature_boundary(self) -> int:
        """Index of the first head layer: the layer right after the relu
        that follows the first fc layer."""
        for i, layer in enumerate(self._layers):
            if layer.kind == "fc":
                if i + 1 >= len(self._layers) or self._layers[i + 1].kind != "relu":
                    raise ValueError("first fc layer is not followed by a relu")
                return i + 2
        raise ValueError("spec has no fc layer")

    @cached_property
    def head_spec(self) -> NetworkSpec:
        b = self.feature_boundary
        return NetworkSpec(self._layers[b:], self.out_shapes[b - 1], self._num_classes)

    @cached_property
    def head_slice(self) -> slice:
        starts = [s[0].start for s in self.slices[self.feature_boundary:] if s is not None]
        return slice(starts[0] if starts else self.param_count, self.param_count)


@dataclass(frozen=True)
class NetworkSpec:
    """A network's layers and shapes. `__post_init__` also builds `plan`,
    its NetworkPlan; the plan is a plain attribute rather than a field, so
    equality, hashing and repr see only the three fields."""

    layers: tuple[LayerSpec, ...]
    input_shape: Shape
    num_classes: int = 20

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        plan = NetworkPlan(self.layers, self.input_shape, self.num_classes)
        if plan.out_shapes[-1] != (self.num_classes,):
            raise ValueError(
                f"network emits {plan.out_shapes[-1]}, expected ({self.num_classes},)")
        object.__setattr__(self, "plan", plan)


def layer_shapes(spec: NetworkSpec) -> tuple[Shape, ...]:
    """Output shape after each layer."""
    return spec.plan.out_shapes


def param_count(spec: NetworkSpec) -> int:
    return spec.plan.param_count


def init_weights(spec: NetworkSpec, rng: np.random.Generator) -> np.ndarray:
    """He-uniform kernels, zero biases, drawn layer by layer."""
    plan = spec.plan
    w = np.zeros(plan.param_count)
    for kshape, sl in zip(plan.kernel_shapes, plan.slices):
        if sl is None:
            continue
        limit = math.sqrt(6.0 / kshape[0])
        wsl, _ = sl
        w[wsl] = rng.uniform(-limit, limit, wsl.stop - wsl.start)
    return w


# A dropout mask maps the index of an fc layer with dropout_rate > 0 to a
# 0/1 vector over that layer's input (batched: one row per example).
DropoutMask = dict[int, np.ndarray]


def dropout_layout(spec: NetworkSpec) -> dict[int, int]:
    """Index -> input width for every layer that draws a dropout mask."""
    return spec.plan.dropout


def sample_dropout_mask(spec: NetworkSpec, rng: np.random.Generator,
                        batch: int | None = None) -> DropoutMask:
    """Bernoulli(1 - rate) keep masks for every dropout layer."""
    mask: DropoutMask = {}
    for i, width in spec.plan.dropout.items():
        rate = spec.layers[i].dropout_rate
        shape = (width,) if batch is None else (batch, width)
        mask[i] = (rng.random(shape) >= rate).astype(np.float64)
    return mask


def _check_mask(spec: NetworkSpec, mask: DropoutMask | None, batch: int) -> None:
    if mask is None:
        return
    layout = spec.plan.dropout
    if set(mask) != set(layout):
        raise ValueError(f"mask layers {sorted(mask)} do not match spec layers {sorted(layout)}")
    for i, width in layout.items():
        expect = (batch, width)
        m = mask[i]
        if (m.ndim == 1 and batch != 1) or m.shape[-1] != width:
            raise ValueError(f"mask for layer {i} has shape {m.shape}, expected {expect}")


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    b, h, w, c = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    cols = np.empty((b, ho, wo, k * k * c), dtype=x.dtype)
    idx = 0
    for di in range(k):
        for dj in range(k):
            cols[..., idx * c:(idx + 1) * c] = x[:, di:di + ho * stride:stride,
                                                 dj:dj + wo * stride:stride, :]
            idx += 1
    return cols


def _col2im(dcols: np.ndarray, x_shape: Shape, k: int, stride: int) -> np.ndarray:
    b, h, w, c = x_shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    idx = 0
    for di in range(k):
        for dj in range(k):
            dx[:, di:di + ho * stride:stride, dj:dj + wo * stride:stride, :] += \
                dcols[..., idx * c:(idx + 1) * c]
            idx += 1
    return dx


def _forward(spec: NetworkSpec, w: np.ndarray, x: np.ndarray, mask: DropoutMask | None,
             stop_after: int | None = None,
             acts: list | None = None) -> np.ndarray:
    """The forward loop behind forward_batch and nll_and_grad_batch. With
    `acts`, appends what backprop needs from each layer: a conv's im2col
    matrix, the input of an fc (after dropout) or relu layer, and the input
    shape of a flatten."""
    plan = spec.plan
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv":
            wsl, bsl = plan.slices[i]
            saved = cols = _im2col(x, layer.kernel, layer.stride)
            b, ho, wo, ck = cols.shape
            x = (cols.reshape(b * ho * wo, ck) @ w[wsl].reshape(plan.kernel_shapes[i])
                 + w[bsl]).reshape(b, ho, wo, layer.filters)
        elif layer.kind == "fc":
            if mask is not None and i in mask:
                x = x * mask[i] / (1.0 - layer.dropout_rate)
            saved = x
            wsl, bsl = plan.slices[i]
            x = x @ w[wsl].reshape(plan.kernel_shapes[i]) + w[bsl]
        elif layer.kind == "relu":
            saved = x
            x = np.maximum(x, 0.0)
        else:  # flatten
            saved = x.shape
            x = x.reshape(x.shape[0], -1)
        if acts is not None:
            acts.append(saved)
        if i == stop_after:
            break
    return x


def forward_batch(spec: NetworkSpec, w: np.ndarray, x: np.ndarray,
                  mask: DropoutMask | None = None,
                  stop_after: int | None = None) -> np.ndarray:
    """Batched forward pass; x has a leading batch axis. With a mask,
    dropped inputs are zeroed and survivors scaled by 1/(1-rate)."""
    _check_mask(spec, mask, x.shape[0])
    return _forward(spec, w, x, mask, stop_after)


def forward(spec: NetworkSpec, w: np.ndarray, x: np.ndarray,
            mask: DropoutMask | None = None) -> np.ndarray:
    """Forward pass of a single input; returns the K logits."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(spec.input_shape):
        raise ValueError(f"input shape {x.shape} != spec input {tuple(spec.input_shape)}")
    if w.shape != (param_count(spec),):
        raise ValueError(f"weight vector has {w.shape[0]} entries, spec needs {param_count(spec)}")
    return forward_batch(spec, w, x[None], mask)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax (max-subtraction) along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


CROSS_ENTROPY_FLOOR = 1e-12


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """-log(p[label] + floor) for a single probability vector."""
    probs = np.asarray(probs)
    if not 0 <= label < probs.shape[-1]:
        raise ValueError(f"label {label} out of range for {probs.shape[-1]} classes")
    return float(-np.log(probs[label] + CROSS_ENTROPY_FLOOR))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def nll_and_grad_batch(spec: NetworkSpec, w: np.ndarray, x: np.ndarray,
                       labels: np.ndarray, mask: DropoutMask | None = None,
                       mean: bool = True) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over a batch and its exact weight gradient.

    The loss here is the floor-free -log softmax(logits)[label] (computed
    via logsumexp), summed or averaged over the batch.
    """
    batch = x.shape[0]
    _check_mask(spec, mask, batch)
    plan = spec.plan
    acts: list = []
    logp = _log_softmax(_forward(spec, w, x, mask, acts=acts))
    rows = np.arange(batch)
    loss = float(-logp[rows, labels].sum())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    if mean:
        loss /= batch
        dlogits /= batch

    grad = np.zeros_like(w)
    delta = dlogits
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        if layer.kind == "conv":
            wsl, bsl = plan.slices[i]
            cols = acts[i]
            b, ho, wo, ck = cols.shape
            dmat = delta.reshape(b * ho * wo, layer.filters)
            grad[bsl] = dmat.sum(axis=0)
            grad[wsl] = (cols.reshape(b * ho * wo, ck).T @ dmat).ravel()
            dcols = (dmat @ w[wsl].reshape(plan.kernel_shapes[i]).T).reshape(b, ho, wo, ck)
            delta = _col2im(dcols, (batch,) + plan.in_shapes[i], layer.kernel, layer.stride)
        elif layer.kind == "fc":
            wsl, bsl = plan.slices[i]
            grad[bsl] = delta.sum(axis=0)
            grad[wsl] = (acts[i].T @ delta).ravel()
            delta = delta @ w[wsl].reshape(plan.kernel_shapes[i]).T
            if mask is not None and i in mask:
                delta = delta * mask[i] / (1.0 - layer.dropout_rate)
        elif layer.kind == "relu":
            delta = delta * (acts[i] > 0.0)
        else:
            delta = delta.reshape(acts[i])
    return loss, grad


def backward(spec: NetworkSpec, w: np.ndarray, x: np.ndarray, label: int,
             mask: DropoutMask | None = None) -> np.ndarray:
    """Gradient of cross_entropy(softmax(forward(x)), label) w.r.t. w."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(spec.input_shape):
        raise ValueError(f"input shape {x.shape} != spec input {tuple(spec.input_shape)}")
    if not 0 <= label < spec.num_classes:
        raise ValueError(f"label {label} out of range")
    _, grad = nll_and_grad_batch(spec, w, x[None], np.asarray([label]), mask, mean=False)
    return grad


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, n: int, lr: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0, lr, beta1, beta2, eps)


def adam_step(state: AdamState, w: np.ndarray,
              grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected ADAM update; returns the new weights and state."""
    if w.shape != grad.shape or w.shape != state.m.shape:
        raise ValueError("weight/gradient/state lengths disagree")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = m / (1.0 - state.beta1 ** t)
    vhat = v / (1.0 - state.beta2 ** t)
    w2 = w - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return w2, replace(state, m=m, v=v, step=t)


# Default architecture: a fixed convolutional feature extractor ending in a
# 64-wide relu layer, followed by a four-layer classification head whose
# first three inputs carry dropout (the Bayesian part under MC dropout).
FEATURE_DIM = 64
HEAD_DROPOUT_RATES = (0.1, 0.08, 0.08)
IMAGE_SHAPE = (48, 64, 1)


def default_network_spec(num_classes: int = 20) -> NetworkSpec:
    r1, r2, r3 = HEAD_DROPOUT_RATES
    return NetworkSpec(
        layers=(
            conv(8, 5, 2), relu(),
            conv(12, 5, 2), relu(),
            conv(16, 3, 2), relu(),
            flatten(),
            fc(FEATURE_DIM), relu(),
            fc(50, dropout=r1), relu(),
            fc(30, dropout=r2), relu(),
            fc(16, dropout=r3), relu(),
            fc(num_classes),
        ),
        input_shape=IMAGE_SHAPE,
        num_classes=num_classes,
    )


def feature_boundary(spec: NetworkSpec) -> int:
    """Index of the first head layer: the layer right after the relu that
    follows the first fc layer."""
    return spec.plan.feature_boundary


def head_spec(spec: NetworkSpec) -> NetworkSpec:
    """The trailing classification head as a standalone network over the
    feature vector."""
    return spec.plan.head_spec


def head_slice(spec: NetworkSpec) -> slice:
    """Slice of the flat weight vector holding the head parameters."""
    return spec.plan.head_slice
