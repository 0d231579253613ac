"""Independent reference implementations used only to check the library.

Nothing here may call back into the package's compute paths: the forward
oracle walks the documented weight layout (per layer: kernel then bias;
conv kernels (k, k, Cin, F) row-major, fc matrices (in, out) row-major)
with plain nested loops. The exceptions are `predictive_per_sample`,
the reference for the stacked VI/HMC head pass, which runs the package's
single-weight-vector forward once per sample, and the camera references
`render_reference` and `apply_weather_reference`. Those are the
full-frame camera and weather stages kept as they were before the
pose-invariant ray tables and the windowed droplets: they read the
simulator's constants and call `Path.distance_sq_many` for the ground
shading. The confidence references `decision_confidence_reference` and
`mutual_information_reference` are the package's bodies as they were
before they were rewritten with fewer array calls, with the bin centres
computed here from the rows' width K.
The whole-dataset references `extract_features_batch_reference` and
`training_accuracy_reference` (one pass over every frame, before passes
ran in fixed chunks) and `nll_and_grad_batch_reference` (backprop down to
the input, before it stopped at the lowest weighted layer) are the
package's bodies as they were, calling its forward loop.
`train_mcd_reference` is MC-dropout training as it was before minibatches
ran through kept buffers: it converts the whole dataset to one float input
array and takes each step with `nll_and_grad_batch_reference` and
`adam_step_reference`, ADAM as whole-array expressions.
`fit_mean_field_reference` is the package's ELBO ascent as it was before it
updated ADAM in place: it calls its ELBO estimator and takes each step with
`nn.adam_step`, which copies the parameters and both moments. `save_model_v2`
is the model writer of format version 2 (one JSON document with base64
arrays), kept to check that such a file is refused with a hint.
`collect_dataset_reference` is the package's dataset collection as it was
before it rendered only the kept frames: it drives each autopilot episode
through the package's episode loop, renders every record's frame with
`render_reference` (clear weather changes no pixel) and then slices every
frame_stride-th (image, record) pair. It reads no frame of the package's.
"""

import base64
import dataclasses
import json
import math

import numpy as np

from safesteer import bayes, io
from safesteer.datasets import ImageDataset
from safesteer.sim import (CAMERA_FORWARD, CAMERA_HEIGHT, DROPLET_BRIGHTNESS,
                           DROPLET_RADIUS, IMG_H, IMG_W, MARK_BAND, MARKING,
                           OBSTACLE_COLOR, OFFROAD, ROAD, SKY, VIEW_RANGE,
                           AutopilotController, _pixel_rays, run_episode)
from safesteer.uncertainty import steering_to_class

_RAY_X, _RAY_Y, _RAY_Z = _pixel_rays()


def naive_forward(spec, w, x, mask=None):
    """Nested-loop forward pass over the documented flat weight layout."""
    x = np.array(x, dtype=np.float64)
    offset = 0
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv":
            h, wd, c = x.shape
            k, s, f = layer.kernel, layer.stride, layer.filters
            ho, wo = (h - k) // s + 1, (wd - k) // s + 1
            kern = np.array(w[offset:offset + k * k * c * f]).reshape(k, k, c, f)
            offset += k * k * c * f
            bias = np.array(w[offset:offset + f])
            offset += f
            y = np.zeros((ho, wo, f))
            for oi in range(ho):
                for oj in range(wo):
                    for fo in range(f):
                        acc = bias[fo]
                        for di in range(k):
                            for dj in range(k):
                                for ci in range(c):
                                    acc += x[oi * s + di, oj * s + dj, ci] * kern[di, dj, ci, fo]
                        y[oi, oj, fo] = acc
            x = y
        elif layer.kind == "fc":
            n_in = x.shape[0]
            if mask is not None and i in mask:
                keep = np.asarray(mask[i], dtype=np.float64)
                x = np.array([x[j] * keep[j] / (1.0 - layer.dropout_rate)
                              for j in range(n_in)])
            mat = np.array(w[offset:offset + n_in * layer.width]).reshape(n_in, layer.width)
            offset += n_in * layer.width
            bias = np.array(w[offset:offset + layer.width])
            offset += layer.width
            y = np.zeros(layer.width)
            for j in range(layer.width):
                acc = bias[j]
                for n in range(n_in):
                    acc += x[n] * mat[n, j]
                y[j] = acc
            x = y
        elif layer.kind == "relu":
            x = np.where(x > 0.0, x, 0.0)
        else:  # flatten, row-major
            flat = []
            for idx in np.ndindex(*x.shape):
                flat.append(x[idx])
            x = np.array(flat)
    return x


def im2col_reference(x, k, stride):
    """(b, ho, wo, k*k*c) patch columns, filled by one slice copy per
    kernel offset; column (di*k + dj)*c + ch."""
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


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi[i] = h
        grad[i] = (f(x + hi) - f(x - hi)) / (2.0 * h)
    return grad


def max_rel_error(a, b, floor=1e-5):
    """Largest per-coordinate relative disagreement with a magnitude floor."""
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def project_path_many(path, px, py):
    """Nearest-point projection of arrays of points onto a path, written
    from the pieces' fields alone (segment end points; arc center, radius,
    start angle and signed sweep), every piece against every point.
    Returns (dist, s, lateral): s is measured from the path start and
    lateral > 0 is left of the travel direction."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    per_piece = []
    offset = 0.0
    for piece in path.pieces:
        if hasattr(piece, "radius"):
            sign = 1.0 if piece.sweep > 0 else -1.0
            total = abs(piece.sweep)
            vx, vy = px - piece.cx, py - piece.cy
            dphi = np.mod(sign * (np.arctan2(vy, vx) - piece.phi0), 2.0 * math.pi)
            # outside the sweep, the foot is the angularly closer end point
            dphi = np.where(dphi <= total, dphi,
                            np.where(dphi - total < 2.0 * math.pi - dphi, total, 0.0))
            foot = piece.phi0 + sign * dphi
            dx = vx - piece.radius * np.cos(foot)
            dy = vy - piece.radius * np.sin(foot)
            s = dphi * piece.radius
            lat = sign * (-np.sin(foot) * dy - np.cos(foot) * dx)
            length = piece.radius * total
        else:
            length = math.hypot(piece.x1 - piece.x0, piece.y1 - piece.y0)
            ux = (piece.x1 - piece.x0) / length
            uy = (piece.y1 - piece.y0) / length
            rx, ry = px - piece.x0, py - piece.y0
            s = np.clip(rx * ux + ry * uy, 0.0, length)
            dx, dy = rx - s * ux, ry - s * uy
            lat = ux * dy - uy * dx
        per_piece.append((np.hypot(dx, dy), offset + s, lat))
        offset += length
    dist, sval, lat = (np.stack(cols) for cols in zip(*per_piece))
    pick = np.argmin(dist, axis=0)
    rows = np.arange(px.size)
    return dist[pick, rows], sval[pick, rows], lat[pick, rows]


def sample_rect_points(rect, spacing=0.05):
    """Grid + boundary + corner points of an oriented rectangle, in world
    coordinates."""
    nx = max(int(rect.length / spacing), 2)
    ny = max(int(rect.width / spacing), 2)
    xs = np.linspace(-rect.length / 2.0, rect.length / 2.0, nx)
    ys = np.linspace(-rect.width / 2.0, rect.width / 2.0, ny)
    gx, gy = np.meshgrid(xs, ys)
    pts = [np.stack([gx.ravel(), gy.ravel()], axis=1)]
    edge = np.arange(-0.5, 0.5 + 1e-9, 0.02)
    for ex, ey in ((edge * rect.length, -rect.width / 2), (edge * rect.length, rect.width / 2)):
        pts.append(np.stack([ex, np.full_like(ex, ey)], axis=1))
    for ex, ey in ((-rect.length / 2, edge * rect.width), (rect.length / 2, edge * rect.width)):
        pts.append(np.stack([np.full_like(ey, ex), ey], axis=1))
    local = np.concatenate(pts, axis=0)
    c, s = math.cos(rect.heading), math.sin(rect.heading)
    world = np.stack([rect.x + c * local[:, 0] - s * local[:, 1],
                      rect.y + s * local[:, 0] + c * local[:, 1]], axis=1)
    return world


def point_in_rect(rect, pts):
    """Closed membership test written out independently of the library."""
    c, s = math.cos(rect.heading), math.sin(rect.heading)
    dx = pts[:, 0] - rect.x
    dy = pts[:, 1] - rect.y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= rect.length / 2.0) & (np.abs(ly) <= rect.width / 2.0)


def rects_overlap_sampled(a, b):
    """Point-sampling overlap test: any sampled point of one rectangle
    (interior grid, edges, corners) inside the closed other."""
    pa = sample_rect_points(a)
    if bool(point_in_rect(b, pa).any()):
        return True
    pb = sample_rect_points(b)
    return bool(point_in_rect(a, pb).any())


def leapfrog_harmonic(q0, p0, eps, steps):
    """Scalar leapfrog recursion for U(q) = q^2/2 (grad U = q)."""
    q, p = float(q0), float(p0)
    p -= 0.5 * eps * q
    for i in range(steps):
        q += eps * p
        if i < steps - 1:
            p -= eps * q
    p -= 0.5 * eps * q
    return q, p


def sample_weights_per_row(post, n, rng):
    """n VI or HMC head weight samples, one vector at a time, drawing from
    rng in the package's order: VI takes one (n, P) standard-normal block
    and sets row i to mu + exp(rho) * z_i; HMC takes n uniform indices into
    the stored samples."""
    if hasattr(post, "mu"):
        sigma = np.exp(post.rho)
        return [post.mu + sigma * z for z in rng.standard_normal((n, post.mu.size))]
    return [post.samples[i] for i in rng.integers(0, len(post.samples), size=n)]


def sample_weights_hmc_reference(post, n, rng):
    """n HMC head weight samples gathered one stored sample at a time and
    stacked: the same uniform indices, drawn from rng the same way."""
    idx = rng.integers(0, len(post.samples), size=n)
    return np.stack([post.samples[i] for i in idx])


def predictive_per_sample(post, x, n, rng):
    """(n, K) softmax rows of a VI or HMC head, one batch-1
    `nn.forward_batch` call on a flat weight vector per sample."""
    from safesteer import nn

    logits = np.stack([nn.forward_batch(post.head, w, x[None])[0]
                       for w in sample_weights_per_row(post, n, rng)])
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def render_reference(state, scenario):
    """Rasterize the forward view: pinhole ground-plane projection of the
    corridor plus the obstacle as an upright box. Returns (48, 64) uint8."""
    c, s = math.cos(state.heading), math.sin(state.heading)
    cam_x = state.x + CAMERA_FORWARD * c
    cam_y = state.y + CAMERA_FORWARD * s
    dxw = c * _RAY_X - s * _RAY_Y
    dyw = s * _RAY_X + c * _RAY_Y
    dzw = _RAY_Z

    ground = dzw < -1e-12
    t_ground = np.where(ground, -CAMERA_HEIGHT / np.where(ground, dzw, -1.0), np.inf)
    gx = cam_x + t_ground * dxw
    gy = cam_y + t_ground * dyw
    rel_x, rel_y = gx - cam_x, gy - cam_y
    visible = ground & (rel_x * rel_x + rel_y * rel_y <= VIEW_RANGE ** 2)

    img = np.full(IMG_H * IMG_W, SKY, dtype=np.float64)
    if visible.any():
        d2 = scenario.centerline.distance_sq_many(gx[visible], gy[visible])
        hw = scenario.corridor_half_width
        shade = np.where(d2 <= (hw - MARK_BAND) ** 2, ROAD,
                         np.where(d2 <= hw * hw, MARKING, OFFROAD))
        img[visible] = shade

    obs = scenario.obstacle
    if obs is not None:
        co, so = math.cos(obs.heading), math.sin(obs.heading)
        # rays in the obstacle frame (origin at footprint center, z up)
        ox = co * (cam_x - obs.x) + so * (cam_y - obs.y)
        oy = -so * (cam_x - obs.x) + co * (cam_y - obs.y)
        rdx = co * dxw + so * dyw
        rdy = -so * dxw + co * dyw
        tmin = np.zeros_like(dxw)
        tmax = np.full_like(dxw, np.inf)
        for origin, d, half_lo, half_hi in (
                (ox, rdx, -obs.length / 2.0, obs.length / 2.0),
                (oy, rdy, -obs.width / 2.0, obs.width / 2.0),
                (CAMERA_HEIGHT, dzw, 0.0, obs.height)):
            parallel = np.abs(d) < 1e-12
            safe_d = np.where(parallel, 1.0, d)
            t1 = (half_lo - origin) / safe_d
            t2 = (half_hi - origin) / safe_d
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2)
            inside_slab = (origin >= half_lo) & (origin <= half_hi)
            near = np.where(parallel, np.where(inside_slab, -np.inf, np.inf), near)
            far = np.where(parallel, np.where(inside_slab, np.inf, -np.inf), far)
            tmin = np.maximum(tmin, near)
            tmax = np.minimum(tmax, far)
        hit = (tmax >= tmin) & (tmin > 1e-9) & (tmin < t_ground)
        img[hit] = OBSTACLE_COLOR

    return img.reshape(IMG_H, IMG_W).astype(np.uint8)


def apply_weather_reference(img, weather, rng):
    """Contrast/brightness shift, additive Gaussian noise, and bright
    droplet speckles; output clamped to [0, 255]."""
    out = weather.contrast_gain * (img.astype(np.float64) - 128.0) + 128.0
    out += weather.brightness_offset
    if weather.noise_sigma > 0:
        out += rng.normal(0.0, weather.noise_sigma, img.shape)
    if weather.droplet_rate > 0:
        h, w = img.shape
        # per droplet: center x, center y, semi-axes x and y, brightness,
        # drawn droplet by droplet in that order
        lo = (0.0, 0.0, DROPLET_RADIUS[0], DROPLET_RADIUS[0], DROPLET_BRIGHTNESS[0])
        hi = (w, h, DROPLET_RADIUS[1], DROPLET_RADIUS[1], DROPLET_BRIGHTNESS[1])
        drops = rng.uniform(lo, hi, (rng.poisson(weather.droplet_rate), 5))
        if len(drops):
            cx, cy, ax, ay, val = drops.T[:, :, None, None]
            inside = (((np.arange(w) - cx) / ax) ** 2
                      + ((np.arange(h)[:, None] - cy) / ay) ** 2 <= 1.0)
            np.maximum(out, np.where(inside, val, -np.inf).max(axis=0), out=out)
    return np.clip(np.rint(out), 0.0, 255.0).astype(np.uint8)


def decision_confidence_reference(pred, decision, eps=0.1):
    """Fraction of weight samples whose own most likely steering lands within
    eps of the deployed decision: K uniform bins over [-1, 1] for the K
    columns of the rows."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = pred.per_sample_probs.shape[1]
    votes = np.argmax(pred.per_sample_probs, axis=1)
    centers = (-1.0 + (np.arange(k) + 0.5) * (2.0 / k))[votes]
    # small slack so a center distance of exactly eps survives float rounding
    inside = np.abs(centers - decision.steering) <= eps + 1e-12
    return float(inside.mean())


def entropy_reference(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def mutual_information_reference(pred):
    """Disagreement among samples in nats: H(mean) - mean per-sample H."""
    mi = float(entropy_reference(pred.mean_probs) - entropy_reference(pred.per_sample_probs).mean())
    return max(mi, 0.0)


def extract_features_batch_reference(mcd, images):
    """Features of a stack of frames as one whole-stack extractor pass,
    whatever its size."""
    from safesteer import nn
    from safesteer.datasets import images_to_input

    boundary = mcd.spec.plan.feature_boundary
    x = images_to_input(images)
    if x.shape[1:] != tuple(mcd.spec.input_shape):
        raise ValueError(f"image shape {x.shape[1:]} != {tuple(mcd.spec.input_shape)}")
    return nn.forward_batch(mcd.spec, mcd.weights, x, stop_after=boundary - 1)


def training_logits_reference(mcd, images):
    """Mask-free logits of one full-network pass over all the images."""
    from safesteer import nn
    from safesteer.datasets import images_to_input

    return nn.forward_batch(mcd.spec, mcd.weights, images_to_input(images))


def training_accuracy_reference(mcd, ds):
    """Mask-free argmax accuracy over the training images."""
    logits = training_logits_reference(mcd, ds.images)
    return float(np.mean(np.argmax(logits, axis=1) == ds.labels))


def nll_and_grad_batch_reference(spec, w, x, labels, mask=None, mean=True):
    """Softmax cross-entropy over a batch and its weight gradient, with
    backprop carried down to the input gradient of layer 0."""
    from safesteer.nn import _check_mask, _col2im, _forward, _log_softmax

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
            cols = acts[i]  # (batch*ho*wo, k*k*c)
            ho, wo, _ = plan.out_shapes[i]
            dmat = delta.reshape(batch * ho * wo, layer.filters)
            grad[bsl] = dmat.sum(axis=0)
            grad[wsl] = (cols.T @ dmat).ravel()
            dcols = (dmat @ w[wsl].reshape(plan.kernel_shapes[i]).T).reshape(
                batch, ho, wo, cols.shape[1])
            delta = _col2im(dcols, np.empty((batch,) + plan.in_shapes[i]), layer.kernel,
                            layer.stride)
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


def adam_step_reference(state, w, grad):
    """One bias-corrected ADAM update as whole-array expressions; returns
    the new weights and state."""
    from safesteer.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    w2 = w - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return w2, dataclasses.replace(state, m=m, v=v, step=t)


def train_mcd_reference(dataset, spec, epochs=25, batch_size=16, lr=1e-4, rng=None):
    """MC-dropout training over a whole-dataset float input array, with
    the backprop and ADAM references above."""
    from safesteer import nn
    from safesteer.datasets import images_to_input

    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = rng if rng is not None else np.random.default_rng(0)
    x_all = images_to_input(dataset.images)
    y_all = np.asarray(dataset.labels, dtype=np.int64)
    w = nn.init_weights(spec, rng)
    adam = nn.AdamState.fresh(w.size, lr=lr)
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            masks = nn.sample_dropout_mask(spec, rng, batch=len(idx))
            _, grad = nll_and_grad_batch_reference(spec, w, x_all[idx], y_all[idx], masks)
            w, adam = adam_step_reference(adam, w, grad)
    return bayes.McdPosterior(spec, w)


def fit_mean_field_reference(loglik_fn, dim, prior_sigma, cfg, init_mu=None):
    """ADAM ascent on the reparameterized ELBO, one copying `nn.adam_step`
    per iteration; returns the Polyak average of the final quarter of the
    iterates as a bayes.ViFit."""
    from safesteer import nn

    rng = np.random.default_rng(cfg.seed)
    prior_sigma = np.broadcast_to(np.asarray(prior_sigma, dtype=np.float64), (dim,))
    mu = np.zeros(dim) if init_mu is None else np.asarray(init_mu, dtype=np.float64).copy()
    rho = np.log(prior_sigma).copy()
    params = np.concatenate([mu, rho])
    adam = nn.AdamState.fresh(params.size, lr=cfg.lr)
    trace = np.empty(cfg.iterations)
    tail_from = cfg.iterations - max(cfg.iterations // 4, 1)
    tail_sum = np.zeros_like(params)
    tail_n = 0
    for it in range(cfg.iterations):
        gm, gr, trace[it] = bayes._elbo_estimate(loglik_fn, params[:dim], params[dim:],
                                                 prior_sigma, rng, cfg.mc_samples)
        params, adam = nn.adam_step(adam, params, -np.concatenate([gm, gr]))
        if it >= tail_from:
            tail_sum += params
            tail_n += 1
    final = tail_sum / tail_n if tail_n else params
    return bayes.ViFit(final[:dim].copy(), final[dim:].copy(), trace)


def save_model_v2(model, path):
    """The package's save_model as it was in format version 2: one indented
    JSON document, each array as {"shape": [...], "f8le": "<base64>"}."""
    def encode(a):
        a = np.ascontiguousarray(a, dtype="<f8")
        return {"shape": list(a.shape), "f8le": base64.b64encode(a.tobytes()).decode("ascii")}

    doc = {
        "format_version": 2,
        "method": model.method,
        "network": io._spec_to_dict(model.mcd.spec),
        "weights": encode(model.mcd.weights),
        "dropout_rates": list(model.mcd.rates),
        "metadata": model.metadata,
    }
    if isinstance(model.posterior, bayes.ViPosterior):
        doc["vi"] = {"mu": encode(model.posterior.mu), "rho": encode(model.posterior.rho)}
    elif isinstance(model.posterior, bayes.HmcPosterior):
        doc["hmc"] = {"samples": encode(model.posterior.samples)}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def collect_dataset_reference(scenario, episodes, seed=0, frame_stride=1):
    """Every frame of each clear-weather autopilot episode is rendered with
    `render_reference` from its record's pose (clear weather changes no
    pixel); every frame_stride-th (record, frame) pair is then taken."""
    scenario = dataclasses.replace(scenario, weather="clear")
    pilot = AutopilotController()
    images, labels, steerings = [], [], []
    for ep in range(episodes):
        path = run_episode(scenario, pilot, None, seed=[seed, ep])
        if not path.safe:
            raise RuntimeError(f"autopilot episode {ep} was unsafe ({path.outcome})")
        frames = [render_reference(rec.state, scenario) for rec in path.records]
        for rec, frame in list(zip(path.records, frames))[::frame_stride]:
            images.append(frame)
            labels.append(steering_to_class(rec.steering))
            steerings.append(rec.steering)
    return ImageDataset(np.stack(images), np.asarray(labels, dtype=np.int64),
                        scenario.kind, seed, np.asarray(steerings))
