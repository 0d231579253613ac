"""Independent reference implementations used only to check the library.

Nothing here may call back into the package's compute paths: the forward
oracle walks the documented weight layout (per layer: kernel then bias;
conv kernels (k, k, Cin, F) row-major, fc matrices (in, out) row-major)
with plain nested loops.
"""

import math

import numpy as np


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
