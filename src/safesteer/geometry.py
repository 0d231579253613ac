"""Piecewise centerline geometry: line segments and circular arcs with
arc-length parameterization, point projection, and oriented-rectangle
overlap tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class Segment:
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def length(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def point_at(self, s: float) -> tuple[float, float]:
        t = s / self.length
        return (self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0))

    def heading_at(self, s: float) -> float:
        return math.atan2(self.y1 - self.y0, self.x1 - self.x0)

    def project(self, px: np.ndarray, py: np.ndarray):
        """Vectorized projection. Returns (dist, s, lateral); lateral > 0 is
        left of the travel direction."""
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        length = self.length
        ux, uy = dx / length, dy / length
        t = (px - self.x0) * ux + (py - self.y0) * uy
        s = np.clip(t, 0.0, length)
        fx = self.x0 + s * ux
        fy = self.y0 + s * uy
        rx, ry = px - fx, py - fy
        dist = np.hypot(rx, ry)
        lateral = ux * ry - uy * rx
        return dist, s, lateral


@dataclass(frozen=True)
class Arc:
    cx: float
    cy: float
    radius: float
    phi0: float    # angle from center to the start point
    sweep: float   # signed; > 0 turns left (counterclockwise)

    @property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    def _phi_at(self, s: float) -> float:
        return self.phi0 + math.copysign(s / self.radius, self.sweep)

    def point_at(self, s: float) -> tuple[float, float]:
        phi = self._phi_at(s)
        return (self.cx + self.radius * math.cos(phi), self.cy + self.radius * math.sin(phi))

    def heading_at(self, s: float) -> float:
        phi = self._phi_at(s)
        # tangent of ccw travel is phi + pi/2; cw travel is phi - pi/2
        return wrap_angle(phi + math.copysign(math.pi / 2.0, self.sweep))

    def project(self, px: np.ndarray, py: np.ndarray):
        vx, vy = px - self.cx, py - self.cy
        phi = np.arctan2(vy, vx)
        sign = 1.0 if self.sweep > 0 else -1.0
        # angular progress from the start, measured along the travel direction
        dphi = np.mod(sign * (phi - self.phi0), TWO_PI)
        total = abs(self.sweep)
        inside = dphi <= total
        # outside the sweep: clamp to whichever endpoint is angularly closer
        to_end = dphi - total
        to_start = TWO_PI - dphi
        dphi = np.where(inside, dphi, np.where(to_end < to_start, total, 0.0))
        s = dphi * self.radius
        foot_phi = self.phi0 + sign * dphi
        fx = self.cx + self.radius * np.cos(foot_phi)
        fy = self.cy + self.radius * np.sin(foot_phi)
        rx, ry = px - fx, py - fy
        dist = np.hypot(rx, ry)
        tx = -np.sin(foot_phi) * sign
        ty = np.cos(foot_phi) * sign
        lateral = tx * ry - ty * rx
        return dist, s, lateral


Piece = Segment | Arc


class Path:
    """A chain of tangent-continuous pieces addressed by arc length."""

    def __init__(self, pieces: list[Piece]):
        if not pieces:
            raise ValueError("path needs at least one piece")
        self.pieces = list(pieces)
        self.cumlen = np.cumsum([p.length for p in self.pieces])
        self.length = float(self.cumlen[-1])

    def point_at(self, s: float) -> tuple[float, float]:
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cumlen, s, side="left"))
        i = min(i, len(self.pieces) - 1)
        s0 = self.cumlen[i - 1] if i > 0 else 0.0
        return self.pieces[i].point_at(s - s0)

    def heading_at(self, s: float) -> float:
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cumlen, s, side="left"))
        i = min(i, len(self.pieces) - 1)
        s0 = self.cumlen[i - 1] if i > 0 else 0.0
        return self.pieces[i].heading_at(s - s0)

    def distance_sq_many(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Squared unsigned distance to the path. Pieces loop in Python with
        flat 1-D array ops and no hypot; one sqrt per arc only (rendering
        compares squared thresholds, so the root is never taken per point)."""
        best: np.ndarray | None = None
        for piece in self.pieces:
            if isinstance(piece, Segment):
                ux = (piece.x1 - piece.x0) / piece.length
                uy = (piece.y1 - piece.y0) / piece.length
                rx, ry = px - piece.x0, py - piece.y0
                s = np.clip(rx * ux + ry * uy, 0.0, piece.length)
                dx, dy = rx - s * ux, ry - s * uy
                d2 = dx * dx + dy * dy
            elif abs(piece.sweep) <= math.pi:
                vx, vy = px - piece.cx, py - piece.cy
                sign = 1.0 if piece.sweep > 0 else -1.0
                p1 = piece.phi0 + piece.sweep
                r0x, r0y = math.cos(piece.phi0), math.sin(piece.phi0)
                r1x, r1y = math.cos(p1), math.sin(p1)
                # between the endpoint radii, on the travel side of both
                inside = (sign * (r0x * vy - r0y * vx) >= 0.0) & \
                         (sign * (vx * r1y - vy * r1x) >= 0.0)
                q = vx * vx + vy * vy
                radial = np.sqrt(q) - piece.radius
                e0x = piece.cx + piece.radius * r0x
                e0y = piece.cy + piece.radius * r0y
                e1x = piece.cx + piece.radius * r1x
                e1y = piece.cy + piece.radius * r1y
                d2_out = np.minimum((px - e0x) ** 2 + (py - e0y) ** 2,
                                    (px - e1x) ** 2 + (py - e1y) ** 2)
                d2 = np.where(inside, radial * radial, d2_out)
            else:
                d = piece.project(px, py)[0]
                d2 = d * d
            best = d2 if best is None else np.minimum(best, d2)
        return best

    def project(self, x: float, y: float) -> tuple[float, float, float]:
        """Scalar nearest-point projection (pure Python; hot in the
        per-step simulation loop)."""
        best = (math.inf, 0.0, 0.0)
        offset = 0.0
        for piece in self.pieces:
            if isinstance(piece, Segment):
                ux = (piece.x1 - piece.x0) / piece.length
                uy = (piece.y1 - piece.y0) / piece.length
                rx, ry = x - piece.x0, y - piece.y0
                s = min(max(rx * ux + ry * uy, 0.0), piece.length)
                dx, dy = rx - s * ux, ry - s * uy
                d = math.hypot(dx, dy)
                lat = ux * dy - uy * dx
            else:
                vx, vy = x - piece.cx, y - piece.cy
                sign = 1.0 if piece.sweep > 0 else -1.0
                dphi = (sign * (math.atan2(vy, vx) - piece.phi0)) % TWO_PI
                total = abs(piece.sweep)
                if dphi > total:
                    dphi = total if dphi - total < TWO_PI - dphi else 0.0
                s = dphi * piece.radius
                foot_phi = piece.phi0 + sign * dphi
                cphi, sphi = math.cos(foot_phi), math.sin(foot_phi)
                dx = vx - piece.radius * cphi
                dy = vy - piece.radius * sphi
                d = math.hypot(dx, dy)
                lat = (-sphi * sign) * dy - (cphi * sign) * dx
            if d < best[0]:
                best = (d, offset + s, lat)
            offset += piece.length
        return best


class PathBuilder:
    """Builds a tangent-continuous path from a start pose by appending
    straight runs and constant-radius turns."""

    def __init__(self, x: float, y: float, heading: float):
        self._x, self._y, self._h = x, y, heading
        self._pieces: list[Piece] = []

    def line(self, length: float) -> "PathBuilder":
        if length <= 0:
            raise ValueError("line length must be positive")
        x1 = self._x + length * math.cos(self._h)
        y1 = self._y + length * math.sin(self._h)
        self._pieces.append(Segment(self._x, self._y, x1, y1))
        self._x, self._y = x1, y1
        return self

    def arc(self, radius: float, sweep: float) -> "PathBuilder":
        if radius <= 0 or sweep == 0:
            raise ValueError("arc needs positive radius and nonzero sweep")
        # center sits on the left for a left turn, on the right otherwise
        side = 1.0 if sweep > 0 else -1.0
        cx = self._x - side * radius * math.sin(self._h)
        cy = self._y + side * radius * math.cos(self._h)
        phi0 = math.atan2(self._y - cy, self._x - cx)
        piece = Arc(cx, cy, radius, phi0, sweep)
        self._pieces.append(piece)
        end = piece.point_at(piece.length)
        self._x, self._y = end
        self._h = wrap_angle(self._h + sweep)
        return self

    @property
    def pose(self) -> tuple[float, float, float]:
        return self._x, self._y, self._h

    def build(self) -> Path:
        return Path(self._pieces)


@dataclass(frozen=True)
class Rect:
    """Oriented rectangle given by center pose and extents."""

    x: float
    y: float
    heading: float
    length: float  # extent along the heading
    width: float   # extent across the heading

    def corners(self) -> np.ndarray:
        c, s = math.cos(self.heading), math.sin(self.heading)
        hl, hw = self.length / 2.0, self.width / 2.0
        local = np.array([[hl, hw], [hl, -hw], [-hl, -hw], [-hl, hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.x, self.y])

    def contains(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.heading), math.sin(self.heading)
        dx, dy = px - self.x, py - self.y
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        return (np.abs(lx) <= self.length / 2.0) & (np.abs(ly) <= self.width / 2.0)


def rects_overlap(a: Rect, b: Rect) -> bool:
    """Separating-axis test for two oriented rectangles (touching counts)."""
    ca = a.corners()
    cb = b.corners()
    for rect in (a, b):
        c, s = math.cos(rect.heading), math.sin(rect.heading)
        for ax, ay in ((c, s), (-s, c)):
            pa = ca[:, 0] * ax + ca[:, 1] * ay
            pb = cb[:, 0] * ax + cb[:, 1] * ay
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True
