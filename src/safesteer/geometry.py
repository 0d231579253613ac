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


@dataclass(frozen=True)
class Arc:
    cx: float
    cy: float
    radius: float
    phi0: float    # angle from center to the start point
    sweep: float   # signed; > 0 turns left (counterclockwise)

    def __post_init__(self):
        if not (self.radius > 0 and 0 < abs(self.sweep) < TWO_PI):
            raise ValueError("arc needs positive radius and 0 < |sweep| < 2*pi")

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


Piece = Segment | Arc


class Path:
    """A chain of tangent-continuous pieces addressed by arc length."""

    def __init__(self, pieces: list[Piece]):
        if not pieces:
            raise ValueError("path needs at least one piece")
        self.pieces = list(pieces)
        self.cumlen = np.cumsum([p.length for p in self.pieces])
        self.length = float(self.cumlen[-1])

    def _locate(self, s: float) -> tuple[Piece, float]:
        """The piece holding arc length s (clamped to the path) and s
        measured from that piece's start."""
        s = min(max(s, 0.0), self.length)
        i = min(int(np.searchsorted(self.cumlen, s, side="left")), len(self.pieces) - 1)
        return self.pieces[i], s - (self.cumlen[i - 1] if i > 0 else 0.0)

    def point_at(self, s: float) -> tuple[float, float]:
        piece, s = self._locate(s)
        return piece.point_at(s)

    def heading_at(self, s: float) -> float:
        piece, s = self._locate(s)
        return piece.heading_at(s)

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
            else:
                vx, vy = px - piece.cx, py - piece.cy
                sign = 1.0 if piece.sweep > 0 else -1.0
                p1 = piece.phi0 + piece.sweep
                r0x, r0y = math.cos(piece.phi0), math.sin(piece.phi0)
                r1x, r1y = math.cos(p1), math.sin(p1)
                # within the sweep: past the start radius and before the end
                # radius, both for a sweep of at most pi, either one beyond
                a = sign * (r0x * vy - r0y * vx) >= 0.0
                b = sign * (vx * r1y - vy * r1x) >= 0.0
                inside = a & b if abs(piece.sweep) <= math.pi else a | b
                q = vx * vx + vy * vy
                radial = np.sqrt(q) - piece.radius
                e0x = piece.cx + piece.radius * r0x
                e0y = piece.cy + piece.radius * r0y
                e1x = piece.cx + piece.radius * r1x
                e1y = piece.cy + piece.radius * r1y
                d2_out = np.minimum((px - e0x) ** 2 + (py - e0y) ** 2,
                                    (px - e1x) ** 2 + (py - e1y) ** 2)
                d2 = np.where(inside, radial * radial, d2_out)
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
