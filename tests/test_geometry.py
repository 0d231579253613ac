import math

import numpy as np
import pytest

from safesteer.geometry import (Arc, Path, PathBuilder, Rect, Segment,
                                rects_overlap, wrap_angle)
from oracles import project_path_many, rects_overlap_sampled


def test_wrap_angle():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


def test_segment_projection_signs():
    seg = Segment(0, 0, 10, 0)
    d, s, lat = seg.project(np.array([3.0, -2.0, 12.0]), np.array([2.0, 1.0, 0.0]))
    assert np.allclose(d, [2.0, math.hypot(2, 1), 2.0])
    assert np.allclose(s, [3.0, 0.0, 10.0])
    assert lat[0] > 0  # left of travel is positive


def test_arc_point_heading_roundtrip():
    arc = Arc(0, 0, 5.0, -math.pi / 2, math.pi / 2)  # ccw quarter from (0,-5)
    x, y = arc.point_at(0)
    assert (x, y) == pytest.approx((0.0, -5.0))
    x, y = arc.point_at(arc.length)
    assert (x, y) == pytest.approx((5.0, 0.0))
    assert arc.heading_at(0) == pytest.approx(0.0)
    assert arc.heading_at(arc.length) == pytest.approx(math.pi / 2)


def test_arc_projection_interior_and_clamp():
    arc = Arc(0, 0, 5.0, -math.pi / 2, math.pi / 2)
    d, s, lat = arc.project(np.array([3.0 / math.sqrt(2)]), np.array([-3.0 / math.sqrt(2)]))
    assert d[0] == pytest.approx(2.0)
    assert s[0] == pytest.approx(5.0 * math.pi / 4)
    assert lat[0] > 0  # inside the circle is left of ccw travel
    # a point behind the start clamps to s = 0
    d, s, _ = arc.project(np.array([-1.0]), np.array([-5.0]))
    assert s[0] == 0.0


def test_path_builder_tangent_continuity():
    path = (PathBuilder(0, 0, 0).line(10).arc(18, math.pi / 2).line(20)).build()
    assert path.length == pytest.approx(10 + 18 * math.pi / 2 + 20)
    # endpoints and headings chain smoothly
    for s in np.linspace(0.1, path.length - 0.1, 200):
        x0, y0 = path.point_at(s - 0.05)
        x1, y1 = path.point_at(s + 0.05)
        h = math.atan2(y1 - y0, x1 - x0)
        assert abs(wrap_angle(h - path.heading_at(s))) < 2e-3
    assert path.point_at(10) == pytest.approx((10.0, 0.0))
    assert path.point_at(path.length) == pytest.approx((28.0, 38.0))


def test_project_many_matches_scalar_project():
    path = (PathBuilder(0, 0, 0.3).line(15).arc(12, -1.1).line(8)
            .arc(30, 0.7)).build()
    rng = np.random.default_rng(0)
    px = rng.uniform(-10, 40, 300)
    py = rng.uniform(-25, 25, 300)
    d, s, lat = project_path_many(path, px, py)
    for i in range(0, 300, 17):
        ds, ss, ls = path.project(px[i], py[i])
        assert ds == pytest.approx(d[i], abs=1e-12)
        assert ss == pytest.approx(s[i], abs=1e-9)
        assert ls == pytest.approx(lat[i], abs=1e-12)


def test_distance_many_matches_projection():
    path = (PathBuilder(0, 0, 0).line(24).arc(40, 0.2).arc(40, -0.2).line(30)).build()
    rng = np.random.default_rng(1)
    px = rng.uniform(-10, 90, 2000)
    py = rng.uniform(-20, 20, 2000)
    d_fast = np.sqrt(path.distance_sq_many(px, py))
    d_ref, _, _ = project_path_many(path, px, py)
    assert np.abs(d_fast - d_ref).max() < 1e-10


def test_rect_corners_and_containment():
    r = Rect(1.0, 2.0, math.pi / 2, 4.0, 2.0)
    corners = r.corners()
    assert corners.shape == (4, 2)
    assert r.contains(np.array([1.0]), np.array([2.0]))[0]
    assert not r.contains(np.array([2.5]), np.array([2.0]))[0]  # width/2 = 1 along x now


def test_rects_overlap_against_sampling_oracle():
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(1000):
        a = Rect(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi),
                 4.0, 1.8)
        b = Rect(a.x + rng.uniform(-6, 6), a.y + rng.uniform(-6, 6),
                 rng.uniform(-math.pi, math.pi), 4.0, 1.8)
        assert rects_overlap(a, b) == rects_overlap_sampled(a, b)
        agree += 1
    assert agree == 1000
