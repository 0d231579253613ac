import dataclasses
import math

import numpy as np
import pytest

from oracles import apply_weather_reference, collect_dataset_reference, render_reference
from safesteer import sim
from safesteer.geometry import PathBuilder, rects_overlap, wrap_angle
from safesteer.uncertainty import ConfidenceReport, steering_to_class

QUIET = sim.Disturbances(lateral_jitter_std=0.0, steering_noise_std=0.0)


def straight_road(length=200.0, obstacle=None, disturbances=QUIET):
    return sim.ScenarioConfig("straight_obstacle",
                              PathBuilder(0, 0, 0).line(length).build(),
                              obstacle=obstacle, disturbances=disturbances)


@dataclasses.dataclass(frozen=True)
class ConstantController:
    steering: float = 0.0
    eta2: float = 1.0
    warning: str | None = None

    def act(self, obs, state, scenario, rng):
        report = ConfidenceReport(self.eta2, 0.0, self.warning)
        return self.steering, report


@dataclasses.dataclass
class ScriptedWarnings:
    """ConstantController whose warning follows a per-step script and falls
    silent once the script runs out."""
    script: tuple[str | None, ...]
    steering: float = 0.0
    calls: int = 0

    ETA2 = {None: 1.0, "W0": 1.0, "W1": 0.65, "W2": 0.0}

    def act(self, obs, state, scenario, rng):
        warning = self.script[self.calls] if self.calls < len(self.script) else None
        self.calls += 1
        return ConstantController(self.steering, self.ETA2[warning], warning).act(
            obs, state, scenario, rng)


class FailingController:
    def act(self, obs, state, scenario, rng):
        raise RuntimeError("sensor died")


# ---------------------------------------------------------------------------
# dynamics

def test_step_straight_line():
    s = sim.step(sim.VehicleState(0, 0, 0, 8.0), 0.0, 8.0, 0.05)
    assert s.x == pytest.approx(0.4, abs=1e-12)
    assert s.y == 0.0
    assert s.heading == 0.0


def test_step_full_stop_takes_two_seconds():
    s = sim.VehicleState(0, 0, 0, 8.0)
    for k in range(40):
        assert s.speed > 0.0
        s = sim.step(s, 0.0, 0.0, 0.05)
    assert s.speed == 0.0  # exactly v/a_max = 2.0 s of steps


def test_step_circle_closure():
    steering, v, dt = 0.3, 5.0, 0.05
    radius = sim.WHEELBASE / math.tan(steering * sim.DELTA_MAX)
    steps = round(2 * math.pi * radius / (v * dt))
    s = sim.VehicleState(0, 0, 0, v)
    for _ in range(steps):
        s = sim.step(s, steering, v, dt)
    # closed-form circle: Euler integration drift is O(dt)
    assert math.hypot(s.x, s.y) < 5.0 * dt
    # and the path curvature matches tan(delta)/L: the midpoint of the loop
    # sits a diameter away on the left
    s2 = sim.VehicleState(0, 0, 0, v)
    for _ in range(steps // 2):
        s2 = sim.step(s2, steering, v, dt)
    assert math.hypot(s2.x - 0.0, s2.y - 2 * radius) < 10.0 * dt


def test_step_convergence_order():
    def final_pos(dt):
        s = sim.VehicleState(0, 0, 0, 8.0)
        t = 0.0
        while t < 10.0 - 1e-9:
            s = sim.step(s, 0.5 * math.sin(0.8 * t), 8.0, dt)
            t += dt
        return np.array([s.x, s.y])

    p1, p2, p4 = final_pos(0.05), final_pos(0.025), final_pos(0.0125)
    ratio = np.linalg.norm(p1 - p2) / np.linalg.norm(p2 - p4)
    assert 1.5 <= ratio <= 2.5


def test_step_heading_wraps():
    s = sim.VehicleState(0, 0, 3.1, 10.0)
    for _ in range(20):
        s = sim.step(s, 1.0, 10.0, 0.05)
    assert -math.pi < s.heading <= math.pi


# ---------------------------------------------------------------------------
# rendering

def test_render_mirror_symmetric_on_straight():
    scn = straight_road()
    img = sim.render(sim.VehicleState(5.0, 0.0, 0.0, 8.0), scn)
    flipped = img[:, ::-1]
    assert np.abs(img.astype(int) - flipped.astype(int)).max() <= 1


def test_render_no_obstacle_means_no_obstacle_pixels():
    scn = straight_road()
    img = sim.render(sim.VehicleState(5.0, 0.0, 0.0, 8.0), scn)
    assert not np.any(img == sim.OBSTACLE_COLOR)


def test_render_shows_obstacle_ahead():
    scn = sim.straight_obstacle_scenario()
    img = sim.render(sim.VehicleState(25.0, 0.0, 0.0, 8.0), scn)
    assert np.any(img == sim.OBSTACLE_COLOR)


def test_render_rigid_motion_invariance():
    scn = sim.straight_obstacle_scenario()
    state = sim.VehicleState(3.0, 0.4, 0.1, 8.0)
    img1 = sim.render(state, scn)

    tx, ty, th = 7.3, -2.1, math.pi / 6
    c, s = math.cos(th), math.sin(th)

    def xform(x, y):
        return tx + c * x - s * y, ty + s * x + c * y

    b = PathBuilder(*xform(0, 0), th).line(130.0)
    ox, oy = xform(scn.obstacle.x, scn.obstacle.y)
    moved = dataclasses.replace(
        scn, centerline=b.build(), route=None,
        obstacle=dataclasses.replace(scn.obstacle, x=ox, y=oy, heading=th))
    sx, sy = xform(state.x, state.y)
    img2 = sim.render(sim.VehicleState(sx, sy, wrap_angle(state.heading + th), state.speed),
                      moved)
    assert np.abs(img1.astype(int) - img2.astype(int)).max() <= 1


def test_render_deterministic():
    scn = sim.straight_obstacle_scenario()
    st = sim.VehicleState(10.0, 0.3, -0.05, 8.0)
    assert np.array_equal(sim.render(st, scn), sim.render(st, scn))


def _camera_pose(cam_x, cam_y, heading):
    """Vehicle state whose camera sits at (cam_x, cam_y)."""
    return sim.VehicleState(cam_x - sim.CAMERA_FORWARD * math.cos(heading),
                            cam_y - sim.CAMERA_FORWARD * math.sin(heading),
                            wrap_angle(heading), 8.0)


def _obstacle_point(obs, lx, ly):
    """World point at (lx, ly) in the obstacle's footprint frame."""
    c, s = math.cos(obs.heading), math.sin(obs.heading)
    return obs.x + c * lx - s * ly, obs.y + s * lx + c * ly


def _render_cases():
    """(scenario, state) pairs: random poses on both scenarios and around
    obstacles with zero and non-zero heading, plus constructed edge cases."""
    rng = np.random.default_rng(61)
    straight = sim.straight_obstacle_scenario()
    roundabout = sim.roundabout_scenario()
    tilted = dataclasses.replace(
        straight, obstacle=sim.Obstacle(x=30.0, y=0.7, heading=0.7, length=5.0, width=2.2))
    round_obs = dataclasses.replace(
        roundabout, obstacle=sim.Obstacle(x=22.0, y=12.0, heading=-2.3, height=0.9))
    cases = []
    for scn, lo, hi in ((straight, (-10.0, -6.0), (140.0, 6.0)),
                        (roundabout, (-10.0, -6.0), (40.0, 40.0)),
                        (tilted, (-10.0, -6.0), (140.0, 6.0)),
                        (round_obs, (-10.0, -6.0), (40.0, 40.0))):
        for _ in range(700):
            x, y = rng.uniform(lo, hi)
            cases.append((scn, sim.VehicleState(x, y, rng.uniform(-math.pi, math.pi), 8.0)))
    for scn in (straight, tilted, round_obs):
        obs = scn.obstacle
        hl, hw = obs.length / 2.0, obs.width / 2.0
        ground = np.flatnonzero(np.isfinite(sim._REACH))
        for _ in range(200):
            # a ground ray aimed square at the near face, with the camera at
            # that ray's reach from the face: the ray meets the ground on the
            # face's bottom edge, which is also where the prune cuts off
            k = rng.choice(ground)
            reach = sim._REACH[k] * (1.0 + rng.choice([-1e-9, 0.0, 1e-9]))
            heading = obs.heading - math.atan2(sim._RAY_Y[k], sim._RAY_X[k])
            cam = _obstacle_point(obs, -hl - reach, rng.uniform(-hw, hw))
            cases.append((scn, _camera_pose(*cam, heading)))
            # the camera on a side face's plane, looking along that face or
            # at the near corner of the other side
            ly = rng.choice([-hw, hw])
            gap = rng.uniform(0.5, 30.0)
            cam = _obstacle_point(obs, -hl - gap, ly)
            at = obs.heading + rng.choice([0.0, math.atan2(-2.0 * ly, gap)])
            cases.append((scn, _camera_pose(*cam, at)))
            # the obstacle around the 80 m edge of the rendered ground
            dist = sim.VIEW_RANGE + rng.uniform(-5.0, 5.0)
            bearing = rng.uniform(-0.3, 0.3)
            cam = _obstacle_point(obs, -dist * math.cos(bearing), -dist * math.sin(bearing))
            cases.append((scn, _camera_pose(*cam, obs.heading + bearing + rng.normal(0.0, 0.1))))
            # the camera inside the footprint
            cam = _obstacle_point(obs, rng.uniform(-hl, hl), rng.uniform(-hw, hw))
            cases.append((scn, _camera_pose(*cam, rng.uniform(-math.pi, math.pi))))
            # the obstacle behind the camera
            cam = _obstacle_point(obs, hl + rng.uniform(0.0, 20.0), rng.uniform(-3.0, 3.0))
            cases.append((scn, _camera_pose(*cam, obs.heading + rng.uniform(-1.2, 1.2))))
    sky = np.flatnonzero(sim._RAY_Z > 1e-12)
    for height in SKY_TEST_HEIGHTS:
        for base in (straight, tilted):
            scn = dataclasses.replace(base, obstacle=dataclasses.replace(base.obstacle,
                                                                         height=height))
            obs = scn.obstacle
            hl, hw = obs.length / 2.0, obs.width / 2.0
            for _ in range(100):
                # the camera 0.5-10 m in front of the near face, looking at it
                cam = _obstacle_point(obs, -hl - rng.uniform(0.5, 10.0),
                                      rng.uniform(-hw - 1.0, hw + 1.0))
                cases.append((scn, _camera_pose(*cam, obs.heading + rng.uniform(-0.6, 0.6))))
                # a sky ray aimed square at the near face, with the camera at
                # the distance where the ray climbs to the box top on the face:
                # the sky rays' prune cuts off there
                k = rng.choice(sky)
                slope = math.hypot(sim._RAY_X[k], sim._RAY_Y[k]) / sim._RAY_Z[k]
                reach = (height - sim.CAMERA_HEIGHT) * slope
                reach *= 1.0 + rng.choice([-1e-9, 0.0, 1e-9])
                heading = obs.heading - math.atan2(sim._RAY_Y[k], sim._RAY_X[k])
                cam = _obstacle_point(obs, -hl - max(reach, 0.5), rng.uniform(-hw, hw))
                cases.append((scn, _camera_pose(*cam, heading)))
    return cases


# Obstacle heights for the sky rays' prune: at, just above and well above the
# camera height
SKY_TEST_HEIGHTS = (sim.CAMERA_HEIGHT, sim.CAMERA_HEIGHT + 1e-9, 2.0, 3.5)


def test_render_matches_full_frame_reference_bytes():
    cases = _render_cases()
    assert len(cases) >= 5000
    hits = 0
    # the sky pixels that the obstacle covers, by obstacle height
    sky = (sim._RAY_Z > 1e-12).reshape(sim.IMG_H, sim.IMG_W)
    sky_hits = dict.fromkeys(SKY_TEST_HEIGHTS, 0)
    for scn, state in cases:
        img = sim.render(state, scn)
        with np.errstate(invalid="ignore"):  # inf * 0 on a sky ray seen edge-on
            ref = render_reference(state, scn)
        assert img.shape == ref.shape and img.dtype == ref.dtype == np.uint8
        assert img.tobytes() == ref.tobytes(), (scn.kind, scn.obstacle, state)
        hits += bool((img == sim.OBSTACLE_COLOR).any())
        if scn.obstacle is not None and scn.obstacle.height in sky_hits:
            sky_hits[scn.obstacle.height] += int((img[sky] == sim.OBSTACLE_COLOR).sum())
    assert hits >= 1000  # the obstacle is in view in a good share of the cases
    # a box no taller than the camera hides no sky beyond 1e-9 m of it
    assert sky_hits[sim.CAMERA_HEIGHT] == sky_hits[sim.CAMERA_HEIGHT + 1e-9] == 0
    assert sky_hits[2.0] >= 2000 and sky_hits[3.5] >= 2000, sky_hits


def test_visible_ground_table_is_far_from_the_view_range():
    """`render` reads the visible ground rays from a table built at import,
    where the per-pose test rotated each ray first. Rotation rounds a reach
    by far less than a metre, so no ray may lie within a metre of the edge."""
    ground = sim._RAY_Z < -1e-12
    gap = np.abs(sim._REACH[ground] - sim.VIEW_RANGE).min()
    assert gap > 1.0, gap


# ---------------------------------------------------------------------------
# weather

def test_weather_clear_is_identity():
    rng = np.random.default_rng(0)
    img = (np.arange(48 * 64, dtype=np.uint8) % 251).reshape(48, 64)
    out = sim.apply_weather(img, sim.WEATHER_PRESETS["clear"], rng)
    assert np.array_equal(out, img)


def test_weather_noise_half_normal_mean():
    wm = sim.WeatherModel(noise_sigma=12.0)
    rng = np.random.default_rng(0)
    deltas = []
    for _ in range(4):  # > 1e4 pixels total
        base = np.full((48, 64), 128, dtype=np.uint8)
        out = sim.apply_weather(base, wm, rng)
        deltas.append(np.abs(out.astype(float) - 128.0).ravel())
    mean = np.concatenate(deltas).mean()
    expect = 12.0 * math.sqrt(2.0 / math.pi)
    assert abs(mean - expect) <= 0.05 * expect


def test_weather_deterministic_given_seed():
    img = np.full((48, 64), 90, dtype=np.uint8)
    wm = sim.WEATHER_PRESETS["rain"]
    a = sim.apply_weather(img, wm, np.random.default_rng(33))
    b = sim.apply_weather(img, wm, np.random.default_rng(33))
    assert np.array_equal(a, b)


def test_weather_droplets_brighten():
    img = np.zeros((48, 64), dtype=np.uint8)
    wm = sim.WeatherModel(droplet_rate=10.0)
    out = sim.apply_weather(img, wm, np.random.default_rng(1))
    assert out.max() >= 190


DROPLETS_ONLY = sim.WeatherModel(droplet_rate=30.0)


@pytest.mark.parametrize("weather", [*sim.WEATHER_PRESETS.values(), DROPLETS_ONLY])
def test_apply_weather_matches_full_frame_reference_bytes_and_draws(weather):
    frames = [sim.render(sim.VehicleState(x, 0.3, 0.05, 8.0), sim.straight_obstacle_scenario())
              for x in (0.0, 25.0, 40.0)]
    frames.append((np.arange(48 * 64) % 256).astype(np.uint8).reshape(48, 64))
    frames.append(np.zeros((48, 64), dtype=np.uint8))
    frames.append(np.zeros((9, 13), dtype=np.uint8))  # every droplet clipped
    borders = np.zeros(4, dtype=int)
    for seed in range(300):
        img = frames[seed % len(frames)]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = sim.apply_weather(img, weather, rng)
        ref = apply_weather_reference(img, weather, ref_rng)
        assert out.dtype == ref.dtype == np.uint8
        assert out.tobytes() == ref.tobytes(), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed
        if img.shape == (48, 64) and not img.any():
            lit = out >= sim.DROPLET_BRIGHTNESS[0]  # droplet pixels on a black frame
            borders += [lit[0].any(), lit[-1].any(), lit[:, 0].any(), lit[:, -1].any()]
    if weather == DROPLETS_ONLY:
        assert (borders > 0).all(), borders  # droplets clipped at all four borders


IDENTITY_WEATHERS = (sim.WEATHER_PRESETS["clear"], sim.WeatherModel(brightness_offset=-0.0),
                     sim.WeatherModel(noise_sigma=-1.0, droplet_rate=-3.0))


@pytest.mark.parametrize("weather", IDENTITY_WEATHERS)
def test_identity_weather_copies_the_frame_and_draws_nothing(weather):
    rendered = sim.render(sim.VehicleState(30.0, 0.3, 0.05, 8.0), sim.straight_obstacle_scenario())
    ramp = (np.arange(48 * 64) % 256).astype(np.uint8).reshape(48, 64)
    frames = [rendered, ramp, np.zeros((9, 13), dtype=np.uint8), np.asfortranarray(ramp),
              ramp[::2, 1::3], ramp.astype(np.float64) + 0.4]  # the last takes the long path
    for seed, img in enumerate(frames):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        before = rng.bit_generator.state
        out = sim.apply_weather(img, weather, rng)
        ref = apply_weather_reference(img, weather, ref_rng)
        assert out.dtype == ref.dtype == np.uint8 and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes(), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state == before
        assert not np.shares_memory(out, img)


# ---------------------------------------------------------------------------
# safe set

def test_is_safe_on_centerline():
    scn = straight_road()
    assert sim.is_safe(sim.VehicleState(10, 0, 0, 8.0), scn)


def test_is_safe_corridor_boundary():
    scn = straight_road()
    hw = scn.corridor_half_width
    assert sim.is_safe(sim.VehicleState(10, hw, 0, 8.0), scn)
    assert not sim.is_safe(sim.VehicleState(10, hw + 0.01, 0, 8.0), scn)


def test_is_safe_obstacle_overlap():
    obst = sim.Obstacle(x=20.0, y=0.0)
    scn = straight_road(obstacle=obst)
    assert not sim.is_safe(sim.VehicleState(20.0, 0.0, 0.3, 8.0), scn)
    assert sim.is_safe(sim.VehicleState(10.0, 0.0, 0.0, 8.0), scn)


def test_hits_obstacle_agrees_with_separating_axis_test():
    rng = np.random.default_rng(7)
    cases = 0
    overlapping = 0
    for _ in range(4000):
        obs = sim.Obstacle(x=rng.uniform(-50, 50), y=rng.uniform(-50, 50),
                           heading=rng.uniform(-math.pi, math.pi),
                           length=rng.uniform(0.5, 6.0), width=rng.uniform(0.5, 3.0))
        scn = straight_road(obstacle=obs)
        kind = rng.integers(3)
        if kind == 0:  # anywhere near, from deep overlap to well apart
            r = rng.uniform(0.0, 9.0)
            phi = rng.uniform(-math.pi, math.pi)
            x, y = obs.x + r * math.cos(phi), obs.y + r * math.sin(phi)
            heading = rng.uniform(-math.pi, math.pi)
        elif kind == 1:  # edges touching: the car's rear on the obstacle's front face
            heading = obs.heading
            x, y = _obstacle_point(obs, obs.length / 2.0 + sim.CAR_LENGTH / 2.0,
                                   rng.uniform(-1.0, 1.0) * (obs.width + sim.CAR_WIDTH) / 2.0)
        else:  # corners touching, with the centres on one line through both
            theta = obs.heading + math.atan2(obs.width, obs.length)
            reach = (math.hypot(obs.length, obs.width)
                     + math.hypot(sim.CAR_LENGTH, sim.CAR_WIDTH)) / 2.0
            reach *= 1.0 + rng.choice([-1e-9, 0.0, 1e-9, 1e-3])
            x, y = obs.x + reach * math.cos(theta), obs.y + reach * math.sin(theta)
            heading = theta - math.atan2(sim.CAR_WIDTH, sim.CAR_LENGTH)
        state = sim.VehicleState(x, y, wrap_angle(heading), 8.0)
        expect = rects_overlap(sim.car_rect(state), obs.rect())
        assert sim.hits_obstacle(state, scn) == expect, (obs, state)
        cases += 1
        overlapping += expect
    assert 500 <= overlapping <= cases - 500


# ---------------------------------------------------------------------------
# autopilot

def test_autopilot_zero_on_centerline():
    scn = straight_road()
    assert abs(sim.autopilot_steering(sim.VehicleState(5, 0, 0, 8.0), scn)) < 1e-9


def test_autopilot_sign_corrects_toward_centerline():
    scn = straight_road()
    right_of_path = sim.autopilot_steering(sim.VehicleState(5, -0.5, 0, 8.0), scn)
    left_of_path = sim.autopilot_steering(sim.VehicleState(5, 0.5, 0, 8.0), scn)
    assert right_of_path > 0  # negative offset -> steer left (positive)
    assert left_of_path < 0


def test_autopilot_safe_on_both_scenarios():
    for make in (sim.straight_obstacle_scenario, sim.roundabout_scenario):
        scn = make()
        for ep in range(25):
            path = sim.run_episode(scn, sim.AutopilotController(), None, seed=[101, ep])
            assert path.outcome == "completed", (scn.kind, ep, path.outcome)


# ---------------------------------------------------------------------------
# episodes

def test_episode_zero_steering_collides_at_five_seconds():
    scn = sim.straight_obstacle_scenario(disturbances=QUIET)
    path = sim.run_episode(scn, ConstantController(0.0), None, seed=0)
    assert path.outcome == "collided"
    t_collision = len(path.records) * scn.dt  # violation happens on the last step
    assert abs(t_collision - 5.0) <= scn.dt + 1e-9


def test_episode_forced_brake_hands_over_without_collision():
    scn = sim.straight_obstacle_scenario(disturbances=QUIET)
    ctrl = ConstantController(0.0, eta2=0.0, warning="W2")
    path = sim.run_episode(scn, ctrl, sim.MonitorPolicy(), seed=0)
    assert path.outcome == "handover"
    assert path.records[-1].state.x < 40.0  # stopped well before the obstacle


def test_episode_slowdown_on_w1():
    scn = straight_road()
    ctrl = ConstantController(0.0, eta2=0.65, warning="W1")
    path = sim.run_episode(scn, ctrl, sim.MonitorPolicy(slow_factor=0.5), seed=0)
    assert path.outcome == "completed"
    speeds = [r.state.speed for r in path.records[40:]]
    assert max(speeds) < 4.5  # settled at half of nominal


@pytest.mark.parametrize("script", [("W0", "W0"), ("W0",) + (None,) * 20 + ("W0",),
                                    ("W2", "W0"), ("W0", "W2")])
def test_episode_repeated_handover_tier_hands_over_before_obstacle(script):
    scn = sim.straight_obstacle_scenario(disturbances=QUIET)
    path = sim.run_episode(scn, ScriptedWarnings(script), sim.MonitorPolicy(), seed=0)
    assert path.outcome == "handover"
    assert path.records[-1].state.x < 40.0


@pytest.mark.parametrize("tier", ["W0", "W2"])
def test_episode_isolated_warning_only_slows(tier):
    scn = straight_road()
    path = sim.run_episode(scn, ScriptedWarnings((tier,)), sim.MonitorPolicy(), seed=0)
    assert path.outcome == "completed"
    assert [r.warning for r in path.records].count(tier) == 1
    speeds = [r.state.speed for r in path.records[40:]]
    assert max(speeds) < 4.5  # the alert keeps the car at half of nominal


def test_episode_error_outcome():
    scn = straight_road()
    path = sim.run_episode(scn, FailingController(), None, seed=0)
    assert path.outcome == "error"
    assert path.error == "RuntimeError: sensor died"
    assert sim.run_episode(scn, ConstantController(0.0), None, seed=0).error is None


@pytest.mark.parametrize("monitored", [False, True])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_episode_non_finite_steering_is_an_error_not_a_collision(value, monitored):
    # a NaN pose passes every safety test, so the command itself is checked
    scn = sim.straight_obstacle_scenario(disturbances=QUIET)
    monitor = sim.MonitorPolicy() if monitored else None
    path = sim.run_episode(scn, ConstantController(value), monitor, seed=0)
    assert path.outcome == "error" and not path.safe
    assert path.error == f"non-finite steering: {float(value)!r}"
    assert path.records == (sim.StepRecord(0, path.records[0].state, 0.0, 0.0, None, None),)


def test_episode_unsafe_start_pose_is_an_error_not_a_violation():
    wild = sim.Disturbances(lateral_jitter_std=10.0)
    outcomes = set()
    for seed in range(12):
        scn = sim.straight_obstacle_scenario(disturbances=wild)
        path = sim.run_episode(scn, ConstantController(0.0), None, seed=seed)
        start = path.records[0].state
        if sim.is_safe(start, scn):
            assert path.outcome != "error" and path.error is None
        else:
            assert path.outcome == "error" and len(path.records) == 1
            assert path.error == (f"unsafe start pose: x={start.x!r} y={start.y!r} "
                                  f"heading={start.heading!r}")
        outcomes.add(path.outcome)
    assert "error" in outcomes and outcomes - {"error"}


def test_episode_starts_at_the_start_of_the_centerline():
    centerline = PathBuilder(5.0, -2.0, 0.3).line(60.0).build()
    scn = sim.ScenarioConfig("straight_obstacle", centerline, disturbances=QUIET)
    path = sim.run_episode(scn, ConstantController(0.0), None, seed=0)
    start = path.records[0].state
    assert path.outcome == "completed"
    assert (start.x, start.y) == (5.0, -2.0)
    assert start.heading == centerline.heading_at(0.0) == pytest.approx(0.3)
    assert start.speed == scn.nominal_speed


def test_episode_deterministic_including_observations():
    # the records, and the rain frames a camera-reading controller is passed
    scn = sim.straight_obstacle_scenario(weather="rain")

    def observed_run():
        frames = []

        class Camera(ConstantController):
            def act(self, obs, state, scenario, rng):
                frames.append(obs)
                return super().act(obs, state, scenario, rng)

        return sim.run_episode(scn, Camera(), None, seed=5), frames

    (a, frames_a), (b, frames_b) = observed_run(), observed_run()
    assert a.outcome == b.outcome
    assert a.records == b.records
    assert len(frames_a) == len(a.records)
    for fa, fb in zip(frames_a, frames_b):
        assert np.array_equal(fa, fb)


def start_offsets(scn, seed, n):
    """The first n lateral offsets of the episode's start-pose stream."""
    rng_init = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[0])
    return [rng_init.normal(0.0, scn.disturbances.lateral_jitter_std) for _ in range(n)]


def test_a_5_sigma_start_offset_is_redrawn():
    # the first offset of this seed lands 1.505 m off the centerline, outside
    # the 1.5 m corridor; the second is the start
    scn = sim.straight_obstacle_scenario()
    first, second = start_offsets(scn, [3906, 37, 2], 2)
    assert first > scn.corridor_half_width
    path = sim.run_episode(scn, sim.AutopilotController(), None, seed=[3906, 37, 2])
    assert path.outcome == "completed" and path.error is None
    assert path.records[0].state.y == second


def test_a_safe_first_start_offset_is_kept():
    # the start stream draws nothing else, so an episode whose first offset
    # is safe (all but about 6e-7 of them) starts at that offset
    scn = dataclasses.replace(sim.straight_obstacle_scenario(), horizon=1)
    for seed in range(200):
        path = sim.run_episode(scn, sim.AutopilotController(), None, seed=seed)
        assert path.records[0].state.y == start_offsets(scn, seed, 1)[0], seed


def test_episode_records_bounded_by_horizon():
    scn = straight_road()
    path = sim.run_episode(scn, ConstantController(0.0), None, seed=0)
    assert len(path.records) <= scn.horizon + 1


# ---------------------------------------------------------------------------
# dataset collection

def test_collect_dataset_counts_and_labels():
    scn = sim.straight_obstacle_scenario()
    ds = sim.collect_dataset(scn, episodes=2, seed=3, frame_stride=4)
    assert len(ds) <= 2 * (scn.horizon + 1)
    assert np.all(ds.labels >= 0) and np.all(ds.labels < 20)
    assert len(ds.steerings) == len(ds)


def test_collect_dataset_zero_jitter_straight_labels():
    scn = straight_road()
    ds = sim.collect_dataset(scn, episodes=1, seed=0)
    assert np.all(ds.labels == steering_to_class(0.0))


def test_collect_dataset_deterministic():
    scn = sim.straight_obstacle_scenario()
    a = sim.collect_dataset(scn, episodes=1, seed=9, frame_stride=8)
    b = sim.collect_dataset(scn, episodes=1, seed=9, frame_stride=8)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("kind", ["straight_obstacle", "roundabout_first_exit"])
def test_collect_dataset_frames_are_clear_whatever_the_scenarios_weather(kind):
    clear = sim.collect_dataset(sim.scenario_by_name(kind), episodes=2, seed=6, frame_stride=5)
    rain = sim.collect_dataset(sim.scenario_by_name(kind, weather="rain"), episodes=2, seed=6,
                               frame_stride=5)
    for name in ("images", "labels", "steerings"):
        a, b = getattr(rain, name), getattr(clear, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert (rain.scenario, rain.seed) == (clear.scenario, clear.seed)


@pytest.mark.parametrize("stride", [-5, 0, 2.5, np.int64(2), True])
def test_collect_dataset_frame_stride_must_be_an_int_of_at_least_1(stride):
    # -5 once returned each episode's frames in reverse, 0 raised a bare
    # "slice step cannot be zero" and 2.5 a TypeError
    with pytest.raises(ValueError, match="frame_stride"):
        sim.collect_dataset(sim.straight_obstacle_scenario(), episodes=1, seed=3,
                            frame_stride=stride)


@pytest.mark.parametrize("episodes", [True, 2.5, 0])
def test_collect_dataset_episodes_must_be_an_int_of_at_least_1(episodes):
    # True once collected one episode and 2.5 raised a TypeError from range
    with pytest.raises(ValueError, match="episodes must be an integer >= 1"):
        sim.collect_dataset(sim.straight_obstacle_scenario(), episodes, 0, 50)


@pytest.mark.parametrize("kind", ["straight_obstacle", "roundabout_first_exit"])
@pytest.mark.parametrize("stride", [1, 2, 3, 16])
def test_collect_dataset_matches_every_frame_collection(kind, stride):
    # rendering only the kept frames leaves every byte as it was
    scn = sim.scenario_by_name(kind)
    got = sim.collect_dataset(scn, episodes=2, seed=4, frame_stride=stride)
    want = collect_dataset_reference(scn, 2, 4, stride)
    for name in ("images", "labels", "steerings"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert (got.scenario, got.seed) == (want.scenario, want.seed)
