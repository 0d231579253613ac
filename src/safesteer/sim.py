"""Deterministic, seedable 2D driving world: kinematic bicycle dynamics,
scenario maps, a rasterizing forward camera, weather corruption, safe-set
membership, a pure-pursuit autopilot, and the monitored episode loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import _check_count
from .datasets import ImageDataset
from .geometry import Path, PathBuilder, Rect, rects_overlap, wrap_angle
from .nn import IMAGE_SHAPE
from .uncertainty import STEERING_HI, STEERING_LO, ConfidenceReport, steering_to_class

# Vehicle parameters (ordinary passenger-car figures)
WHEELBASE = 2.7        # m
DELTA_MAX = 0.5236     # rad, max road-wheel angle at steering = +/-1
LOOKAHEAD = 6.0        # m, autopilot pure-pursuit lookahead along its route
A_MAX = 4.0            # m/s^2 accel/brake limit
CAR_LENGTH = 4.0       # m, footprint
CAR_WIDTH = 1.8        # m

# Camera model (front bumper, pitched down at the road)
CAMERA_FORWARD = 2.0   # m ahead of the vehicle center
CAMERA_HEIGHT = 1.2    # m
CAMERA_PITCH = 0.35    # rad below horizontal
FOCAL_PX = 32.0
IMG_H, IMG_W = IMAGE_SHAPE[:2]
VIEW_RANGE = 80.0      # m, ground beyond this renders as horizon

# Rendered intensities: road out to the corridor edge with a light marking
# band along the inside of each boundary, dark off-road beyond.
ROAD, MARKING, OFFROAD, OBSTACLE_COLOR, SKY = 120, 220, 40, 10, 200
MARK_BAND = 0.3        # m of light edge band inside each corridor boundary

# Droplet speckle geometry (semi-axes in pixels) and brightness
DROPLET_RADIUS = (2.5, 5.5)
DROPLET_BRIGHTNESS = (200.0, 255.0)


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    heading: float  # rad, wrapped to (-pi, pi]
    speed: float    # m/s, >= 0


def step(state: VehicleState, steering: float, speed_cmd: float,
         dt: float) -> VehicleState:
    """Kinematic bicycle step: position advances with the current speed,
    then speed moves toward speed_cmd under the acceleration limit."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    delta = min(max(steering, STEERING_LO), STEERING_HI) * DELTA_MAX
    v = state.speed
    x = state.x + v * math.cos(state.heading) * dt
    y = state.y + v * math.sin(state.heading) * dt
    heading = wrap_angle(state.heading + (v / WHEELBASE) * math.tan(delta) * dt)
    dv = min(max(speed_cmd - v, -A_MAX * dt), A_MAX * dt)
    return VehicleState(x, y, heading, max(v + dv, 0.0))


@dataclass(frozen=True)
class Obstacle:
    x: float
    y: float
    heading: float = 0.0
    length: float = 4.0
    width: float = 1.8
    height: float = 1.5

    def rect(self) -> Rect:
        return Rect(self.x, self.y, self.heading, self.length, self.width)


@dataclass(frozen=True)
class Disturbances:
    lateral_jitter_std: float = 0.3   # m, initial offset from the start pose
    steering_noise_std: float = 0.02  # per-step actuation noise


@dataclass(frozen=True)
class WeatherModel:
    brightness_offset: float = 0.0
    contrast_gain: float = 1.0
    noise_sigma: float = 0.0
    droplet_rate: float = 0.0  # expected droplets per frame


WEATHER_PRESETS: dict[str, WeatherModel] = {
    "clear": WeatherModel(),
    "cloudy": WeatherModel(brightness_offset=-25.0, contrast_gain=0.9),
    "wet": WeatherModel(brightness_offset=10.0, contrast_gain=1.1, droplet_rate=4.0),
    "rain": WeatherModel(brightness_offset=-10.0, contrast_gain=0.85,
                         noise_sigma=12.0, droplet_rate=20.0),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """The centerline gives the start pose, the rendered road and the safe
    corridor. The optional route is what the scripted autopilot tracks
    (e.g. the swerve around an in-lane obstacle); it defaults to the
    centerline."""

    kind: str
    centerline: Path
    corridor_half_width: float = 1.5
    obstacle: Obstacle | None = None
    route: Path | None = None
    nominal_speed: float = 8.0
    horizon: int = 300
    dt: float = 0.05
    weather: str = "clear"
    disturbances: Disturbances = Disturbances()

    def __post_init__(self):
        if self.corridor_half_width <= 0 or self.dt <= 0 or self.horizon < 1:
            raise ValueError("bad scenario parameters")
        if self.weather not in WEATHER_PRESETS:
            raise ValueError(f"unknown weather {self.weather!r}")

    @property
    def autopilot_route(self) -> Path:
        return self.route if self.route is not None else self.centerline


# Straight-obstacle geometry: a stalled vehicle protrudes into the lane with
# 40 m of clear gap from the start pose's front bumper (zero steering at
# nominal speed first touches it at t = 5.0 s). The autopilot route swerves
# left around it: a tight exit arc (so the swerve command sits a few steering
# bins from straight-ahead), a long stabilizing hold at the offset, and a
# gentle return.
_SWERVE_OFFSET = 1.0
_SWERVE_RADIUS_OUT = 8.0
_SWERVE_RADIUS_BACK = 25.0
_SWERVE_START = 30.0
_OBSTACLE_GAP = 40.0
_ROAD_LENGTH = 130.0


def straight_obstacle_scenario(weather: str = "clear",
                               disturbances: Disturbances = Disturbances(),
                               ) -> ScenarioConfig:
    """Straight road with a stalled vehicle blocking part of the lane; the
    safe corridor follows the straight centerline and the data-collection
    route lane-changes around the obstacle."""
    centerline = PathBuilder(0.0, 0.0, 0.0).line(_ROAD_LENGTH).build()
    a_out = math.acos(1.0 - _SWERVE_OFFSET / (2.0 * _SWERVE_RADIUS_OUT))
    a_back = math.acos(1.0 - _SWERVE_OFFSET / (2.0 * _SWERVE_RADIUS_BACK))
    out_len = 2.0 * _SWERVE_RADIUS_OUT * math.sin(a_out)
    back_len = 2.0 * _SWERVE_RADIUS_BACK * math.sin(a_back)
    face = CAR_LENGTH / 2.0 + _OBSTACLE_GAP
    hold = (face + 4.0 + 4.0) - (_SWERVE_START + out_len)  # past the far side
    route = (PathBuilder(0.0, 0.0, 0.0)
             .line(_SWERVE_START)
             .arc(_SWERVE_RADIUS_OUT, a_out).arc(_SWERVE_RADIUS_OUT, -a_out)
             .line(hold)
             .arc(_SWERVE_RADIUS_BACK, -a_back).arc(_SWERVE_RADIUS_BACK, a_back)
             .line(_ROAD_LENGTH - (_SWERVE_START + out_len + hold + back_len))
             .build())
    obstacle = Obstacle(x=face + 2.0, y=-1.5)
    return ScenarioConfig("straight_obstacle", centerline, obstacle=obstacle,
                          route=route, weather=weather, disturbances=disturbances)


def roundabout_scenario(weather: str = "clear",
                        disturbances: Disturbances = Disturbances(),
                        ) -> ScenarioConfig:
    """Short approach, a quarter of an 18 m roundabout, first exit."""
    path = (PathBuilder(0.0, 0.0, 0.0)
            .line(10.0)
            .arc(18.0, math.pi / 2.0)
            .line(20.0)
            .build())
    return ScenarioConfig("roundabout_first_exit", path, horizon=140,
                          weather=weather, disturbances=disturbances)


_SCENARIOS = {"straight_obstacle": straight_obstacle_scenario,
              "roundabout_first_exit": roundabout_scenario}
SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario_by_name(kind: str, weather: str = "clear",
                     disturbances: Disturbances = Disturbances()) -> ScenarioConfig:
    """The scenario named `kind`, one of SCENARIO_NAMES."""
    if kind not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {kind!r}")
    return _SCENARIOS[kind](weather, disturbances)


def _pixel_rays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel ray directions in the vehicle frame (x forward, y left,
    z up), row-major over the image."""
    u = np.arange(IMG_W) - (IMG_W - 1) / 2.0
    v = np.arange(IMG_H) - (IMG_H - 1) / 2.0
    uu, vv = np.meshgrid(u / FOCAL_PX, v / FOCAL_PX)
    ca, sa = math.cos(CAMERA_PITCH), math.sin(CAMERA_PITCH)
    dx = ca - vv * sa
    dy = -uu
    dz = -sa - vv * ca
    return dx.ravel(), dy.ravel(), dz.ravel()


_RAY_X, _RAY_Y, _RAY_Z = _pixel_rays()

# Pose-invariant ray tables. Turning the car about z rotates only each ray's
# x/y components, so whether a ray meets the ground, the ray parameter
# t_ground at which it does, and its horizontal reach t_ground * |(x, y)|
# (inf for rays at or above the horizon) do not depend on the pose.
_GROUND_IDX = np.flatnonzero(_RAY_Z < -1e-12)
_T_GROUND = np.full(_RAY_Z.shape, np.inf)
_T_GROUND[_GROUND_IDX] = -CAMERA_HEIGHT / _RAY_Z[_GROUND_IDX]
_REACH = _T_GROUND * np.hypot(_RAY_X, _RAY_Y)
# The ground rays that land within VIEW_RANGE. Per pose the test reads the
# rotated offsets, whose rounding moves a reach by far less than a metre,
# and no ground ray's reach lies within 30 m of VIEW_RANGE.
_VIS_IDX = _GROUND_IDX[_REACH[_GROUND_IDX] <= VIEW_RANGE]
_VIS_X, _VIS_Y, _VIS_T = _RAY_X[_VIS_IDX], _RAY_Y[_VIS_IDX], _T_GROUND[_VIS_IDX]
# The obstacle pass's rays in one order: ground rays by reach, nearest
# first; rays with |z| <= 1e-12, tested on every frame; sky rays by
# |(x, y)| / z, largest first. An upward ray stays below a box of height
# h > CAMERA_HEIGHT only within (h - CAMERA_HEIGHT) * |(x, y)| / z of the
# camera, so a frame tests one contiguous run of this order.
_SKY_IDX = np.flatnonzero(_RAY_Z > 1e-12)
_SKY_SLOPE = np.hypot(_RAY_X[_SKY_IDX], _RAY_Y[_SKY_IDX]) / _RAY_Z[_SKY_IDX]
_CULL_IDX = np.concatenate((
    _GROUND_IDX[np.argsort(_REACH[_GROUND_IDX], kind="stable")],
    np.flatnonzero(np.abs(_RAY_Z) <= 1e-12),
    _SKY_IDX[np.argsort(-_SKY_SLOPE, kind="stable")]))
_CULL_REACH = np.sort(_REACH[_GROUND_IDX])   # ascending, for searchsorted
_NEG_SKY_SLOPE = np.sort(-_SKY_SLOPE)        # ascending, for searchsorted
_SKY_START = _RAY_Z.size - _SKY_IDX.size
_CULL_X, _CULL_Y, _CULL_Z, _CULL_T = (
    a[_CULL_IDX] for a in (_RAY_X, _RAY_Y, _RAY_Z, _T_GROUND))


def render(state: VehicleState, scenario: ScenarioConfig) -> np.ndarray:
    """Rasterize the forward view: pinhole ground-plane projection of the
    corridor plus the obstacle as an upright box. Returns (48, 64) uint8.

    The visible ground rays, t_ground and the obstacle pass's ray order are
    module tables (pose-invariant, see above); per frame only the rays in
    use are rotated. The slab test runs on a ground ray only if its reach
    is at least the camera's distance to the obstacle footprint, and on a
    sky ray only if its reach below the box top is. That prune is exact: a
    hit needs its entry point inside the footprint, nearer than t_ground
    and no higher than the box, so the hit lies within the ray's reach and
    no nearer than the footprint. A margin far above rounding keeps the
    boundary rays in."""
    c, s = math.cos(state.heading), math.sin(state.heading)
    cam_x = state.x + CAMERA_FORWARD * c
    cam_y = state.y + CAMERA_FORWARD * s
    img = np.full(IMG_H * IMG_W, SKY, dtype=np.uint8)

    gx = cam_x + _VIS_T * (c * _VIS_X - s * _VIS_Y)
    gy = cam_y + _VIS_T * (s * _VIS_X + c * _VIS_Y)
    d2 = scenario.centerline.distance_sq_many(gx, gy)
    hw = scenario.corridor_half_width
    img[_VIS_IDX] = np.where(d2 <= (hw - MARK_BAND) ** 2, ROAD,
                             np.where(d2 <= hw * hw, MARKING, OFFROAD))

    obs = scenario.obstacle
    if obs is not None:
        co, so = math.cos(obs.heading), math.sin(obs.heading)
        # camera in the obstacle frame (origin at footprint center, z up)
        ox = co * (cam_x - obs.x) + so * (cam_y - obs.y)
        oy = -so * (cam_x - obs.x) + co * (cam_y - obs.y)
        half_l, half_w = obs.length / 2.0, obs.width / 2.0
        dmin = math.hypot(max(abs(ox) - half_l, 0.0), max(abs(oy) - half_w, 0.0))
        cut = dmin - 1e-6 * (1.0 + dmin)
        lo = int(np.searchsorted(_CULL_REACH, cut))
        hi = _SKY_START
        rise = obs.height - CAMERA_HEIGHT
        if rise > 0.0:
            hi += int(np.searchsorted(_NEG_SKY_SLOPE, -cut / rise, side="right"))
        ray_x, ray_y = _CULL_X[lo:hi], _CULL_Y[lo:hi]
        dxw = c * ray_x - s * ray_y
        dyw = s * ray_x + c * ray_y
        # one row per slab: obstacle-frame x, y and world z
        d = np.empty((3, hi - lo))
        d[0] = co * dxw + so * dyw
        d[1] = -so * dxw + co * dyw
        d[2] = _CULL_Z[lo:hi]
        parallel = np.abs(d) < 1e-12
        edge_on = bool(parallel.any())
        if edge_on:
            d = np.where(parallel, 1.0, d)
        # each slab's two faces, as ray parameters
        t1 = np.array([[-half_l - ox], [-half_w - oy], [0.0 - CAMERA_HEIGHT]]) / d
        t2 = np.array([[half_l - ox], [half_w - oy], [obs.height - CAMERA_HEIGHT]]) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        if edge_on:
            # a ray parallel to a slab is inside it for all t or for none
            inside = np.array([[-half_l <= ox <= half_l], [-half_w <= oy <= half_w],
                               [0.0 <= CAMERA_HEIGHT <= obs.height]])
            near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
            far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        # the entry parameter max(near, 0) counts only above 1e-9, where it
        # is the largest near face
        tmin = near.max(axis=0)
        hit = (far.min(axis=0) >= tmin) & (tmin > 1e-9) & (tmin < _CULL_T[lo:hi])
        img[_CULL_IDX[lo:hi][hit]] = OBSTACLE_COLOR

    return img.reshape(IMG_H, IMG_W)


# Droplet window offsets around floor(center). With r = floor of the largest
# semi-axis, a pixel that passes the ellipse test lies within these 2r + 2
# offsets on each axis, and every pixel outside them is at least r + 1 (more
# than the largest semi-axis) from the center, so the test fails there by a
# wide margin. Windows are painted on a canvas padded by the window size on
# every side, so that cells off the image land in the padding.
_DROP_OFFSETS = np.arange(-int(DROPLET_RADIUS[1]), int(DROPLET_RADIUS[1]) + 2)
_DROP_PAD = _DROP_OFFSETS.size


def apply_weather(img: np.ndarray, weather: WeatherModel,
                  rng: np.random.Generator) -> np.ndarray:
    """Contrast/brightness shift, additive Gaussian noise, and bright
    droplet speckles; output clamped to [0, 255]. Each droplet's ellipse
    test runs on its own square window of pixels (see _DROP_OFFSETS)
    instead of the whole frame. The windows are max-scattered onto a
    padded canvas (exact in any order) whose image part then caps the
    frame from below, as the full-frame test did; the draws are the same.
    A uint8 frame under a weather that changes nothing and draws nothing
    comes back as a copy."""
    if (img.dtype == np.uint8 and weather.contrast_gain == 1.0
            and weather.brightness_offset == 0.0
            and not weather.noise_sigma > 0 and not weather.droplet_rate > 0):
        return img.copy()
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
            x = np.floor(cx) + _DROP_OFFSETS            # (D, 1, win)
            y = np.floor(cy) + _DROP_OFFSETS[:, None]   # (D, win, 1)
            inside = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 <= 1.0
            wp = w + 2 * _DROP_PAD
            canvas = np.full((h + 2 * _DROP_PAD, wp), -np.inf)
            cell = ((y + _DROP_PAD) * wp + (x + _DROP_PAD)).astype(np.intp)
            np.maximum.at(canvas.reshape(-1), cell.ravel(),
                          np.where(inside, val, -np.inf).ravel())
            np.maximum(out, canvas[_DROP_PAD:_DROP_PAD + h, _DROP_PAD:_DROP_PAD + w],
                       out=out)
    np.rint(out, out=out)
    return np.clip(out, 0.0, 255.0, out=out).astype(np.uint8)


def car_rect(state: VehicleState) -> Rect:
    return Rect(state.x, state.y, state.heading, CAR_LENGTH, CAR_WIDTH)


def hits_obstacle(state: VehicleState, scenario: ScenarioConfig) -> bool:
    """Footprint overlap with the obstacle. Each rectangle lies inside the
    circle through its corners, so centres farther apart than the two
    half-diagonals (plus a margin far above rounding) cannot overlap, and
    the separating-axis test runs only on nearer pairs."""
    obs = scenario.obstacle
    if obs is None:
        return False
    reach = 0.5 * (math.hypot(CAR_LENGTH, CAR_WIDTH) + math.hypot(obs.length, obs.width)) + 1e-6
    dx, dy = state.x - obs.x, state.y - obs.y
    if dx * dx + dy * dy > reach * reach:
        return False
    return rects_overlap(car_rect(state), obs.rect())


def is_safe(state: VehicleState, scenario: ScenarioConfig) -> bool:
    """Inside the lateral corridor and clear of the obstacle."""
    dist, _, _ = scenario.centerline.project(state.x, state.y)
    if dist > scenario.corridor_half_width:
        return False
    return not hits_obstacle(state, scenario)


def autopilot_steering(state: VehicleState, scenario: ScenarioConfig) -> float:
    """Pure pursuit on the ground-truth autopilot route; clamped to [-1, 1]."""
    route = scenario.autopilot_route
    _, s_here, _ = route.project(state.x, state.y)
    tx, ty = route.point_at(s_here + LOOKAHEAD)
    dx, dy = tx - state.x, ty - state.y
    c, h = math.cos(state.heading), math.sin(state.heading)
    fwd = c * dx + h * dy
    left = -h * dx + c * dy
    ld = max(math.hypot(fwd, left), 1e-9)
    alpha = math.atan2(left, fwd)
    delta = math.atan2(2.0 * WHEELBASE * math.sin(alpha), ld)
    return min(max(delta / DELTA_MAX, STEERING_LO), STEERING_HI)


@dataclass(frozen=True)
class AutopilotController:
    """Scripted data-collection autopilot. It reads the true state, not the
    camera, so `run_episode` renders no frame for it and passes None;
    `collect_dataset` renders the frames it keeps."""

    observes = False  # a controller without this attribute reads the camera

    def act(self, obs, state, scenario, rng):
        return autopilot_steering(state, scenario), None


# Warning tiers that brake and hand over once the operator is alerted: W0
# (confident but high mutual information, the sign of an unfamiliar input)
# and W2 (confidence below delta2).
HANDOVER_TIERS = ("W0", "W2")


@dataclass(frozen=True)
class MonitorPolicy:
    """Maps warnings to actions. The first warning of an episode alerts the
    operator and slows the car to slow_factor of nominal, whatever its tier,
    so one noisy confidence estimate cannot stop the car; it stays slow from
    then on. Once alerted, a W0 or W2 warning (HANDOVER_TIERS) latches a
    braking stop and hands control over; a W1 warning lets it drive on.
    Slowing alone cannot keep a car on the road once its steering has gone
    wrong: path curvature per metre does not depend on speed."""

    slow_factor: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.slow_factor <= 1.0:
            raise ValueError("slow_factor must be in [0, 1]")


@dataclass(frozen=True)
class StepRecord:
    step: int
    state: VehicleState
    steering: float
    speed_cmd: float
    report: ConfidenceReport | None
    warning: str | None


OUTCOMES = ("completed", "collided", "out_of_bounds", "handover", "error")
# No violation in the whole run (a handover stop before any violation is safe)
SAFE_OUTCOMES = ("completed", "handover")


@dataclass(frozen=True)
class EpisodePath:
    records: tuple[StepRecord, ...]
    outcome: str
    seed: object
    # why an "error" outcome ended the episode: "<type>: <message>" of the
    # controller's exception, "non-finite steering: <value>" for a NaN or
    # infinite command, or "unsafe start pose: ..." when none of the
    # START_DRAWS jittered starts was inside the safe set
    error: str | None = None

    @property
    def safe(self) -> bool:
        return self.outcome in SAFE_OUTCOMES


# Lateral start offsets drawn per episode before an unsafe start is an error
START_DRAWS = 8


def run_episode(scenario: ScenarioConfig, controller, monitor: MonitorPolicy | None = None,
                seed=0) -> EpisodePath:
    """Drive one monitored or unmonitored episode. Deterministic given
    (scenario, controller, seed): disturbances, weather and controller
    sampling each own a child stream of the seed. A step renders and
    weathers a frame only for a controller that reads the camera; one whose
    `observes` attribute is False reads only the true state and is passed
    None. An unsafe start is an "error" outcome, not a violation."""
    observes = getattr(controller, "observes", True)
    ss = np.random.SeedSequence(seed)
    rng_init, rng_weather, rng_ctrl, rng_noise = map(np.random.default_rng, ss.spawn(4))
    weather = WEATHER_PRESETS[scenario.weather]

    (x0, y0), h0 = scenario.centerline.point_at(0.0), scenario.centerline.heading_at(0.0)
    records: list[StepRecord] = []
    outcome, error = "completed", None
    braking = alerted = False
    # Redrawn until safe, the start offset is the normal conditioned on a safe
    # start; a scenario with no safe start within START_DRAWS draws still
    # ends in "error".
    for _ in range(START_DRAWS):
        jitter = rng_init.normal(0.0, scenario.disturbances.lateral_jitter_std)
        state = VehicleState(x0 - jitter * math.sin(h0), y0 + jitter * math.cos(h0),
                             h0, scenario.nominal_speed)
        if is_safe(state, scenario):
            break
    else:
        error = f"unsafe start pose: x={state.x!r} y={state.y!r} heading={state.heading!r}"
    for k in range(scenario.horizon + 1 if error is None else 0):
        # Rebind obs only once the new frame exists: freeing the old one first
        # can shift glibc's heap enough to add tens of page faults per step.
        if observes:
            obs = apply_weather(render(state, scenario), weather, rng_weather)
        else:
            obs = None
        try:
            steering, report = controller.act(obs, state, scenario, rng_ctrl)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            break
        if not math.isfinite(steering):  # a NaN pose would pass every safety test
            error = f"non-finite steering: {float(steering)!r}"
            break
        warning = report.warning if report is not None else None
        if monitor is not None:
            if report is None:
                raise ValueError("monitored episodes need a confidence-reporting controller")
            if alerted and warning in HANDOVER_TIERS:
                braking = True
            if braking:
                speed_cmd = 0.0
            elif warning is not None or alerted:
                speed_cmd = monitor.slow_factor * scenario.nominal_speed
            else:
                speed_cmd = scenario.nominal_speed
            alerted = alerted or warning is not None
        else:
            speed_cmd = scenario.nominal_speed
        records.append(StepRecord(k, state, steering, speed_cmd, report, warning))
        # the controller keeps steering while the braking stop completes
        applied = steering + rng_noise.normal(0.0, scenario.disturbances.steering_noise_std)
        state = step(state, applied, speed_cmd, scenario.dt)
        if not is_safe(state, scenario):
            outcome = "collided" if hits_obstacle(state, scenario) else "out_of_bounds"
            break
        if braking and state.speed <= 1e-12:
            outcome = "handover"
            break
        if scenario.centerline.project(state.x, state.y)[1] >= scenario.centerline.length - 1.0:
            break
    if error is not None:
        records.append(StepRecord(len(records), state, 0.0, 0.0, None, None))
        outcome = "error"
    return EpisodePath(tuple(records), outcome, seed, error)


def collect_dataset(scenario: ScenarioConfig, episodes: int, seed: int = 0,
                    frame_stride: int = 1) -> ImageDataset:
    """Autopilot episodes with jittered starts, keeping the frame of every
    frame_stride-th step; labels are the binned autopilot commands. Each
    kept frame is rendered here from its record's pose, in clear weather
    whatever the scenario's, which draws nothing. Unsafe generating
    episodes are a bug and abort collection."""
    _check_count("episodes", episodes, 1)
    _check_count("frame_stride", frame_stride, 1)
    pilot = AutopilotController()
    rng = np.random.default_rng(0)
    images: list[np.ndarray] = []
    labels: list[int] = []
    steerings: list[float] = []
    for ep in range(episodes):
        path = run_episode(scenario, pilot, None, seed=[seed, ep])
        if not path.safe:
            raise RuntimeError(f"autopilot episode {ep} was unsafe ({path.outcome})")
        for rec in path.records[::frame_stride]:
            images.append(apply_weather(render(rec.state, scenario),
                                        WEATHER_PRESETS["clear"], rng))
            labels.append(steering_to_class(rec.steering))
            steerings.append(rec.steering)
    return ImageDataset(np.stack(images), np.asarray(labels, dtype=np.int64),
                        scenario.kind, seed, np.asarray(steerings))
