"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned. Inputs come from the workload seed; the
trained models come from fixed seeds (see models.py).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import models
from tracing import EpisodeLog, PoolCounter, Tracer, percentile, seed_of

from safesteer import bayes, controllers, geometry, io, nn, sim, statcheck, uncertainty
from safesteer.datasets import ImageDataset, image_to_input

# Certification cells are reduced so that a run holds several of them (the
# paper's cells use theta = gamma = 0.05, n = 738). The output check replays
# REPLAY_EPISODES episodes of cell 0; a traced pool run replays whole cells
# until TAIL_SAMPLES steps, so each per-step p99 has 10 samples beyond it.
REPLAY_EPISODES = 3
TAIL_SAMPLES = 1000

# train-posteriors: one round is one MCD epoch, VI_ITERATIONS VI
# iterations and HMC_TRANSITIONS HMC transitions, each about a second on
# the machine described in README.md.
TRAIN_EPISODES = 4
TRAIN_STRIDE = 2
VI_ITERATIONS = 300
HMC_TRANSITIONS = 30

LAYER_BATCHES = (1, 16)
LAYER_REPEATS = {1: 100, 16: 30}

SPEC_CACHE_HELPERS = ("layer_shapes", "_param_slices", "param_count", "dropout_layout",
                      "feature_boundary", "head_spec", "head_slice")


@dataclass(frozen=True)
class CertifyWorkload:
    weather: str
    model_file: str
    jobs: int
    setup_repeats: int
    theta: float
    gamma: float


@dataclass(frozen=True)
class TrainWorkload:
    setup_repeats: int = 3


WORKLOADS = {
    # n = 8 episodes per cell
    "certify-rain-mcd": CertifyWorkload("rain", "mcd.json", jobs=1, setup_repeats=15,
                                        theta=0.3, gamma=0.5),
    # n = 4: the pool cells are the noisiest, so a run holds more of them
    "certify-clear-hmc-pool": CertifyWorkload("clear", "hmc.json", jobs=2, setup_repeats=3,
                                              theta=0.45, gamma=0.5),
    "train-posteriors": TrainWorkload(),
}


class Metrics:
    def __init__(self):
        self.values: dict[str, dict] = {}

    def put(self, name: str, value, unit: str) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = {"value": value, "unit": unit}


@dataclass
class Outcome:
    """Operations attempted and the keys of those that failed."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def fail(self, key, why: str) -> None:
        self.failed.add(key)
        self.notes.append(why)


def env_record() -> dict:
    import multiprocessing

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned environment value."""
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def peak_rss_mb(records) -> float:
    """Highest peak resident set of this process and of the processes the
    episode records came from (pool workers)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb = max([kb] + [r["maxrss_kb"] for r in records])
    return kb / 1024.0


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# Tracing: which public functions get spans, and the per-layer metrics

def _forward_kind(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    stop = kwargs.get("stop_after", args[4] if len(args) > 4 else None)
    if stop is not None or spec.layers[0].kind == "conv":
        return "nn.forward_batch.extractor"
    return "nn.forward_batch.head"


def install_spans(tracer: Tracer, log: EpisodeLog) -> None:
    for mod, prefix, names in (
            (sim, "sim", ("render", "apply_weather", "step", "is_safe", "collect_dataset")),
            (nn, "nn", ("nll_and_grad_batch", "adam_step", "sample_dropout_mask")),
            (bayes, "bayes", ("extract_features", "extract_features_batch", "sample_weights",
                              "potential_energy", "train_mcd", "train_vi", "train_hmc")),
            (uncertainty, "uncertainty", ("predictive", "decide", "confidence_report")),
            (statcheck, "statcheck", ("estimate_probabilistic_safety",)),
            (io, "io", ("load_model",))):
        for name in names:
            tracer.wrap(mod, name, f"{prefix}.{name}")
    tracer.wrap(sim, "run_episode", "sim.run_episode",
                episode_key=lambda a, k: seed_of(log.signature, a, k))
    tracer.wrap(nn, "forward_batch", namer=_forward_kind)
    tracer.wrap(geometry.Path, "project", "geometry.project")
    tracer.wrap(geometry.Path, "distance_sq_many", "geometry.distance_sq_many")
    tracer.wrap(controllers.BnnController, "act", "controllers.act")


class CallCounter:
    """Counts calls of the lru-cached NetworkSpec helpers in nn; each call
    hashes its NetworkSpec argument. Keeps the last arguments seen so the
    cost of one cached lookup can be timed."""

    def __init__(self, tracer: Tracer):
        self.calls: Counter = Counter()
        self.last_args: dict[str, tuple] = {}
        self.active = False
        for name in SPEC_CACHE_HELPERS:
            original = getattr(nn, name, None)
            if original is not None:
                tracer.patch(nn, name, self._counting(name, original))

    def _counting(self, name, original):
        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
                self.last_args[name] = (args, kwargs)
            return original(*args, **kwargs)
        counted.original = original
        return counted

    def lookup_us(self) -> dict[str, float]:
        """Median microseconds of one cached call, per helper seen."""
        out = {}
        for name, (args, kwargs) in self.last_args.items():
            fn = getattr(nn, name).original
            reps = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(200):
                    fn(*args, **kwargs)
                reps.append((time.perf_counter() - t0) / 200 * 1e6)
            out[name] = statistics.median(reps)
        return out


def layer_table(metrics: Metrics, spec: nn.NetworkSpec, weights: np.ndarray,
                frames: np.ndarray) -> None:
    """Per-layer forward cost at batch 1 and 16 on fixed frames, as the
    difference between the fastest forward_batch(stop_after=i) and the
    fastest forward_batch(stop_after=i-1) over the repeats (the fastest
    repeat is the one least disturbed by the machine). Layer 0 also
    carries the call's fixed overhead; layers costing less than the timer's
    noise (relu, flatten) can read slightly negative."""
    for batch in LAYER_BATCHES:
        x = np.stack([image_to_input(f) for f in frames[:batch]])
        best = np.full(len(spec.layers), np.inf)
        for _ in range(LAYER_REPEATS[batch]):
            for i in range(len(spec.layers)):
                t0 = time.perf_counter()
                nn.forward_batch(spec, weights, x, stop_after=i)
                best[i] = min(best[i], time.perf_counter() - t0)
        prev = 0.0
        for i, layer in enumerate(spec.layers):
            metrics.put(f"nn.layer.{i}.{layer.kind}.us.b{batch}", (best[i] - prev) * 1e6, "us")
            prev = best[i]


TIMINGS = (
    ("sim.apply_weather", "ms", (50, 99)), ("sim.render", "ms", (50,)),
    ("sim.step", "us", (50,)), ("sim.is_safe", "us", (50,)),
    ("geometry.distance_sq_many", "ms", (50,)), ("geometry.project", "us", (50,)),
    ("nn.forward_batch.extractor", "ms", (50,)), ("nn.forward_batch.head", "ms", (50,)),
    ("nn.nll_and_grad_batch", "ms", (50,)), ("nn.adam_step", "us", (50,)),
    ("nn.sample_dropout_mask", "us", (50,)), ("bayes.extract_features", "ms", (50,)),
    ("bayes.sample_weights", "ms", (50,)), ("bayes.potential_energy", "ms", (50,)),
    ("uncertainty.predictive", "ms", (50, 99)), ("uncertainty.decide", "us", (50,)),
    ("uncertainty.confidence_report", "us", (50,)), ("controllers.act", "ms", (50, 99)),
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
PROBE_CALLS = 1000


def timing_metrics(metrics: Metrics, tracer: Tracer, start: int = 0) -> None:
    """Percentiles of every timed span name recorded since span `start`,
    for the metrics that have no value yet."""
    dur: dict[str, list[float]] = {}
    for i in range(start, len(tracer)):
        dur.setdefault(tracer.names[i], []).append(tracer.ends[i] - tracer.starts[i])
    for name, unit, qs in TIMINGS:
        for q in qs:
            key = f"{name}.{unit}.p{q}"
            if name in dur and key not in metrics.values:
                metrics.put(key, percentile(dur[name], q) * SCALE[unit], unit)
    print("trace samples " + json.dumps({n: len(v) for n, v in sorted(dur.items())}))


def episode_metrics(metrics: Metrics, tracer: Tracer, steps: int) -> None:
    """Shares of episode time and per-step counts over the traced episodes."""
    names = np.asarray(tracer.names)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    episode = names == "sim.run_episode"
    total = dur[episode].sum()
    metrics.put("sim.apply_weather.step_share",
                dur[names == "sim.apply_weather"].sum() / total if total else 0.0, "ratio")
    metrics.put("sim.run_episode.self_share",
                tracer.self_times()[episode].sum() / total if total else 0.0, "ratio")
    metrics.put("sim.steps", steps, "count")
    metrics.put("geometry.project.calls_per_step",
                np.count_nonzero(names == "geometry.project") / steps if steps else 0.0,
                "1/step")


def put_train_rates(metrics: Metrics, rounds: list, units: dict) -> None:
    for key, metric, unit in (("mcd", "bayes.train_mcd.s_per_epoch", "s"),
                              ("vi", "bayes.train_vi.ms_per_iteration", "ms"),
                              ("hmc", "bayes.train_hmc.ms_per_transition", "ms")):
        per_unit = [rnd.seconds[key] / units[key] * SCALE[unit] for rnd in rounds]
        metrics.put(metric, statistics.median(per_unit), unit)


def probe_layers(metrics: Metrics, tracer: Tracer, mcd, frames: np.ndarray,
                 seed: int) -> None:
    """Time, on fixed frames, the layer functions the workload itself never
    calls (the certify workloads train nothing, train-posteriors runs no
    controller, the HMC path draws no dropout masks), so every traced run
    measures every layer. These readings describe the layer, not the
    workload."""
    missing = {name for name, _, _ in TIMINGS} - set(tracer.names)
    mark = len(tracer)
    rng = np.random.default_rng([seed, 13])
    labels = np.arange(len(frames)) % mcd.spec.num_classes
    head = nn.head_spec(mcd.spec)
    hw = bayes.head_weights(mcd)
    fds = bayes.FeatureDataset(bayes.extract_features_batch(mcd, frames), labels)
    tracer.enabled = True
    if missing & {"controllers.act", "uncertainty.predictive", "bayes.extract_features",
                  "nn.forward_batch.head"}:
        ctl = controllers.BnnController(mcd, mcd)
        for i in range(PROBE_CALLS):
            ctl.act(frames[i % len(frames)], None, None, rng)
    if "nn.sample_dropout_mask" in missing:
        for _ in range(PROBE_CALLS // 10):
            nn.sample_dropout_mask(head, rng, batch=32)
    if "bayes.sample_weights" in missing:
        for _ in range(PROBE_CALLS // 10):
            bayes.sample_weights(mcd, 32, rng)
    if missing & {"nn.nll_and_grad_batch", "nn.adam_step", "bayes.potential_energy"}:
        adam = nn.AdamState.fresh(hw.size)
        for _ in range(PROBE_CALLS // 10):
            _, grad = bayes.potential_energy(hw, fds, head, bayes.Prior(1.0))
            nn.adam_step(adam, hw, grad)
    tracer.enabled = False
    timing_metrics(metrics, tracer, mark)
    if "bayes.train_mcd.s_per_epoch" not in metrics.values:
        units = {"mcd": 1, "vi": 20, "hmc": 5}
        ds = ImageDataset(np.asarray(frames, dtype=np.uint8), labels)
        put_train_rates(metrics, [train_round(ds, mcd, fds, seed, 0, units)], units)


def spec_cache_metrics(metrics: Metrics, counter: CallCounter, units: int,
                       traced_s: float) -> None:
    """Lookups per work unit (simulated step, or training round), the mean
    cost of one lookup, and the share of the counted stretch they take."""
    costs = counter.lookup_us()
    lookups = sum(counter.calls.values())
    spent_s = sum(counter.calls[n] * costs.get(n, 0.0) for n in counter.calls) * 1e-6
    metrics.put("nn.spec_cache.lookups_per_unit", lookups / units if units else 0.0, "1/unit")
    metrics.put("nn.spec_cache.lookup.us",
                spent_s * 1e6 / lookups if lookups else 0.0, "us")
    metrics.put("nn.spec_cache.time_share", spent_s / traced_s if traced_s else 0.0, "ratio")


ZERO_METRICS = {
    # counts of layers a workload does not exercise read 0
    "statcheck.pool.bytes_sent": "bytes", "statcheck.pool.chunks": "count",
    "statcheck.pool.bytes_per_chunk": "bytes", "statcheck.pool.cpu_utilization": "ratio",
    "nn.nll_and_grad_batch.calls": "count", "bayes.grad_evals_per_hmc_transition": "count",
    "bayes.grad_evals_per_vi_iteration": "count",
}


def fill_zeros(metrics: Metrics) -> None:
    for name, unit in ZERO_METRICS.items():
        if name not in metrics.values:
            metrics.put(name, 0.0, unit)


@contextmanager
def harness():
    """The cached models, plus the tracer and episode log every run uses.
    On exit every replaced function is put back and the workers' spool
    directory is removed."""
    model_dir, build_s = models.ensure_models()
    if build_s:
        print(f"built models in {build_s:.1f} s")
    spool = models.CACHE / f"run-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        yield model_dir, tracer, EpisodeLog(sim, spool, tracer)
    finally:
        tracer.restore()
        shutil.rmtree(spool, ignore_errors=True)


# ---------------------------------------------------------------------------
# certify-*: Chernoff cells through statcheck.estimate_probabilistic_safety

@dataclass
class Cell:
    master_seed: list
    estimate: statcheck.SafetyEstimate
    records: list[dict]
    wall_s: float
    child_cpu_s: float

    @property
    def steps(self) -> int:
        return sum(r["steps"] for r in self.records)


def check_cell(cell: Cell, k: int, n: int, out: Outcome) -> None:
    """Episode records must add up to the returned estimate; an episode
    fails when they do not, or when its outcome is "error". Failures are
    keyed by (cell, seed), so an episode counts once."""
    est, recs = cell.estimate, cell.records
    by = Counter(r["outcome"] for r in recs)
    safe = by["completed"] + by["handover"]
    keys = {json.dumps(r["seed"]) for r in recs}
    agree = (len(recs) == len(keys) == n == est.n
             and est.safe_count == safe and est.handover_count == by["handover"]
             and est.collision_count == by["collided"]
             and est.out_of_bounds_count == by["out_of_bounds"]
             and est.error_count == by["error"]
             and est.eta_hat == safe / n and est.autonomy_rate == 1.0 - by["handover"] / n)
    if not agree:
        why = f"cell {k}: records {dict(by)} disagree with {est}"
        for key in keys:
            out.fail((k, key), why)
        for j in range(max(n - len(keys), 0)):
            out.fail((k, f"missing {j}"), why)
    for r in recs:
        if r["outcome"] == "error":
            out.fail((k, json.dumps(r["seed"])), f"cell {k}: episode {r['seed']} errored")


def certify(name: str, wl: CertifyWorkload, seed: int, seconds: float,
            trace: bool, metrics: Metrics, out: Outcome) -> None:
    with harness() as (model_dir, tracer, log):
        path = model_dir / wl.model_file
        setups, loads = [], []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            model = io.load_model(path)
            t1 = time.perf_counter()
            scenario = sim.scenario_by_name("straight_obstacle", weather=wl.weather)
            controller = controllers.BnnController(model.mcd, model.posterior)
            monitor = sim.MonitorPolicy()
            setups.append(time.perf_counter() - t0)
            loads.append(t1 - t0)
        spec = statcheck.PrecisionSpec(wl.theta, wl.gamma)
        n = statcheck.chernoff_sample_size(spec)
        warm_up(scenario, controller, monitor, seed, log)

        cells = []
        deadline = time.perf_counter() + seconds
        while not cells or time.perf_counter() < deadline:
            cells.append(run_cell(scenario, controller, monitor, spec, [seed, len(cells)],
                                  wl.jobs, log))
        records = [r for c in cells for r in c.records]
        rss = peak_rss_mb(records)
        for k, c in enumerate(cells):
            out.attempted += n
            check_cell(c, k, n, out)
            e = c.estimate
            print(f"cell {k} seed {c.master_seed}: eta_hat={e.eta_hat:.4f} "
                  f"autonomy={e.autonomy_rate:.4f} safe={e.safe_count} "
                  f"handover={e.handover_count} collided={e.collision_count} "
                  f"out_of_bounds={e.out_of_bounds_count} error={e.error_count} "
                  f"steps={c.steps} wall_s={c.wall_s:.3f}")
        ms_per_step = [c.wall_s / c.steps * 1e3 for c in cells if c.steps]
        if not trace:
            replay(scenario, controller, monitor, replay_subset(cells[0], seed), log, out)
            metrics.put("setup_s", statistics.median(setups), "s")
            metrics.put("ms_per_unit", statistics.median(ms_per_step), "ms")
            metrics.put("peak_rss_mb", rss, "MB")
            return

        install_spans(tracer, log)
        pool = PoolCounter(tracer)
        spec_calls = CallCounter(tracer)
        tracer.enabled = pool.active = True
        again = run_cell(scenario, controller, monitor, spec, cells[0].master_seed, wl.jobs, log)
        pool.active = False
        metrics.put("trace.overhead_ratio", again.wall_s / cells[0].wall_s, "ratio")
        first = {json.dumps(r["seed"]): (r["outcome"], r["steps"]) for r in cells[0].records}
        for r in again.records:
            if first.get(json.dumps(r["seed"])) != (r["outcome"], r["steps"]):
                out.fail((0, json.dumps(r["seed"])), f"traced rerun of cell 0 differs: {r}")
        if wl.jobs > 1:
            metrics.put("statcheck.pool.bytes_sent", pool.bytes, "bytes")
            metrics.put("statcheck.pool.chunks", pool.tasks, "count")
            metrics.put("statcheck.pool.bytes_per_chunk",
                        pool.bytes / pool.tasks if pool.tasks else 0.0, "bytes")
            metrics.put("statcheck.pool.cpu_utilization",
                        statistics.median(c.child_cpu_s / (wl.jobs * c.wall_s) for c in cells),
                        "ratio")

        # Per-episode spans of the pool workload come from this serial
        # replay of the whole cell in the parent; the serial workload has
        # the traced cell as well.
        spec_calls.active = True
        t0 = time.perf_counter()
        picks = (replay_subset(cells[0], seed) if wl.jobs == 1 else
                 [(k, r) for k, c in enumerate(cells) for r in sorted_records(c)])
        replayed = replay(scenario, controller, monitor, picks, log, out,
                          0 if wl.jobs == 1 else TAIL_SAMPLES)
        replay_s = time.perf_counter() - t0
        spec_calls.active = tracer.enabled = False
        timing_metrics(metrics, tracer)
        episode_metrics(metrics, tracer, replayed + (again.steps if wl.jobs == 1 else 0))
        spec_cache_metrics(metrics, spec_calls, replayed, replay_s)
        rng = np.random.default_rng([seed, 7])
        frames = np.stack([route_frame(scenario, s, rng) for s in np.linspace(5.0, 80.0, 16)])
        probe_layers(metrics, tracer, model.mcd, frames, seed)
        layer_table(metrics, model.mcd.spec, model.mcd.weights, frames)
        metrics.put("io.load_model.s", statistics.median(loads), "s")
        metrics.put("io.model_bytes", path.stat().st_size, "bytes")
        fill_zeros(metrics)
        tracer.write(models.CACHE / f"spans-{name}.jsonl")


def warm_up(scenario, controller, monitor, seed, log: EpisodeLog) -> None:
    """One untimed episode outside every cell's seed range, so lazy caches
    (spec helpers, BLAS buffers, allocator pools) are filled before timing."""
    sim.run_episode(scenario, controller, monitor, seed=[seed, 2**31 - 1])
    log.take()


def route_frame(scenario, s: float, rng) -> np.ndarray:
    x, y = scenario.centerline.point_at(s)
    state = sim.VehicleState(x, y, scenario.centerline.heading_at(s), scenario.nominal_speed)
    return sim.apply_weather(sim.render(state, scenario), sim.WEATHER_PRESETS[scenario.weather],
                             rng)


def run_cell(scenario, controller, monitor, spec, master_seed, jobs, log) -> Cell:
    cpu0 = child_cpu_s()
    t0 = time.perf_counter()
    est = statcheck.estimate_probabilistic_safety(scenario, controller, monitor, spec,
                                                  master_seed, jobs=jobs)
    wall = time.perf_counter() - t0
    return Cell(master_seed, est, log.take(), wall, child_cpu_s() - cpu0)


def sorted_records(cell: Cell) -> list[dict]:
    return sorted(cell.records, key=lambda r: json.dumps(r["seed"]))


def replay_subset(cell: Cell, seed: int) -> list[tuple[int, dict]]:
    """REPLAY_EPISODES records of cell 0, picked by the workload seed."""
    recs = sorted_records(cell)
    pick = np.random.default_rng([seed, 11]).permutation(len(recs))[:REPLAY_EPISODES]
    return [(0, recs[i]) for i in sorted(pick)]


def replay(scenario, controller, monitor, picks, log: EpisodeLog, out: Outcome,
           min_steps: int = 0) -> int:
    """Serial re-run of recorded episodes, given as (cell index, record);
    each must reproduce its recorded outcome and step count. With
    min_steps, stops once that many steps are replayed. Returns the steps
    replayed."""
    steps = 0
    for k, rec in picks:
        path = sim.run_episode(scenario, controller, monitor, seed=rec["seed"])
        steps += len(path.records)
        if (path.outcome, len(path.records)) != (rec["outcome"], rec["steps"]):
            out.fail((k, json.dumps(rec["seed"])),
                     f"replay of {rec['seed']}: {path.outcome}/{len(path.records)} "
                     f"!= {rec['outcome']}/{rec['steps']}")
        if min_steps and steps >= min_steps:
            break
    log.take()
    return steps


# ---------------------------------------------------------------------------
# train-posteriors: MCD epochs, VI iterations and HMC transitions

@dataclass
class Round:
    seconds: dict[str, float]
    results: dict[str, object]


TRAIN_UNITS = {"mcd": 1, "vi": VI_ITERATIONS, "hmc": HMC_TRANSITIONS}


def train_setup(seed: int, mcd_path: Path):
    """What `safesteer train` does before optimising: the collected dataset,
    the MCD extractor and the head features."""
    ds = sim.collect_dataset(sim.straight_obstacle_scenario(), TRAIN_EPISODES, seed,
                             TRAIN_STRIDE)
    mcd = io.load_model(mcd_path).mcd
    feats = bayes.extract_features_batch(mcd, ds.images)
    return ds, mcd, bayes.FeatureDataset(feats, np.asarray(ds.labels, dtype=np.int64))


def train_round(ds, mcd, fds, seed: int, r: int, units=None) -> Round:
    """One call each of train_mcd (epochs from fresh weights), train_vi and
    train_hmc (no burn-in, every transition kept), seeded by (seed, r), with
    `units` epochs, iterations and transitions (TRAIN_UNITS by default; a
    key left out skips that call). A part that raises FloatingPointError
    has result None."""
    units = TRAIN_UNITS if units is None else units
    head = nn.head_spec(mcd.spec)
    prior = bayes.Prior(1.0)
    init = bayes.head_weights(mcd)
    parts = {
        "mcd": lambda u: bayes.train_mcd(ds, mcd.spec, u, 16, 1e-4,
                                         np.random.default_rng([seed, r, 0])),
        "vi": lambda u: bayes.train_vi(fds, head, prior, bayes.ViConfig(u, 1, 0.01, [seed, r, 1]),
                                       init_mu=init),
        "hmc": lambda u: bayes.train_hmc(fds, head, prior, bayes.HmcConfig(0.01, 10, 0, u, 1),
                                         np.random.default_rng([seed, r, 2]), init_w=init),
    }
    seconds, results = {}, {}
    for key, count in units.items():
        t0 = time.perf_counter()
        try:
            results[key] = parts[key](count)
        except FloatingPointError:
            results[key] = None
        seconds[key] = time.perf_counter() - t0
    return Round(seconds, results)


def replay_round(ds, mcd, fds, seed: int, first: Round, out: Outcome) -> Round:
    """Re-run round 0; training is seeded, so every array must come back
    bit for bit."""
    again = train_round(ds, mcd, fds, seed, 0)
    for key, post in first.results.items():
        a = posterior_arrays(post) if post is not None else []
        b = posterior_arrays(again.results[key]) if again.results[key] is not None else []
        if len(a) != len(b) or any(x.tobytes() != y.tobytes() for x, y in zip(a, b)):
            for u in range(TRAIN_UNITS[key]):
                out.fail((0, key, u), f"replay of round 0 {key} differs")
    return again


def grads_by_part(tracer: Tracer, start: int) -> dict[str, int]:
    """nll_and_grad_batch calls inside each train_* span recorded since
    span index `start`."""
    out = {}
    for i in range(start, len(tracer)):
        name = tracer.names[i]
        if name.startswith("bayes.train_"):
            lo, hi = tracer.starts[i], tracer.ends[i]
            out[name[len("bayes.train_"):]] = sum(
                1 for j in range(i + 1, len(tracer))
                if tracer.names[j] == "nn.nll_and_grad_batch" and lo <= tracer.starts[j] <= hi)
    return out


def posterior_arrays(post) -> list[np.ndarray]:
    if isinstance(post, bayes.McdPosterior):
        return [post.weights]
    if isinstance(post, bayes.ViPosterior):
        return [post.mu, post.rho]
    return list(post.samples)


def check_round(rnd: Round, mcd, r: int, out: Outcome) -> None:
    """Finite results of the right shapes and counts."""
    head_n = nn.param_count(nn.head_spec(mcd.spec))
    shapes = {"mcd": [(nn.param_count(mcd.spec),)], "vi": [(head_n,)] * 2,
              "hmc": [(head_n,)] * HMC_TRANSITIONS}
    for key, post in rnd.results.items():
        arrays = posterior_arrays(post) if post is not None else None
        ok = (arrays is not None and [a.shape for a in arrays] == shapes[key]
              and all(np.all(np.isfinite(a)) for a in arrays))
        if not ok:
            for u in range(TRAIN_UNITS[key]):
                out.fail((r, key, u), f"round {r} {key}: bad or missing result")


def train(name: str, wl: TrainWorkload, seed: int, seconds: float, trace: bool,
          metrics: Metrics, out: Outcome) -> None:
    with harness() as (model_dir, tracer, log):
        mcd_path = model_dir / "mcd.json"
        setups = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            ds, mcd, fds = train_setup(seed, mcd_path)
            setups.append(time.perf_counter() - t0)
        collected = log.take()

        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(train_round(ds, mcd, fds, seed, len(rounds)))
        for r, rnd in enumerate(rounds):
            out.attempted += sum(TRAIN_UNITS.values())
            check_round(rnd, mcd, r, out)
            print(f"round {r}: " + " ".join(f"{k}={v:.3f}s" for k, v in rnd.seconds.items()))
        round_ms = [sum(rnd.seconds.values()) * 1e3 for rnd in rounds]
        if not trace:
            replay_round(ds, mcd, fds, seed, rounds[0], out)
            metrics.put("setup_s", statistics.median(setups), "s")
            metrics.put("ms_per_unit", statistics.median(round_ms), "ms")
            metrics.put("peak_rss_mb", peak_rss_mb(collected), "MB")
            return

        put_train_rates(metrics, rounds, TRAIN_UNITS)
        install_spans(tracer, log)
        spec_calls = CallCounter(tracer)
        tracer.enabled = True
        train_setup(seed, mcd_path)
        steps = sum(r["steps"] for r in log.take())
        mark = len(tracer)
        spec_calls.active = True
        again = replay_round(ds, mcd, fds, seed, rounds[0], out)
        spec_calls.active = False
        full = grads_by_part(tracer, mark)
        metrics.put("trace.overhead_ratio",
                    sum(again.seconds.values()) / sum(rounds[0].seconds.values()), "ratio")
        metrics.put("nn.nll_and_grad_batch.calls",
                    tracer.names[mark:].count("nn.nll_and_grad_batch"), "count")
        # Per-unit gradient passes from two chain lengths, so one-off passes
        # (the chain's initial state) cancel out.
        mark = len(tracer)
        train_round(ds, mcd, fds, seed, 0, {"vi": 1, "hmc": 1})
        short = grads_by_part(tracer, mark)
        metrics.put("bayes.grad_evals_per_vi_iteration",
                    (full["vi"] - short["vi"]) / (VI_ITERATIONS - 1), "count")
        metrics.put("bayes.grad_evals_per_hmc_transition",
                    (full["hmc"] - short["hmc"]) / (HMC_TRANSITIONS - 1), "count")
        tracer.enabled = False
        timing_metrics(metrics, tracer)
        episode_metrics(metrics, tracer, steps)
        spec_cache_metrics(metrics, spec_calls, 1, sum(again.seconds.values()))
        probe_layers(metrics, tracer, mcd, ds.images[:16], seed)
        layer_table(metrics, mcd.spec, mcd.weights, ds.images[:16])
        metrics.put("io.load_model.s", statistics.median(tracer.durations("io.load_model")), "s")
        metrics.put("io.model_bytes", mcd_path.stat().st_size, "bytes")
        fill_zeros(metrics)
        tracer.write(models.CACHE / f"spans-{name}.jsonl")
