"""Command-line orchestration: dataset collection, training for the three
inference methods, safety evaluation across weather grids, monitored drives,
and sample-size planning.

Exit codes: 0 success, 1 runtime failure (including a run whose episodes
ended in "error" because the controller raised or every one of the
sim.START_DRAWS start poses was unsafe), 2 usage or validation error (a
malformed model file or dataset too).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bayes, io, nn, sim, statcheck, uncertainty
from .controllers import BnnController

ALL_WEATHERS = tuple(sim.WEATHER_PRESETS)


POSITIVE_COUNTS = ("n_samples", "episodes", "frame_stride", "epochs", "batch_size", "jobs",
                   "vi_iterations", "hmc_leapfrog", "hmc_samples", "hmc_thin")
NON_NEGATIVE_COUNTS = ("log_episodes", "hmc_burn_in")


@dataclass
class RunConfig:
    scenario: str = "straight_obstacle"
    eps: float = 0.1
    delta1: float = 0.7
    delta2: float = 0.6
    mi_threshold: float = uncertainty.DEFAULT_MI_THRESHOLD
    n_samples: int = 32
    slow_factor: float = 0.5
    theta: float = 0.05
    gamma: float = 0.05
    weathers: tuple[str, ...] = ALL_WEATHERS
    seed: int = 0
    episodes: int = 20
    frame_stride: int = 1
    epochs: int = 25
    batch_size: int = 16
    lr: float = 1e-4
    vi_iterations: int = 2000
    vi_lr: float = 0.01
    hmc_step_size: float = 0.01
    hmc_leapfrog: int = 10
    hmc_burn_in: int = 500
    hmc_samples: int = 1000
    hmc_thin: int = 2
    jobs: int = 1
    log_episodes: int = 3

    def validate(self) -> None:
        # a seed is checked the way a count is
        for names, least in ((POSITIVE_COUNTS, 1), (NON_NEGATIVE_COUNTS, 0), (("seed",), 0)):
            for name in names:
                bayes._check_count(name, getattr(self, name), least)
        if self.scenario not in sim.SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        uncertainty.WarningThresholds(self.delta1, self.delta2, self.mi_threshold)
        sim.MonitorPolicy(self.slow_factor)
        bayes._check_positive("eps", self.eps)
        statcheck.PrecisionSpec(self.theta, self.gamma)
        bayes._check_positive("lr", self.lr)
        bayes.ViConfig(self.vi_iterations, 1, self.vi_lr, self.seed)
        bayes.HmcConfig(self.hmc_step_size, self.hmc_leapfrog, self.hmc_burn_in,
                        self.hmc_samples, self.hmc_thin)
        if not self.weathers:
            raise ValueError("weathers lists no weather")
        for i, w in enumerate(self.weathers):
            if w not in sim.WEATHER_PRESETS:
                raise ValueError(f"unknown weather {w!r}")
            if w in self.weathers[:i]:
                raise ValueError(f"weathers lists {w!r} twice")


CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file supplies defaults; explicitly passed flags win."""
    values = {}
    if path is not None:
        with open(path) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        unknown = set(values) - CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values.update((k, v) for k, v in overrides.items() if v is not None)
    if "weathers" in values:
        values["weathers"] = _parse_weathers(values["weathers"])
    cfg = replace(RunConfig(), **values)
    cfg.validate()
    return cfg


def _parse_weathers(value) -> tuple[str, ...]:
    """The weathers of `--weathers` or a config file's "weathers": "all", a
    comma list such as "clear,rain", or a JSON list of names."""
    if value == "all":
        return ALL_WEATHERS
    if isinstance(value, str):
        return tuple(w.strip() for w in value.split(",") if w.strip())
    if isinstance(value, list):
        return tuple(value)
    raise ValueError(f"weathers must be 'all', a comma list or a list, got {value!r}")


def training_accuracy(mcd: bayes.McdPosterior, ds) -> float:
    """Mask-free argmax accuracy over the training images: one head pass
    over their (chunked) extractor features."""
    plan = mcd.spec.plan
    feats = bayes.extract_features_batch(mcd, ds.images)
    logits = nn.forward_batch(plan.head_spec, mcd.weights[plan.head_slice], feats)
    return float(np.mean(np.argmax(logits, axis=1) == ds.labels))


def _controller(model: io.TrainedModel, cfg: RunConfig,
                with_confidence: bool) -> BnnController:
    thresholds = uncertainty.WarningThresholds(cfg.delta1, cfg.delta2, cfg.mi_threshold)
    return BnnController(model.mcd, model.posterior, cfg.eps, cfg.n_samples, thresholds,
                         with_confidence)


def _eps_leaves_a_bin_out(model: io.TrainedModel, cfg: RunConfig) -> bool:
    """With K bins, every vote lies within eps of the decision once eps
    reaches the widest distance between two bin centres, 2 - 2/K. Then eta2
    is 1 on every frame and the monitor can never warn, so such an eps is a
    configuration error for the model."""
    k = model.mcd.spec.num_classes
    bound = (uncertainty.STEERING_HI - uncertainty.STEERING_LO) - uncertainty.bin_width(k)
    if cfg.eps < bound:
        return True
    print(f"configuration error: eps must be below {bound!r} (2 - 2/K for the model's "
          f"K = {k} steering bins), got {cfg.eps!r}", file=sys.stderr)
    return False


def cmd_collect(args, cfg: RunConfig) -> int:
    scenario = sim.scenario_by_name(cfg.scenario)
    ds = sim.collect_dataset(scenario, cfg.episodes, cfg.seed, cfg.frame_stride)
    io.write_dataset(ds, args.out)
    print(f"wrote {len(ds)} (image, label) pairs to {args.out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    if args.method in ("vi", "hmc") and args.mcd_model is None:
        print(f"train --method {args.method} requires --mcd-model", file=sys.stderr)
        return 2
    for flag, value, methods in (("--mcd-model", args.mcd_model, ("vi", "hmc")),
                                 ("--vi-model", args.vi_model, ("hmc",)),
                                 ("--prior-sigma", args.prior_sigma, ("vi", "hmc"))):
        if value is not None and args.method not in methods:
            print(f"train --method {args.method} does not use {flag}", file=sys.stderr)
            return 2
    if args.method != "mcd":
        try:
            prior = bayes.Prior() if args.prior_sigma is None else bayes.Prior(args.prior_sigma)
        except ValueError as exc:
            print(f"train --prior-sigma: {exc}", file=sys.stderr)
            return 2
    ds, dataset_hash = io.read_dataset(args.dataset)
    spec = nn.default_network_spec(uncertainty.NUM_BINS)  # collect's bins
    bad = np.flatnonzero((ds.labels < 0) | (ds.labels >= spec.num_classes))
    if bad.size:
        print(f"{args.dataset}: labels.csv line {bad[0] + 2} has class {ds.labels[bad[0]]}, "
              f"outside [0, {spec.num_classes})", file=sys.stderr)
        return 2
    rng = np.random.default_rng(cfg.seed)
    meta: dict = {"seed": cfg.seed, "dataset_hash": dataset_hash}

    if args.method == "mcd":
        meta["epochs"] = cfg.epochs
        post = bayes.train_mcd(ds, spec, cfg.epochs, cfg.batch_size, cfg.lr, rng)
        meta["train_accuracy"] = training_accuracy(post, ds)
        model = io.TrainedModel("mcd", post, post, meta)
    else:
        base = io.load_model(args.mcd_model)
        head = nn.head_spec(base.mcd.spec)
        init = bayes.head_weights(base.mcd)
        if args.method == "hmc" and args.vi_model is not None:
            init = _vi_mean(args.vi_model, init.size)
        feats = bayes.extract_features_batch(base.mcd, ds.images)
        fds = bayes.FeatureDataset(feats, np.asarray(ds.labels, dtype=np.int64))
        if args.method == "vi":
            meta["iterations"] = cfg.vi_iterations
            vcfg = bayes.ViConfig(cfg.vi_iterations, 1, cfg.vi_lr, cfg.seed)
            post = bayes.train_vi(fds, head, prior, vcfg, init_mu=init)
        else:
            hcfg = bayes.HmcConfig(cfg.hmc_step_size, cfg.hmc_leapfrog,
                                   cfg.hmc_burn_in, cfg.hmc_samples, cfg.hmc_thin)
            meta["chain"] = {"burn_in": hcfg.burn_in, "samples": hcfg.samples,
                             "thin": hcfg.thin, "step_size": hcfg.step_size}
            post = bayes.train_hmc(fds, head, prior, hcfg, rng, init_w=init)
        model = io.TrainedModel(args.method, base.mcd, post, meta)
    io.save_model(model, args.out)
    print(f"wrote {args.method} model to {args.out}")
    return 0


def _vi_mean(path, n_params: int) -> np.ndarray:
    """The mean of the VI model at `path`, which seeds an HMC chain over a
    head of n_params parameters."""
    model = io.load_model(path)
    if model.method != "vi":
        raise io.InputFileError(f"{path}: --vi-model needs a vi model, not {model.method}")
    if model.posterior.mu.size != n_params:
        raise io.InputFileError(f"{path}: the VI mean has {model.posterior.mu.size} "
                                f"parameters, the --mcd-model head has {n_params}")
    return model.posterior.mu


def cmd_eval_safety(args, cfg: RunConfig) -> int:
    model = io.load_model(args.model)
    if not _eps_leaves_a_bin_out(model, cfg):
        return 2
    spec = statcheck.PrecisionSpec(cfg.theta, cfg.gamma)
    n = statcheck.chernoff_sample_size(spec)
    monitor_options = [False, True] if args.with_monitor else [False]
    controllers = {m: _controller(model, cfg, with_confidence=m) for m in monitor_options}
    monitor = sim.MonitorPolicy(cfg.slow_factor) if args.with_monitor else None
    cells = []
    logged_paths = []
    errors = []
    for weather in cfg.weathers:
        scenario = sim.scenario_by_name(cfg.scenario, weather=weather)
        for monitored, controller in controllers.items():
            est = statcheck.estimate_probabilistic_safety(
                scenario, controller, monitor if monitored else None, spec, cfg.seed,
                jobs=cfg.jobs, log_episodes=cfg.log_episodes)
            logged_paths.extend(est.logged)
            warning_steps = {w: sum(rec.warning == w for p in est.logged for rec in p.records)
                             for w in ("W0", "W1", "W2")}
            cells.append({
                "method": model.method,
                "scenario": cfg.scenario,
                "weather": weather,
                "monitored": monitored,
                "estimate": io.estimate_to_dict(est),
                "warning_steps_logged": warning_steps,
            })
            label = (f"{model.method} {cfg.scenario} {weather} "
                     f"monitor={'on' if monitored else 'off'}")
            print(f"{label}: eta_hat={est.eta_hat:.4f} autonomy={est.autonomy_rate:.4f} (n={n})")
            if est.error_count:
                first = next((f" (first logged: {p.error})" for p in est.logged if p.error), "")
                errors.append(f"{label}: {est.error_count} of {n} episodes raised{first}")
    config_echo = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    config_echo["weathers"] = list(cfg.weathers)
    config_echo["num_classes"] = model.mcd.spec.num_classes
    io.write_summary_report(args.report, config_echo, spec, n, cells)
    # the loop's last scenario: dt is the same in every weather
    with open(args.log, "w", newline="") as fh:
        io.write_trajectory(logged_paths, scenario.dt, fh)
    print(f"wrote {args.report} and {args.log}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    return 1 if errors else 0


def cmd_drive(args, cfg: RunConfig) -> int:
    model = io.load_model(args.model)
    if not _eps_leaves_a_bin_out(model, cfg):
        return 2
    scenario = sim.scenario_by_name(cfg.scenario, weather=args.weather)
    controller = _controller(model, cfg, with_confidence=args.monitor)
    monitor = sim.MonitorPolicy(cfg.slow_factor) if args.monitor else None
    path = sim.run_episode(scenario, controller, monitor, seed=cfg.seed)
    with open(args.out, "w", newline="") as fh:
        io.write_trajectory([path], scenario.dt, fh)
    print(f"outcome={path.outcome} steps={len(path.records)} -> {args.out}")
    if path.outcome == "error":
        print(f"error: the episode ended in error ({path.error})", file=sys.stderr)
        return 1
    return 0


def cmd_plan_samples(args, cfg: RunConfig) -> int:
    spec = statcheck.PrecisionSpec(cfg.theta, cfg.gamma)
    print(statcheck.chernoff_sample_size(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safesteer",
        description="Train Bayesian steering controllers and certify their "
                    "safety with Chernoff-bounded estimates.")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--scenario", dest="scenario",
                       choices=sim.SCENARIO_NAMES)
        p.add_argument("--seed", type=int, dest="seed")

    p = sub.add_parser("collect", help="record autopilot (image, label) pairs")
    shared(p)
    p.add_argument("--episodes", type=int, dest="episodes")
    p.add_argument("--frame-stride", type=int, dest="frame_stride")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser("train", help="train a posterior on a dataset")
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--method", choices=("mcd", "vi", "hmc"), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mcd-model", help="trained MCD model (extractor) for vi/hmc")
    p.add_argument("--vi-model", help="optional VI model whose mean seeds the HMC chain")
    p.add_argument("--prior-sigma", type=float, help="prior scale for vi/hmc (default 1.0)")
    p.add_argument("--epochs", type=int, dest="epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="lr")
    p.add_argument("--vi-iterations", type=int, dest="vi_iterations")
    p.add_argument("--vi-lr", type=float, dest="vi_lr")
    p.add_argument("--hmc-step-size", type=float, dest="hmc_step_size")
    p.add_argument("--hmc-burn-in", type=int, dest="hmc_burn_in")
    p.add_argument("--hmc-samples", type=int, dest="hmc_samples")
    p.add_argument("--hmc-thin", type=int, dest="hmc_thin")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval-safety", help="Chernoff-certified safety per weather")
    shared(p)
    p.add_argument("--model", required=True)
    p.add_argument("--theta", type=float, dest="theta")
    p.add_argument("--gamma", type=float, dest="gamma")
    p.add_argument("--weathers", dest="weathers", help="comma list or 'all'")
    p.add_argument("--with-monitor", action="store_true")
    p.add_argument("--jobs", type=int, dest="jobs")
    p.add_argument("--log-episodes", type=int, dest="log_episodes")
    p.add_argument("--report", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(fn=cmd_eval_safety)

    p = sub.add_parser("drive", help="run one episode and log the trajectory")
    shared(p)
    p.add_argument("--model", required=True)
    p.add_argument("--weather", default="clear", choices=ALL_WEATHERS)
    p.add_argument("--monitor", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_drive)

    p = sub.add_parser("plan-samples", help="print the Chernoff sample size")
    p.add_argument("--theta", type=float, required=True, dest="theta")
    p.add_argument("--gamma", type=float, required=True, dest="gamma")
    p.set_defaults(fn=cmd_plan_samples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_FIELDS}
    try:
        cfg = load_config(args.config, overrides)
    except (TypeError, ValueError, OSError) as exc:  # TypeError: a value of the wrong type
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, cfg)
    except io.InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError) as exc:  # OSError: a bad input path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
