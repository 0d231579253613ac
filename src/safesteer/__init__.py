"""Bayesian neural steering controllers with statistically certified safety
evaluation in a deterministic 2D driving simulator."""

from .bayes import (HmcConfig, HmcPosterior, McdPosterior, Prior, ViConfig,
                    ViPosterior, elbo_gradient, extract_features, leapfrog,
                    potential_energy, sample_weights, train_hmc, train_mcd,
                    train_vi)
from .controllers import BnnController
from .datasets import FeatureDataset, ImageDataset
from .nn import (AdamState, LayerSpec, NetworkSpec, adam_step, backward,
                 cross_entropy, default_network_spec, forward,
                 sample_dropout_mask, softmax)
from .sim import (AutopilotController, Disturbances, EpisodePath,
                  MonitorPolicy, Obstacle, ScenarioConfig, VehicleState,
                  WeatherModel, apply_weather, autopilot_steering,
                  collect_dataset, is_safe, render, roundabout_scenario,
                  run_episode, scenario_by_name, step,
                  straight_obstacle_scenario)
from .statcheck import (PrecisionSpec, SafetyEstimate, chernoff_sample_size,
                        estimate_decision_confidence_offline,
                        estimate_probabilistic_safety)
from .uncertainty import (ConfidenceReport, Decision, PredictiveDistribution,
                          WarningThresholds, bin_center, decide,
                          decision_confidence, mutual_information, predictive,
                          steering_to_class)

__version__ = "0.1.0"
