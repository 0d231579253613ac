"""Bayesian neural steering controllers with statistically certified safety
evaluation in a deterministic 2D driving simulator."""
