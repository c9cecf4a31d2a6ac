"""Warmup-cosine learning-rate schedule: linear 0 -> base over the first
warmup fraction of steps, then cosine decay from base to zero."""

import math
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ScheduleSpec:
    total_steps: int
    base_rate: float
    warmup_fraction: float = 0.05

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError("schedule needs at least one step")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup fraction must lie in [0, 1), got {self.warmup_fraction}")
        if self.base_rate < 0:
            raise ConfigError("base rate must be non-negative")

    @property
    def warmup_steps(self):
        return round(self.warmup_fraction * self.total_steps)


def lr_at(step, spec):
    """Learning rate at a step in [0, total]; continuous at the junction."""
    if step < 0 or step > spec.total_steps:
        raise ConfigError(
            f"step {step} outside schedule range 0..{spec.total_steps}")
    w = spec.warmup_steps
    if step < w:
        return spec.base_rate * step / w
    progress = (step - w) / (spec.total_steps - w)
    return spec.base_rate * 0.5 * (1.0 + math.cos(math.pi * progress))
