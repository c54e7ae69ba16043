"""Per-step locomotion reward.

Four Gaussian kernels reward torso alignment with the support plane (roll,
pitch), heading hold (yaw) and height tracking; normalized forward progress
is added on top and a flat penalty is subtracted while the robot counts as
standing still.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .bounds import bounded, check_bounds


class InvalidWidth(ValueError):
    """Gaussian kernel width must be strictly positive."""


@dataclass(frozen=True)
class RewardWeights:
    """Kernel widths, forward-progress weight and standing penalty.

    The default forward weight makes progress dominate small posture
    errors: each kernel spans (0, 1] while the progress term spans
    [0, forward_weight] at physically reachable speeds.
    """

    roll_width: float = bounded(40.0, 0.0, open_lo=True)
    pitch_width: float = bounded(40.0, 0.0, open_lo=True)
    yaw_width: float = bounded(20.0, 0.0, open_lo=True)
    height_width: float = bounded(800.0, 0.0, open_lo=True)
    forward_weight: float = bounded(4.0, 0.0, open_lo=True)
    standing_penalty: float = bounded(1.0, 0.0)
    desired_yaw: float = bounded(0.0)
    desired_height: float = bounded(0.243)

    def __post_init__(self):
        check_bounds(self)


class RewardInputs(NamedTuple):
    torso_roll: float
    torso_pitch: float
    torso_yaw: float
    plane_roll: float
    plane_pitch: float
    height: float
    forward_disp: float
    standing: bool = False


def gaussian_kernel(width: float, x: float) -> float:
    """exp(-width * x^2), a [0, 1] score peaking at x = 0."""
    if width <= 0.0:
        raise InvalidWidth("kernel width must be > 0")
    return math.exp(-width * x * x)


def compute_reward(inputs: RewardInputs, weights: RewardWeights, max_step: float) -> float:
    """Scalar reward for one control step.

    max_step is the largest possible forward displacement per step; forward
    progress enters normalized by it so the weight is unit-free.
    """
    if max_step <= 0.0:
        raise ValueError("max_step must be > 0")
    r = gaussian_kernel(weights.roll_width, inputs.torso_roll - inputs.plane_roll)
    r += gaussian_kernel(weights.pitch_width, inputs.torso_pitch - inputs.plane_pitch)
    r += gaussian_kernel(weights.yaw_width, inputs.torso_yaw - weights.desired_yaw)
    r += gaussian_kernel(weights.height_width, inputs.height - weights.desired_height)
    r += weights.forward_weight * (inputs.forward_disp / max_step)
    if inputs.standing:
        r -= weights.standing_penalty
    return r


class StandingMonitor:
    """Flags standing still: net displacement below a threshold across a
    window of control steps. Fires exactly on the window-th stationary step."""

    def __init__(self, window: int = 50, threshold: float = 0.02):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.threshold = threshold
        self._positions = deque(maxlen=window + 1)

    def reset(self, x0: float) -> None:
        self._positions.clear()
        self._positions.append(x0)

    def push(self, x: float) -> bool:
        """Record the position after a control step; returns the flag."""
        self._positions.append(x)
        return self.standing

    @property
    def standing(self) -> bool:
        if len(self._positions) < self.window + 1:
            return False
        return abs(self._positions[-1] - self._positions[0]) < self.threshold
