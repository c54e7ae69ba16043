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

import numpy as np

from .bounds import bounded, check_bounds
from .substeps import rewards


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


def compute_reward(inputs: RewardInputs, weights: RewardWeights, max_step: float):
    """Reward of one control step, or of a run of them.

    inputs holds floats, one step, and the reward is a float; or 1-D
    arrays of one length, a float among them standing for every step,
    and the rewards are an array. Each step's reward is gaussian_kernel
    of the torso's roll and pitch relative to the plane's, of the yaw
    and of the height relative to their desired values, summed in that
    order, plus the weighted forward progress, minus the standing penalty
    when the step stands. max_step is the largest possible forward
    displacement per step; forward progress enters normalized by it so
    the weight is unit-free.

    Both forms run one compiled loop (substeps.c) whose bits are those
    of the same sum on Python floats: libm's exp is math.exp.
    """
    if max_step <= 0.0:
        raise ValueError("max_step must be > 0")
    steps = np.shape(inputs.torso_roll)
    columns = np.empty((len(inputs), *steps))
    for field, values in enumerate(inputs):
        columns[field] = values
    out = np.empty(steps)
    w = weights
    constants = np.array((w.roll_width, w.pitch_width, w.yaw_width, w.height_width,
                          w.forward_weight, w.standing_penalty, w.desired_yaw,
                          w.desired_height, max_step))
    rewards(constants.ctypes.data, columns.ctypes.data, out.size, out.ctypes.data)
    return out if steps else out.item()


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
