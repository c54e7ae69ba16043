"""Semi-elliptic end-foot reference trajectories for a trot gait.

A foot reference is generated per leg from the normalized gait phase: the
stance half of the cycle drags the foot along a flat line at the desired
height, the swing half lifts it along a half-ellipse whose minor axis is
the foot clearance. The policy then shapes the curve with five transforms
per leg: step length, a yaw rotation of the ellipse, and x/y/z shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import legkin
from .bounds import bounded, check_bounds

LEG_ORDER = ("FL", "FR", "BL", "BR")

# Diagonal pairs move in phase: FL with BR, FR with BL.
PHASE_OFFSETS = {"FL": 0.0, "FR": 0.5, "BL": 0.5, "BR": 0.0}


@dataclass(frozen=True)
class GaitParams:
    """Trot parameters: max step length, stance height, swing clearance and
    the full cycle period (seconds)."""

    max_step_len: float = bounded(0.136, 0.0, open_lo=True)
    desired_height: float = bounded(0.243, 0.0, open_lo=True)
    foot_clearance: float = bounded(0.06, 0.0, open_lo=True)
    cycle_period: float = bounded(0.4, 0.0, open_lo=True)

    def __post_init__(self):
        check_bounds(self)


class LegAction(NamedTuple):
    """One leg's trajectory transforms: step length (m), steering rotation
    (rad) and the ellipse-center shift along x/y/z (m)."""

    step_len: float = 0.0
    steer: float = 0.0
    shift_x: float = 0.0
    shift_y: float = 0.0
    shift_z: float = 0.0


ZERO_ACTION = LegAction()


def trot_phase(t: float, period: float, leg: str) -> float:
    """Normalized phase in [0, 1) for a leg at time t, trot offsets
    applied."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    if period <= 0.0:
        raise ValueError("period must be positive")
    return math.fmod(t / period + PHASE_OFFSETS[leg], 1.0)


def base_trajectory_point(tau: float, action: LegAction, params: GaitParams) -> tuple:
    """Untransformed foot reference at phase tau.

    Stance (tau in [0, 0.5)): x sweeps the step backward along a cosine,
    z stays at -desired_height. Swing (tau in [0.5, 1)): same x law, z arcs
    up to -desired_height + foot_clearance.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    ang = 2.0 * math.pi * (1.0 - tau)
    x = 0.5 * action.step_len * math.cos(ang)
    z = (-params.desired_height if tau < 0.5
         else -params.desired_height + params.foot_clearance * math.sin(ang))
    return (x, 0.0, z)


def transform_point(pt, action: LegAction) -> legkin.FootPosition:
    """Apply the leg's steering rotation and center shift to a base point."""
    x, _, z = pt
    return legkin.FootPosition(
        action.shift_x + x * math.cos(action.steer),
        action.shift_y + x * math.sin(action.steer),
        action.shift_z + z,
    )


def foot_target(tau: float, action: LegAction, params: GaitParams) -> legkin.FootPosition:
    """Transformed leg-frame foot reference at phase tau."""
    return transform_point(base_trajectory_point(tau, action, params), action)


def checked_foot_target(tau: float, action: LegAction, params: GaitParams,
                        geometry: legkin.LegGeometry) -> legkin.FootPosition:
    """Foot target kept inside the leg workspace: a target outside it is
    projected back onto the polygon."""
    return legkin.clamp_to_workspace(foot_target(tau, action, params), geometry)
