"""Support-plane estimation from stance-foot positions.

At each stance exchange the four most recent ground-contact foot positions
(the pair leaving the ground and the pair that just touched down) are
rotated into the world frame and the plane normal is taken from the cross
product of the two diagonal difference vectors. Roll and pitch of the plane
follow one fixed convention, shared by the reward and the observation:

    roll  = atan2(n_y, n_z)
    pitch = -asin(n_x)

with the normal n flipped to point upward (n_z > 0) first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# np.allclose(rot @ rot.T, np.eye(3), atol=1e-6) is this entrywise bound,
# atol + rtol * |eye| with numpy's default rtol.
_IDENTITY = np.eye(3)
_ORTHONORMAL_BOUND = 1e-6 + 1e-5 * _IDENTITY


class DegenerateContacts(ValueError):
    """The diagonal contact differences are (near-)parallel."""


@dataclass(frozen=True)
class ContactSnapshot:
    """Four body-frame foot positions plus the torso rotation at capture."""

    p_fl: np.ndarray
    p_fr: np.ndarray
    p_bl: np.ndarray
    p_br: np.ndarray
    torso_rotation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.torso_rotation, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("torso_rotation must be 3x3")
        if not (np.abs(rot @ rot.T - _IDENTITY) <= _ORTHONORMAL_BOUND).all():
            raise ValueError("torso_rotation must be orthonormal")
        # The sign of det(rot), a triple product of its rows: within the
        # bound above |det| is near 1, so rounding cannot flip it.
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rot.tolist()
        if a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0) < 0.0:
            raise ValueError("torso_rotation must be right-handed")


@dataclass(frozen=True)
class PlaneEstimate:
    """Unit upward normal (world frame) with the derived roll and pitch."""

    normal: tuple
    roll: float
    pitch: float

    @classmethod
    def flat(cls) -> "PlaneEstimate":
        return cls(normal=(0.0, 0.0, 1.0), roll=0.0, pitch=0.0)


def angles_from_normal(n) -> tuple:
    """(roll, pitch) of a plane (or of a body's up-axis) under the pinned
    convention. n need not be normalized but must point upward-ish."""
    # np.linalg.norm's own steps: a dot product over the contiguous vector
    # and its square root. The division runs on Python floats, which round
    # as numpy's elementwise division does.
    n = np.asarray(n, dtype=float).ravel()
    norm = math.sqrt(n.dot(n))
    nx, ny, nz = n.tolist()
    return angles_from_unit_normal(nx / norm, ny / norm, nz / norm)


def angles_from_unit_normal(nx: float, ny: float, nz: float) -> tuple:
    """(roll, pitch) of a unit normal given as floats, under the pinned
    convention. The angles are numpy's arctan2 and arcsin, whose bits the
    goldens hold: on some hosts they round differently from math's."""
    roll = float(np.arctan2(ny, nz))
    pitch = float(-np.arcsin(min(max(nx, -1.0), 1.0)))
    return roll, pitch


def plane_from_contacts(snapshot: ContactSnapshot) -> PlaneEstimate:
    """Fit the support plane through the snapshot's feet.

    Raises DegenerateContacts when the diagonals are collinear.
    """
    rot = np.asarray(snapshot.torso_rotation, dtype=float)
    p_fl = rot @ np.asarray(snapshot.p_fl, dtype=float)
    p_fr = rot @ np.asarray(snapshot.p_fr, dtype=float)
    p_bl = rot @ np.asarray(snapshot.p_bl, dtype=float)
    p_br = rot @ np.asarray(snapshot.p_br, dtype=float)
    # np.cross's and np.linalg.norm's own steps: products and differences
    # of floats, then the square root of the vector's dot product.
    (a0, a1, a2), (b0, b1, b2) = (p_fr - p_bl).tolist(), (p_fl - p_br).tolist()
    n = np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
    norm = math.sqrt(n.dot(n))
    if norm < 1e-9:
        raise DegenerateContacts("diagonal contact vectors are parallel")
    n = n / norm
    if n[2] < 0.0:
        n = -n
    roll, pitch = angles_from_normal(n)
    return PlaneEstimate(normal=tuple(float(v) for v in n), roll=roll, pitch=pitch)


class SlopeEstimator:
    """Single-owner stateful estimator: remembers the last good estimate.

    Starts flat. On degenerate contacts the previous estimate is returned
    and the degenerate flag is raised for the caller to inspect. An optional
    single-pole low-pass (smoothing in (0, 1], 1 = no filtering) is off by
    default.
    """

    def __init__(self, smoothing: float = 1.0):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")
        self.smoothing = smoothing
        self.reset()

    def reset(self) -> None:
        self.estimate = PlaneEstimate.flat()
        self.last_degenerate = False

    def update(self, snapshot: ContactSnapshot) -> PlaneEstimate:
        try:
            fresh = plane_from_contacts(snapshot)
        except DegenerateContacts:
            self.last_degenerate = True
            return self.estimate
        self.last_degenerate = False
        if self.smoothing < 1.0:
            a = self.smoothing
            prev = np.asarray(self.estimate.normal)
            blended = a * np.asarray(fresh.normal) + (1.0 - a) * prev
            blended = blended / np.linalg.norm(blended)
            roll, pitch = angles_from_normal(blended)
            fresh = PlaneEstimate(normal=tuple(float(v) for v in blended), roll=roll, pitch=pitch)
        self.estimate = fresh
        return fresh
