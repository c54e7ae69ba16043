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
from dataclasses import dataclass, field

import numpy as np

from .substeps import (
    COLUMNS, DEGENERATE, LEFT_HANDED, NOT_ORTHONORMAL, ROWS, STRIDED, check_rotation, fit_plane,
)

# The errors of a rotation that substeps.c's check_rotation rejects.
_ROTATION_ERRORS = {
    NOT_ORTHONORMAL: "torso_rotation must be orthonormal",
    LEFT_HANDED: "torso_rotation must be right-handed",
}


class DegenerateContacts(ValueError):
    """The diagonal contact differences are (near-)parallel."""


@dataclass(frozen=True)
class ContactSnapshot:
    """Four body-frame foot positions plus the torso rotation at capture.

    The rotation must be orthonormal, rot @ rot.T within 1e-6 of the
    identity entrywise as np.allclose measures it, and right-handed."""

    p_fl: np.ndarray
    p_fr: np.ndarray
    p_bl: np.ndarray
    p_br: np.ndarray
    torso_rotation: np.ndarray
    # The fit of a snapshot a CaptureBuffer took, which plane_from_contacts
    # returns; None for one built here, which it fits when called.
    _fit: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # A C-ordered copy if it is not one, held while the kernel reads it.
        rot = np.ascontiguousarray(self.torso_rotation, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("torso_rotation must be 3x3")
        _check_rotation(check_rotation(rot.ctypes.data))


def _check_rotation(status: int) -> None:
    message = _ROTATION_ERRORS.get(status)
    if message is not None:
        raise ValueError(message)


class CaptureBuffer:
    """What substeps.capture_plane writes at address: a snapshot's
    row-major rotation, its four body-frame feet, its fit (see
    substeps.fit_plane) and the fitted unit normal's x clipped into
    [-1, 1]. snapshot hands out what the last capture wrote."""

    def __init__(self):
        self.values = np.empty(28)
        self.address = self.values.ctypes.data
        # One-element views of the angles' inputs and outputs: numpy's
        # calls on them round as on floats (see angles_from_unit_normal)
        # and cost less.
        self._angles = np.empty(2)
        self._inputs = (self.values[25:26], self.values[26:27], self.values[27:28],
                        self._angles[:1], self._angles[1:])

    def snapshot(self, status: int) -> ContactSnapshot:
        """The snapshot of a capture that found status. It raises the
        constructor's errors, which the capture checked for, and its
        arrays are a read-only copy, so they keep the fit."""
        _check_rotation(status)
        values = self.values
        kept = values[:21].reshape(7, 3).copy()
        kept.flags.writeable = False
        fit = (status,)
        if status != DEGENERATE:
            ny, nz, nx, roll, pitch = self._inputs
            np.arctan2(ny, nz, roll)
            np.arcsin(nx, pitch)
            roll, pitch = self._angles.tolist()
            fit = (status, tuple(values[21:24].tolist()), roll, -pitch)
        snapshot = ContactSnapshot.__new__(ContactSnapshot)
        # What the frozen constructor would set, without its checks.
        snapshot.__dict__.update(p_fl=kept[3], p_fr=kept[4], p_bl=kept[5], p_br=kept[6],
                                 torso_rotation=kept[:3], _fit=fit)
        return snapshot


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


def _layouts(rot: np.ndarray, points) -> np.ndarray:
    """The form in which np.matmul takes rot @ p for each of the points
    (substeps.ROWS, COLUMNS or STRIDED), as it picks its BLAS call: by
    the rotation's strides, unless the point's stride is not a positive
    multiple of its item."""
    rows, columns = (s // rot.itemsize if s % rot.itemsize == 0 else 0 for s in rot.strides)
    form = (ROWS if columns == 1 and rows >= 3 else
            COLUMNS if rows == 1 and columns >= 3 else STRIDED)
    return np.array([form if p.strides[0] > 0 and p.strides[0] % p.itemsize == 0 else STRIDED
                     for p in points], dtype=np.int64)


def _fitted(snapshot: ContactSnapshot) -> tuple:
    """The compiled fit of a snapshot's own arrays, as they are now: the
    fit's status, then unless the contacts are degenerate the upward unit
    normal and its roll and pitch."""
    rot = np.asarray(snapshot.torso_rotation, dtype=float)
    points = [np.asarray(p, dtype=float)
              for p in (snapshot.p_fl, snapshot.p_fr, snapshot.p_bl, snapshot.p_br)]
    if any(p.shape != (3,) for p in points):
        raise ValueError("contact positions must be 3-vectors")
    layouts, feet, out = _layouts(rot, points), np.array(points), np.empty(6)
    rows = np.ascontiguousarray(rot)
    status = fit_plane(rows.ctypes.data, layouts.ctypes.data, feet.ctypes.data, out.ctypes.data)
    if status == DEGENERATE:
        return (status,)
    fit = out.tolist()
    return (status, tuple(fit[:3]), *angles_from_unit_normal(*fit[3:]))


def plane_from_contacts(snapshot: ContactSnapshot) -> PlaneEstimate:
    """Fit the support plane through the snapshot's feet: the cross
    product of the world-frame diagonals FR - BL and FL - BR, normalized
    and flipped to point upward. substeps.c computes it with numpy's
    bits (its fit_plane); the angles are numpy's (angles_from_normal).

    Raises DegenerateContacts when the diagonals are collinear.
    """
    fit = snapshot._fit or _fitted(snapshot)
    if fit[0] == DEGENERATE:
        raise DegenerateContacts("diagonal contact vectors are parallel")
    _, normal, roll, pitch = fit
    return PlaneEstimate(normal=normal, roll=roll, pitch=pitch)


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
