"""Small rotation-matrix helpers shared by the simulator and estimators."""

import math

import numpy as np


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def orthonormalize(rot: np.ndarray) -> np.ndarray:
    """Re-orthonormalize a drifting rotation matrix (Gram-Schmidt on columns)."""
    # The elementwise steps run on Python floats, which round as numpy's
    # elementwise operations do. The three dot products stay numpy dot
    # products on the same operands (column views and the normalized
    # vector), since BLAS rounds them differently from a scalar sum.
    (a0, b0, _), (a1, b1, _), (a2, b2, _) = rot.tolist()
    c0, c1 = rot[:, 0], rot[:, 1]
    norm = math.sqrt(c0.dot(c0))
    x0, x1, x2 = a0 / norm, a1 / norm, a2 / norm
    proj = float(c1.dot(np.array((x0, x1, x2))))
    y0, y1, y2 = b0 - proj * x0, b1 - proj * x1, b2 - proj * x2
    y = np.array((y0, y1, y2))
    norm = math.sqrt(y.dot(y))
    y0, y1, y2 = y0 / norm, y1 / norm, y2 / norm
    return np.array((
        (x0, y0, x1 * y2 - x2 * y1),
        (x1, y1, x2 * y0 - x0 * y2),
        (x2, y2, x0 * y1 - x1 * y0),
    ))


def yaw_of(rot: np.ndarray) -> float:
    """Heading of the body x-axis projected onto the world xy-plane."""
    return float(np.arctan2(rot[1, 0], rot[0, 0]))
