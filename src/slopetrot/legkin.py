"""Analytic kinematics for a 3-DOF quadruped leg.

Each leg is modeled as an abduction joint rotating the leg plane about the
leg-frame x-axis, followed by a planar hip/knee pair. The hip angle is
measured from the downward vertical and the knee angle is relative to the
upper link; with all angles zero the foot hangs straight below the hip at
a depth of (upper + lower) link length. The foot must stay inside a convex
planar safety polygon (a trapezoid by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import bounded, check_bounds


class Unreachable(ValueError):
    """Target lies outside the reachable annulus of the planar pair."""


class FootPosition(NamedTuple):
    """Foot position (meters) in the leg frame: origin at the hip mount,
    x forward, y lateral, z up (so a foot below the hip has z < 0)."""

    x: float
    y: float
    z: float


# Trapezoidal safety region in the planar (x, z) leg coordinates, listed
# top-left, top-right, bottom-right, bottom-left. The bottom edge sits at
# z = -0.305 so every vertex stays inside the 0.325 m reach of the default
# links.
DEFAULT_WORKSPACE = (
    (-0.05, -0.18),
    (0.05, -0.18),
    (0.11, -0.305),
    (-0.11, -0.305),
)

# Mount points sit on outboard abduction brackets: the lateral half-spacing
# must exceed friction times the stance height or a hard lateral shove
# overturns the torso faster than weight transfer can restore it.
DEFAULT_HIP_POSITIONS = (
    (0.25, 0.20, 0.0),   # front-left
    (0.25, -0.20, 0.0),  # front-right
    (-0.25, 0.20, 0.0),  # back-left
    (-0.25, -0.20, 0.0), # back-right
)

DEFAULT_JOINT_LIMITS = (
    (-0.7, 0.7),  # abduction
    (-1.6, 1.6),  # hip
    (0.0, 2.6),   # knee (backward-flexing branch only)
)


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths, mount points, joint limits and the safety polygon.

    All lengths in meters, angles in radians. hip_positions_body lists the
    four leg mount points in the body frame in the order FL, FR, BL, BR.
    """

    upper_link_len: float = bounded(0.15, 0.0, open_lo=True)
    lower_link_len: float = bounded(0.175, 0.0, open_lo=True)
    abduction_offset: float = bounded(0.0)
    hip_positions_body: tuple = bounded(DEFAULT_HIP_POSITIONS)
    joint_limits: tuple = bounded(DEFAULT_JOINT_LIMITS)
    workspace_polygon: tuple = bounded(DEFAULT_WORKSPACE)

    def __post_init__(self):
        check_bounds(self)
        if len(self.hip_positions_body) != 4 or any(len(h) != 3 for h in self.hip_positions_body):
            raise ValueError("expected four hip mount points of three coordinates")
        if len(self.joint_limits) != 3:
            raise ValueError("expected limits for abd, hip, knee")
        for lo, hi in self.joint_limits:
            if not lo <= hi:
                raise ValueError("joint limit min exceeds max")
        poly = np.asarray(self.workspace_polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
            raise ValueError("workspace polygon needs at least 3 planar vertices")
        reach = self.upper_link_len + self.lower_link_len
        inner = abs(self.upper_link_len - self.lower_link_len)
        radii = np.hypot(poly[:, 0], poly[:, 1])
        if np.any(radii > reach + 1e-12):
            raise ValueError("workspace vertex beyond total leg length")
        if np.any(radii < inner - 1e-12):
            raise ValueError("workspace vertex inside the unreachable core")
        # The same vertices as float tuples, and the edges as the
        # membership test reads them: the per-step workspace test and
        # projection then run on Python floats. The polygon is convex when
        # every vertex lies inside every edge.
        vertices = tuple(map(tuple, poly.tolist()))
        edges = _oriented_edges(vertices)
        if not all(_point_in_polygon(x, z, edges) for x, z in vertices):
            raise ValueError("workspace polygon must be convex")
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_edges", edges)

    @property
    def total_leg_length(self) -> float:
        return self.upper_link_len + self.lower_link_len


def forward_kinematics(q, geometry: LegGeometry) -> FootPosition:
    """Closed-form foot position for the joint angles q = (abd, hip, knee),
    in radians.

    Total on finite input; joint limits are not checked here.
    """
    abd, hip, knee = q
    l1 = geometry.upper_link_len
    l2 = geometry.lower_link_len
    px = l1 * math.sin(hip) + l2 * math.sin(hip + knee)
    pz = -(l1 * math.cos(hip) + l2 * math.cos(hip + knee))
    ca, sa = math.cos(abd), math.sin(abd)
    d = geometry.abduction_offset
    return FootPosition(px, d * ca - pz * sa, d * sa + pz * ca)


def _clip(x: float, lo: float, hi: float) -> float:
    """min(max(x, lo), hi) by the same comparisons, so NaN and ties come
    out alike, without the cost of two builtin calls."""
    x = lo if lo > x else x
    return hi if hi < x else x


def _offset_radius2(p: FootPosition, geometry: LegGeometry) -> float:
    """Squared distance of p from the abduction axis, minus the squared
    lateral hip offset: below -1e-15 the point is inside the offset
    cylinder, which no abduction angle reaches."""
    d = geometry.abduction_offset
    return p.y * p.y + p.z * p.z - d * d


def _planar_z(rr: float) -> float:
    """Planar z of a point whose _offset_radius2 is rr."""
    return -math.sqrt(0.0 if 0.0 > rr else rr)


def _abduction_split(p: FootPosition, geometry: LegGeometry) -> tuple:
    """Split a leg-frame point into (abduction angle, planar x, planar z).

    Raises Unreachable when the point is closer to the abduction axis than
    the lateral hip offset allows.
    """
    rr = _offset_radius2(p, geometry)
    if rr < -1e-15:
        raise Unreachable("point inside the abduction offset cylinder")
    pz = _planar_z(rr)
    abd = math.atan2(p.z, p.y) - math.atan2(pz, geometry.abduction_offset)
    # wrap to (-pi, pi]
    abd = math.atan2(math.sin(abd), math.cos(abd))
    return abd, p.x, pz


def inverse_kinematics(p: FootPosition, geometry: LegGeometry) -> tuple:
    """Joint angles (abd, hip, knee), in radians, reaching the foot position
    on the backward-flexing knee branch, clamped into the joint limits.

    Raises Unreachable when the target is outside the annulus of the
    planar pair; a NaN target is outside. A clamped joint leaves a
    tracking error, which is how the simulator treats saturated joints.
    """
    abd, px, pz = _abduction_split(p, geometry)
    l1 = geometry.upper_link_len
    l2 = geometry.lower_link_len
    r2 = px * px + pz * pz
    lo = (l1 - l2) * (l1 - l2)
    hi = (l1 + l2) * (l1 + l2)
    # Written as "not (within bounds)" so NaN is outside too.
    if not (r2 <= hi + 1e-12 and r2 >= lo - 1e-12):
        raise Unreachable(f"planar target radius {math.sqrt(r2):.4f} m outside leg annulus")
    cos_knee = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    cos_knee = cos_knee if cos_knee > -1.0 else -1.0
    knee = math.acos(cos_knee if cos_knee < 1.0 else 1.0)
    hip = math.atan2(px, -pz) - math.atan2(l2 * math.sin(knee), l1 + l2 * math.cos(knee))
    (lo_a, hi_a), (lo_h, hi_h), (lo_k, hi_k) = geometry.joint_limits
    return _clip(abd, lo_a, hi_a), _clip(hip, lo_h, hi_h), _clip(knee, lo_k, hi_k)


def _oriented_edges(poly) -> tuple:
    """(x1, z1, ex, ez) per edge of a convex polygon: its start vertex and
    its direction, negated for a clockwise polygon so that inside points
    lie on the non-negative side of every edge in either vertex order.

    Raises ValueError when the polygon encloses no area."""
    n = len(poly)
    area2 = 0.0
    for i in range(n):
        x1, z1 = poly[i]
        x2, z2 = poly[(i + 1) % n]
        area2 += x1 * z2 - x2 * z1
    # Written as "not (within bounds)" so NaN is rejected too.
    if not abs(area2) > 1e-12:
        raise ValueError("degenerate workspace polygon")
    orient = 1.0 if area2 >= 0.0 else -1.0
    edges = []
    for i in range(n):
        x1, z1 = poly[i]
        x2, z2 = poly[(i + 1) % n]
        edges.append((x1, z1, orient * (x2 - x1), orient * (z2 - z1)))
    return tuple(edges)


def _point_in_polygon(px: float, pz: float, edges, tol: float = 1e-12) -> bool:
    """Convex polygon membership, boundary inclusive, for the polygon's
    _oriented_edges; a NaN point is outside. Negating an edge negates each
    product and the difference exactly, so the test gives the bits of
    orient * cross."""
    for x1, z1, ex, ez in edges:
        # "Not (within bounds)", so a NaN cross product is outside.
        if not ex * (pz - z1) - ez * (px - x1) >= -tol:
            return False
    return True


def in_workspace(p: FootPosition, geometry: LegGeometry) -> bool:
    """True when the planar projection of p (after the abduction split)
    lies inside the safety polygon, boundary inclusive. A point inside the
    offset cylinder is outside, and so is a NaN point. The test needs only
    the planar coordinates, not the angle."""
    rr = _offset_radius2(p, geometry)
    return not rr < -1e-15 and _point_in_polygon(p.x, _planar_z(rr), geometry._edges)


def _closest_point_on_polygon(px: float, pz: float, poly) -> tuple:
    """The point of the polygon's boundary nearest (px, pz); the first
    nearest edge wins a tie."""
    best_x = best_z = math.nan
    best_d2 = math.inf
    n = len(poly)
    for i in range(n):
        ax, az = poly[i]
        bx, bz = poly[(i + 1) % n]
        ex, ez = bx - ax, bz - az
        denom = ex * ex + ez * ez
        t = 0.0 if denom == 0.0 else ((px - ax) * ex + (pz - az) * ez) / denom
        # The comparisons of min(1.0, max(0.0, t)): _clip's would keep a
        # -0.0 or NaN t.
        t = t if t > 0.0 else 0.0
        t = t if t < 1.0 else 1.0
        cx, cz = ax + t * ex, az + t * ez
        # Products, not ** 2: a float's ** calls libm's pow, which can
        # round differently from the product substeps.c computes.
        dx, dz = px - cx, pz - cz
        d2 = dx * dx + dz * dz
        if d2 < best_d2:
            best_x, best_z, best_d2 = cx, cz, d2
    return best_x, best_z


def clamp_to_workspace(p: FootPosition, geometry: LegGeometry) -> FootPosition:
    """p itself where in_workspace(p) holds, else its projection onto the
    polygon boundary.

    The projection keeps the abduction angle of the original point and
    moves only the planar coordinates. A point laterally inside the offset
    cylinder falls back to a straight-down posture at the same depth.
    """
    if in_workspace(p, geometry):
        return p
    if _offset_radius2(p, geometry) < 0.0:
        abd, px, pz = 0.0, p.x, -abs(p.z)
    else:
        abd, px, pz = _abduction_split(p, geometry)
    if not _point_in_polygon(px, pz, geometry._edges):
        px, pz = _closest_point_on_polygon(px, pz, geometry._vertices)
    d = geometry.abduction_offset
    ca, sa = math.cos(abd), math.sin(abd)
    return FootPosition(px, d * ca - pz * sa, d * sa + pz * ca)
