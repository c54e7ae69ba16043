"""The float kinematics swept over arrays of drawn leg-frame points.

Random points cover the three cases of the workspace test: inside the
polygon, projected back into it (from inside the offset cylinder too), and
out of the leg's reach, where IK raises Unreachable. Each call takes one
point and returns Python floats, and a bool for the workspace test.
"""

import math

import numpy as np
import pytest

from slopetrot import gaitgen, legkin
from slopetrot.gaitgen import GaitParams, LegAction
from slopetrot.legkin import FootPosition, LegGeometry, Unreachable
from slopetrot.rotations import rot_x

GEOMETRIES = {
    "no offset": LegGeometry(),
    "offset": LegGeometry(abduction_offset=0.02),
    # A polygon that reaches up to the hip's height, so that it holds the
    # planar point of a target inside the offset cylinder.
    "offset, high polygon": LegGeometry(
        abduction_offset=0.02,
        workspace_polygon=((0.03, 0.01), (0.2, 0.01), (0.2, -0.2), (0.03, -0.2))),
}


def bits(values) -> list:
    """The values' float64 bit patterns, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _points(geometry, n, rng):
    """n leg-frame points: a third in the workspace, a third outside the
    polygon but in the leg's annulus, and a third split between points out
    of reach and points inside the offset cylinder."""
    l1, l2 = geometry.upper_link_len, geometry.lower_link_len
    d = geometry.abduction_offset
    edges = geometry._edges
    points = []
    while len(points) < n:
        kind = len(points) % 3
        if kind == 2 and rng.random() < 0.5:
            # Near the abduction axis (inside the cylinder when d > 0).
            y, z = rng.uniform(-0.5, 0.5, size=2) * max(d, 0.01)
            points.append((rng.uniform(-0.1, 0.1), y, z))
            continue
        if kind == 2:
            radius = rng.choice([rng.uniform(0.0, abs(l1 - l2) * 0.9),
                                 rng.uniform(l1 + l2 + 1e-3, 0.5)])
        else:
            radius = rng.uniform(abs(l1 - l2), l1 + l2)
        angle = rng.uniform(-math.pi, 0.0)
        x, z = radius * math.cos(angle), radius * math.sin(angle)
        if kind == 0 and not legkin._point_in_polygon(x, z, edges):
            continue
        if kind == 1 and legkin._point_in_polygon(x, z, edges):
            continue
        points.append(tuple((rot_x(rng.uniform(-1.2, 1.2)) @ np.array([x, d, z])).tolist()))
    return points


def _float_ik(p, geometry):
    try:
        return legkin.inverse_kinematics(p, geometry)
    except Unreachable:
        return None


@pytest.fixture(params=sorted(GEOMETRIES))
def geometry(request):
    return GEOMETRIES[request.param]


def test_points_cover_every_case(geometry):
    points = _points(geometry, 480, np.random.default_rng(0))
    inside = [legkin.in_workspace(FootPosition(*p), geometry) for p in points]
    reachable = [_float_ik(FootPosition(*p), geometry) is not None for p in points]
    assert 100 < sum(inside) < 300
    assert 100 < sum(not i and r for i, r in zip(inside, reachable))
    assert 50 < sum(not r for r in reachable)


def test_inverse_kinematics_raises_on_any_unreachable_position(geometry):
    # Reach decided from the link lengths, away from the boundaries: IK
    # raises exactly on the points out of the annulus or inside the offset
    # cylinder, with the cylinder's own message for the latter.
    l1, l2 = geometry.upper_link_len, geometry.lower_link_len
    d = geometry.abduction_offset
    lo, hi = (l1 - l2) ** 2, (l1 + l2) ** 2
    seen = {"reachable": 0, "annulus": 0, "cylinder": 0}
    for p in _points(geometry, 480, np.random.default_rng(3)):
        rr = p[1] ** 2 + p[2] ** 2 - d ** 2
        r2 = p[0] ** 2 + rr
        if rr < -1e-9:
            with pytest.raises(Unreachable, match="point inside the abduction offset cylinder"):
                legkin.inverse_kinematics(FootPosition(*p), geometry)
            seen["cylinder"] += 1
        elif rr > 1e-9 and not lo - 1e-9 <= r2 <= hi + 1e-9:
            with pytest.raises(Unreachable, match="outside leg annulus"):
                legkin.inverse_kinematics(FootPosition(*p), geometry)
            seen["annulus"] += 1
        elif rr > 1e-9 and lo + 1e-9 < r2 < hi - 1e-9:
            assert len(legkin.inverse_kinematics(FootPosition(*p), geometry)) == 3
            seen["reachable"] += 1
    assert seen["reachable"] > 200
    assert seen["annulus"] > 50
    assert seen["cylinder"] > 50 or d == 0.0


def test_nan_points_are_outside_and_unreachable(geometry):
    # A NaN coordinate makes a point outside and makes IK raise, whichever
    # coordinate it is and wherever the point was.
    rng = np.random.default_rng(11)
    inside = [p for p in _points(geometry, 60, rng)
              if legkin.in_workspace(FootPosition(*p), geometry)][:7]
    assert len(inside) == 7
    for p in inside:
        for axis in range(3):
            bad = list(p)
            bad[axis] = math.nan
            assert legkin.in_workspace(FootPosition(*bad), geometry) is False
            with pytest.raises(Unreachable):
                legkin.inverse_kinematics(FootPosition(*bad), geometry)


def test_clamp_to_workspace_keeps_inside_points(geometry):
    # One rule decides "inside" for the test and the projection: a point
    # in_workspace accepts comes back with its own bits, also just inside
    # the offset cylinder's 1e-15 tolerance.
    d = geometry.abduction_offset
    points = _points(geometry, 240, np.random.default_rng(10))
    points.append((0.1, math.nextafter(d, 0.0), 1e-12))
    inside = [p for p in points if legkin.in_workspace(FootPosition(*p), geometry)]
    assert len(inside) > 50
    for p in inside:
        assert bits(legkin.clamp_to_workspace(FootPosition(*p), geometry)) == bits(p)


def test_float_calls_return_python_floats(geometry):
    gait = GaitParams()
    action = LegAction(0.1, 0.2, 0.0, 0.0, 0.0)
    values = [gaitgen.trot_phase(0.3, 0.4, "FR")]
    values += gaitgen.checked_foot_target(0.7, action, gait, geometry)
    q = legkin.inverse_kinematics(FootPosition(0.02, 0.01, -0.24), geometry)
    values += q
    values += legkin.forward_kinematics(q, geometry)
    values += legkin.clamp_to_workspace(FootPosition(0.0, 0.0, -0.4), geometry)
    assert all(type(v) is float for v in values)
    assert type(legkin.in_workspace(FootPosition(0.0, 0.0, -0.24), geometry)) is bool
