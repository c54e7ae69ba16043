"""Each kinematics function computes, on an array, the bits of its float
call on every element, whatever the array's length and wherever the point
sits in it.

The environment computes the four legs' spawn posture in one array call
per function, the oracle of its compiled half-cycle plan runs a whole half
cycle that way, and lockstep lanes will rest on the same property: a
lane's result must not depend on the other lanes. Random points cover the
three cases of the workspace test: inside the polygon, projected back into
it (from inside the offset cylinder too), and out of the leg's reach,
where IK raises Unreachable exactly as the float call does.
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
LENGTHS = (1, 2, 7, 160)


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


def _arrays(points, shape=None):
    x, y, z = (np.array(c) for c in zip(*points))
    if shape is not None:
        x, y, z = x.reshape(shape), y.reshape(shape), z.reshape(shape)
    return FootPosition(x, y, z)


def _orders(n, rng):
    """Index orders of n points: as drawn, reversed and shuffled, each cut
    into arrays of every length in LENGTHS."""
    for order in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
        for length in LENGTHS:
            for start in range(0, n - length + 1, length):
                yield order[start:start + length].tolist()


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


def test_in_workspace_elementwise(geometry):
    rng = np.random.default_rng(1)
    points = _points(geometry, 480, rng)
    expected = [legkin.in_workspace(FootPosition(*p), geometry) for p in points]
    for idx in _orders(len(points), rng):
        got = legkin.in_workspace(_arrays([points[i] for i in idx]), geometry)
        assert got.tolist() == [expected[i] for i in idx]


def test_inverse_kinematics_elementwise(geometry):
    rng = np.random.default_rng(2)
    points = _points(geometry, 480, rng)
    expected = [_float_ik(FootPosition(*p), geometry) for p in points]
    for idx in _orders(len(points), rng):
        batch = _arrays([points[i] for i in idx])
        if any(expected[i] is None for i in idx):
            # Raised exactly when the float call raises on one of them.
            with pytest.raises(Unreachable):
                legkin.inverse_kinematics(batch, geometry)
            continue
        got = legkin.inverse_kinematics(batch, geometry)
        for joint in range(3):
            assert bits(got[joint]) == bits([expected[i][joint] for i in idx])


def test_inverse_kinematics_raises_on_any_unreachable_position(geometry):
    rng = np.random.default_rng(3)
    points = _points(geometry, 90, rng)
    reachable = [p for p in points if _float_ik(FootPosition(*p), geometry) is not None]
    unreachable = [p for p in points if _float_ik(FootPosition(*p), geometry) is None]
    for bad in unreachable:
        for pos in (0, 3, 7):
            batch = reachable[:pos] + [bad] + reachable[pos:7]
            with pytest.raises(Unreachable):
                legkin.inverse_kinematics(_arrays(batch), geometry)


def test_nan_points_are_outside_and_unreachable(geometry):
    # A NaN coordinate makes its point outside, elementwise, while the
    # other points stay inside, and makes IK raise as the float call does.
    rng = np.random.default_rng(11)
    inside = [p for p in _points(geometry, 60, rng)
              if legkin.in_workspace(FootPosition(*p), geometry)][:7]
    for axis in range(3):
        bad = list(inside[0])
        bad[axis] = math.nan
        assert legkin.in_workspace(FootPosition(*bad), geometry) is False
        with pytest.raises(Unreachable):
            legkin.inverse_kinematics(FootPosition(*bad), geometry)
        for pos in (0, 3, 7):
            batch = _arrays(inside[:pos] + [tuple(bad)] + inside[pos:])
            assert legkin.in_workspace(batch, geometry).tolist() == [
                i != pos for i in range(len(inside) + 1)]
            with pytest.raises(Unreachable):
                legkin.inverse_kinematics(batch, geometry)


def test_clamp_to_workspace_elementwise(geometry):
    rng = np.random.default_rng(9)
    points = _points(geometry, 480, rng)
    expected = [legkin.clamp_to_workspace(FootPosition(*p), geometry) for p in points]
    for idx in _orders(len(points), rng):
        got = legkin.clamp_to_workspace(_arrays([points[i] for i in idx]), geometry)
        for axis in range(3):
            assert bits(got[axis]) == bits([expected[i][axis] for i in idx])


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
    got = legkin.clamp_to_workspace(_arrays(inside), geometry)
    assert [bits(c) for c in got] == [bits(c) for c in zip(*inside)]


def test_forward_kinematics_elementwise(geometry):
    rng = np.random.default_rng(4)
    joints = rng.uniform(-2.0, 3.0, size=(480, 3))
    expected = [legkin.forward_kinematics(q.tolist(), geometry) for q in joints]
    for idx in _orders(len(joints), rng):
        got = legkin.forward_kinematics(joints[idx].T, geometry)
        for axis in range(3):
            assert bits(got[axis]) == bits([expected[i][axis] for i in idx])


def test_kinematics_on_two_dimensional_arrays(geometry):
    # The plan's own layout: steps by legs.
    points = _points(geometry, 240, np.random.default_rng(5))
    reachable = [p for p in points if _float_ik(FootPosition(*p), geometry) is not None][:120]
    batch = _arrays(reachable, (30, 4))
    got = legkin.inverse_kinematics(batch, geometry)
    fk = legkin.forward_kinematics(got, geometry)
    for i, p in enumerate(reachable):
        q = legkin.inverse_kinematics(FootPosition(*p), geometry)
        assert bits([g[i // 4, i % 4] for g in got]) == bits(q)
        assert bits([f[i // 4, i % 4] for f in fk]) == bits(legkin.forward_kinematics(q, geometry))
    assert legkin.in_workspace(batch, geometry).shape == (30, 4)


def test_trot_phase_elementwise():
    rng = np.random.default_rng(6)
    times = np.concatenate([np.arange(0, 800) * 0.005, rng.uniform(0.0, 100.0, 200)])
    for leg in gaitgen.LEG_ORDER:
        expected = [gaitgen.trot_phase(t, 0.4, leg) for t in times.tolist()]
        for idx in _orders(len(times), rng):
            assert bits(gaitgen.trot_phase(times[idx], 0.4, leg)) == bits(
                [expected[i] for i in idx])
    with pytest.raises(ValueError):
        gaitgen.trot_phase(np.array([0.1, -0.1]), 0.4, "FL")


def _actions(n, rng):
    """n leg actions, wide enough that many targets leave the workspace
    and some come near the abduction axis."""
    return [LegAction(rng.uniform(0.0, 0.2), rng.uniform(-0.6, 0.6), rng.uniform(-0.1, 0.1),
                      rng.uniform(-0.05, 0.05), rng.choice([rng.uniform(-0.08, 0.08), 0.24]))
            for _ in range(n)]


@pytest.mark.parametrize("checked", [False, True], ids=["foot_target", "checked_foot_target"])
def test_foot_targets_elementwise(geometry, checked):
    rng = np.random.default_rng(7)
    gait = GaitParams()
    taus = rng.uniform(0.0, 1.0, 480).tolist()
    actions = _actions(480, rng)

    def target(tau, action):
        if checked:
            return gaitgen.checked_foot_target(tau, action, gait, geometry)
        return gaitgen.foot_target(tau, action, gait)

    expected = [target(t, a) for t, a in zip(taus, actions)]
    if checked:
        outside = sum(not legkin.in_workspace(gaitgen.foot_target(t, a, gait), geometry)
                      for t, a in zip(taus, actions))
        assert outside > 50
    for idx in _orders(len(taus), rng):
        action = LegAction(*np.array([actions[i] for i in idx]).T)
        got = target(np.array([taus[i] for i in idx]), action)
        for axis in range(3):
            assert bits(got[axis]) == bits([expected[i][axis] for i in idx])


def test_foot_targets_broadcast_per_leg_actions(geometry):
    # The plan's call: phases of steps by legs, one action per leg.
    gait = GaitParams()
    rng = np.random.default_rng(8)
    actions = _actions(4, rng)
    taus = rng.uniform(0.0, 1.0, size=(40, 4))
    got = gaitgen.checked_foot_target(taus, LegAction(*np.array(actions).T), gait, geometry)
    for k in range(40):
        for leg in range(4):
            p = gaitgen.checked_foot_target(float(taus[k, leg]), actions[leg], gait, geometry)
            assert bits([g[k, leg] for g in got]) == bits(p)


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
