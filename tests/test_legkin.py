import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot.legkin import (
    DEFAULT_WORKSPACE,
    FootPosition,
    LegGeometry,
    Unreachable,
    clamp_to_workspace,
    forward_kinematics,
    in_workspace,
    inverse_kinematics,
)
from slopetrot.rotations import rot_x, rot_y

from conftest import sample_workspace_points


def fk_oracle(q, g: LegGeometry) -> np.ndarray:
    """Independent FK: build the chain from rotation matrices instead of
    the closed-form trig expressions under test."""
    abd, hip, knee = q
    upper = rot_y(-hip) @ np.array([0.0, 0.0, -g.upper_link_len])
    lower = rot_y(-(hip + knee)) @ np.array([0.0, 0.0, -g.lower_link_len])
    planar = upper + lower + np.array([0.0, g.abduction_offset, 0.0])
    return rot_x(abd) @ planar


class TestForwardKinematics:
    def test_result_is_a_plain_triple(self, geometry):
        q = (0.2, 0.3, 1.1)
        x, y, z = forward_kinematics(q, geometry)
        vec = np.array(forward_kinematics(q, geometry))
        assert vec.dtype == np.float64 and vec.shape == (3,)
        assert vec.tolist() == [x, y, z]

    def test_straight_down(self, geometry):
        p = forward_kinematics((0.0, 0.0, 0.0), geometry)
        assert np.array(p) == pytest.approx([0.0, 0.0, -0.325], abs=1e-12)

    def test_horizontal(self, geometry):
        p = forward_kinematics((0.0, math.pi / 2, 0.0), geometry)
        assert np.array(p) == pytest.approx([0.325, 0.0, 0.0], abs=1e-12)

    def test_matches_rotation_chain_oracle(self, geometry):
        q = (0.2, 0.3, -0.4)
        p = forward_kinematics(q, geometry)
        assert np.array(p) == pytest.approx(fk_oracle(q, geometry), abs=1e-12)

    def test_oracle_with_abduction_offset(self):
        g = LegGeometry(abduction_offset=0.04)
        for q in [(0.3, -0.5, 1.2), (-0.6, 0.9, 0.4)]:
            p = forward_kinematics(q, g)
            assert np.array(p) == pytest.approx(fk_oracle(q, g), abs=1e-12)

    @given(
        abd=st.floats(-0.7, 0.7),
        hip=st.floats(-1.6, 1.6),
        knee=st.floats(0.0, 2.6),
        eps=st.floats(-1e-4, 1e-4),
        axis=st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_continuity(self, abd, hip, knee, eps, axis):
        g = LegGeometry()
        base = [abd, hip, knee]
        bumped = list(base)
        bumped[axis] += eps
        p0 = np.array(forward_kinematics(base, g))
        p1 = np.array(forward_kinematics(bumped, g))
        bound = g.total_leg_length * abs(eps) + 1e-12
        assert np.linalg.norm(p1 - p0) <= bound


class TestInverseKinematics:
    def test_straight_down(self, geometry):
        q = inverse_kinematics(FootPosition(0.0, 0.0, -0.325), geometry)
        assert q == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_beyond_reach(self, geometry):
        with pytest.raises(Unreachable):
            inverse_kinematics(FootPosition(0.0, 0.0, -0.40), geometry)

    def test_inside_annulus_core(self, geometry):
        with pytest.raises(Unreachable):
            inverse_kinematics(FootPosition(0.0, 0.0, -0.01), geometry)

    @pytest.mark.parametrize("target", [(math.nan, 0.0, -0.2), (0.0, math.nan, -0.2),
                                        (0.0, 0.0, math.nan)])
    def test_nan_target_is_unreachable(self, geometry, target):
        with pytest.raises(Unreachable):
            inverse_kinematics(FootPosition(*target), geometry)

    def test_joint_limit_violation(self, geometry):
        # The target needs an abduction of atan2(-0.1, 0.3) + pi/2 = 1.25 rad,
        # beyond the 0.7 rad limit: IK returns the limit, not an error, and
        # the violation shows as a gap between the reached foot and the target.
        target = FootPosition(0.0, 0.3, -0.1)
        assert math.atan2(target.z, target.y) + math.pi / 2 > 0.7
        q = inverse_kinematics(target, geometry)
        assert q[0] == 0.7
        reached = np.array(forward_kinematics(q, geometry))
        assert np.linalg.norm(reached - np.array(target)) > 1e-3

    def test_clip_to_limits_clamps(self, geometry):
        q = inverse_kinematics(FootPosition(0.0, 0.3, -0.1), geometry)
        for angle, (lo, hi) in zip(q, geometry.joint_limits):
            assert lo <= angle <= hi

    def test_round_trip_over_workspace(self, geometry):
        # 1e4 uniform workspace samples, FK(IK) error < 1e-9 m
        points = sample_workspace_points(geometry, 10_000, seed=42)
        worst = 0.0
        for x, z in points:
            target = FootPosition(x, 0.0, z)
            q = inverse_kinematics(target, geometry)
            assert q[2] >= -1e-12  # backward-flexing branch only
            p = forward_kinematics(q, geometry)
            err = np.linalg.norm(np.array(p) - np.array(target))
            worst = max(worst, err)
        assert worst < 1e-9

    def test_round_trip_with_abduction(self):
        # build targets from the IK's own branch convention (planar point
        # below the hip, moderate abduction) and close the loop through FK
        g = LegGeometry(abduction_offset=0.03)
        rng = np.random.default_rng(7)
        for x, z in sample_workspace_points(g, 500, seed=11):
            abd = rng.uniform(-0.6, 0.6)
            planar = np.array([x, g.abduction_offset, z])
            target = rot_x(abd) @ planar
            p = FootPosition(*target)
            q = inverse_kinematics(p, g)
            assert q[0] == pytest.approx(abd, abs=1e-9)
            p2 = forward_kinematics(q, g)
            assert np.linalg.norm(np.array(p2) - np.array(p)) < 1e-9


class TestWorkspace:
    def test_centroid_inside(self, geometry):
        poly = np.asarray(geometry.workspace_polygon, dtype=float)
        cx, cz = poly.mean(axis=0)
        assert in_workspace(FootPosition(cx, 0.0, cz), geometry)

    def test_far_below_outside(self, geometry):
        assert not in_workspace(FootPosition(0.0, 0.0, -1.0), geometry)

    @pytest.mark.parametrize("point", [(math.nan, 0.0, -0.2), (0.0, math.nan, -0.2),
                                       (0.0, 0.0, math.nan)])
    def test_nan_point_outside(self, geometry, point):
        assert in_workspace(FootPosition(*point), geometry) is False

    def test_vertices_inclusive(self, geometry):
        for x, z in geometry.workspace_polygon:
            assert in_workspace(FootPosition(x, 0.0, z), geometry)

    def test_vertex_order_reversal(self, geometry):
        reversed_geo = LegGeometry(workspace_polygon=tuple(reversed(DEFAULT_WORKSPACE)))
        for x, z in sample_workspace_points(geometry, 200, seed=3):
            p = FootPosition(x, 0.0, z)
            assert in_workspace(p, geometry) == in_workspace(p, reversed_geo)
        assert not in_workspace(FootPosition(0.3, 0.0, -0.2), reversed_geo)

    def test_point_inside_offset_cylinder_is_outside(self):
        # The polygon reaches up to the hip, so it holds the planar point
        # (0.1, 0) that the split would give; no abduction angle reaches
        # the target all the same.
        g = LegGeometry(abduction_offset=0.02,
                        workspace_polygon=((0.03, 0.01), (0.2, 0.01), (0.2, -0.2), (0.03, -0.2)))
        p = FootPosition(0.1, 0.005, -0.005)
        assert in_workspace(FootPosition(0.1, 0.02, 0.0), g)
        assert not in_workspace(p, g)

    def test_clamp_projects_outside_points(self, geometry):
        p = clamp_to_workspace(FootPosition(0.3, 0.0, -0.2), geometry)
        assert in_workspace(FootPosition(p.x, p.y, p.z - 1e-12), geometry) or in_workspace(p, geometry)
        inside = FootPosition(0.0, 0.0, -0.25)
        assert clamp_to_workspace(inside, geometry) == inside

    def test_clamp_preserves_abduction(self):
        g = LegGeometry()
        p = FootPosition(0.0, 0.1, -0.35)  # below the polygon, abducted
        c = clamp_to_workspace(p, g)
        abd_in = math.atan2(p.z, p.y) + math.pi / 2
        abd_out = math.atan2(c.z, c.y) + math.pi / 2
        assert abd_out == pytest.approx(abd_in, abs=1e-9)


class TestGeometryValidation:
    def test_nonpositive_links(self):
        with pytest.raises(ValueError):
            LegGeometry(upper_link_len=0.0)

    def test_unreachable_vertex(self):
        poly = ((-0.05, -0.18), (0.05, -0.18), (0.2, -0.33), (-0.2, -0.33))
        with pytest.raises(ValueError):
            LegGeometry(workspace_polygon=poly)

    def test_nonconvex_polygon(self):
        poly = ((-0.05, -0.18), (0.05, -0.18), (0.0, -0.22), (0.05, -0.3), (-0.05, -0.3))
        with pytest.raises(ValueError):
            LegGeometry(workspace_polygon=poly)

    def test_bad_joint_limits(self):
        with pytest.raises(ValueError):
            LegGeometry(joint_limits=((0.5, -0.5), (-1.6, 1.6), (0.0, 2.6)))
