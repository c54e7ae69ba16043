import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot.gaitgen import (
    LEG_ORDER,
    GaitParams,
    LegAction,
    base_trajectory_point,
    checked_foot_target,
    foot_target,
    transform_point,
    trot_phase,
)
from slopetrot.legkin import FootPosition, LegGeometry


def reference_point(tau, step_len, params):
    """Direct transcription of the piecewise trajectory law, kept separate
    from the implementation for cross-checking."""
    ang = 2.0 * math.pi * (1.0 - tau)
    x = 0.5 * step_len * math.cos(ang)
    if tau < 0.5:
        z = -params.desired_height
    else:
        z = -params.desired_height + params.foot_clearance * math.sin(ang)
    return np.array([x, 0.0, z])


class TestTrotPhase:
    def test_front_left_starts_stance(self):
        assert trot_phase(0.0, 0.4, "FL") == 0.0

    def test_diagonal_offset(self):
        assert trot_phase(0.0, 0.4, "FR") == 0.5
        assert trot_phase(0.0, 0.4, "BL") == 0.5
        assert trot_phase(0.0, 0.4, "BR") == 0.0

    def test_wraps(self):
        assert trot_phase(0.6, 0.4, "FL") == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_pairs_share_phase(self):
        for t in np.linspace(0.0, 2.0, 41):
            assert trot_phase(t, 0.4, "FL") == trot_phase(t, 0.4, "BR")
            assert trot_phase(t, 0.4, "FR") == trot_phase(t, 0.4, "BL")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            trot_phase(-0.1, 0.4, "FL")
        with pytest.raises(ValueError):
            trot_phase(0.1, 0.0, "FL")


class TestBaseTrajectory:
    def test_stance_start(self, gait):
        pt = base_trajectory_point(0.0, LegAction(step_len=0.1), gait)
        assert pt == pytest.approx((0.05, 0.0, -0.243), abs=1e-12)

    def test_swing_apex(self, gait):
        pt = base_trajectory_point(0.75, LegAction(step_len=0.1), gait)
        assert pt == pytest.approx((0.0, 0.0, -0.183), abs=1e-12)

    def test_continuity_at_half(self, gait):
        a = LegAction(step_len=0.1)
        before = base_trajectory_point(0.5 - 1e-12, a, gait)
        after = base_trajectory_point(0.5, a, gait)
        assert before == pytest.approx(after, abs=1e-9)
        assert after == pytest.approx((-0.05, 0.0, -0.243), abs=1e-9)

    def test_continuity_at_wrap(self, gait):
        a = LegAction(step_len=0.1)
        end = base_trajectory_point(1.0 - 1e-12, a, gait)
        start = base_trajectory_point(0.0, a, gait)
        assert end == pytest.approx(start, abs=1e-9)

    def test_matches_reference_formula(self, gait):
        # acceptance-grade sweep: 1e3 phases against the transcribed law
        taus = np.linspace(0.0, 1.0, 1000, endpoint=False)
        a = LegAction(step_len=0.11)
        for tau in taus:
            pt = np.array(base_trajectory_point(float(tau), a, gait))
            assert pt == pytest.approx(reference_point(float(tau), 0.11, gait), abs=1e-12)

    def test_stance_height_exact(self, gait):
        a = LegAction(step_len=0.136)
        for tau in np.linspace(0.0, 0.5, 200, endpoint=False):
            assert base_trajectory_point(float(tau), a, gait)[2] == -gait.desired_height

    def test_swing_height_band(self, gait):
        a = LegAction(step_len=0.136)
        for tau in np.linspace(0.5, 1.0, 200, endpoint=False):
            z = base_trajectory_point(float(tau), a, gait)[2]
            assert -gait.desired_height - 1e-12 <= z <= -gait.desired_height + gait.foot_clearance

    def test_x_span_equals_step_len(self, gait):
        a = LegAction(step_len=0.09)
        xs = [base_trajectory_point(float(t), a, gait)[0]
              for t in np.linspace(0.0, 1.0, 4000, endpoint=False)]
        assert max(xs) - min(xs) == pytest.approx(0.09, abs=1e-9)

    def test_rejects_tau_out_of_range(self, gait):
        with pytest.raises(ValueError):
            base_trajectory_point(1.0, LegAction(), gait)


class TestTransform:
    def test_identity(self):
        assert transform_point((0.1, 0.0, -0.243), LegAction()) == pytest.approx(
            (0.1, 0.0, -0.243), abs=1e-15
        )

    def test_pure_yaw(self):
        out = transform_point((0.1, 0.0, -0.243), LegAction(steer=math.pi / 2))
        assert out == pytest.approx((0.0, 0.1, -0.243), abs=1e-12)

    def test_full_substitution(self):
        a = LegAction(steer=0.3, shift_x=-0.02, shift_y=0.01, shift_z=0.005)
        out = transform_point((0.05, 0.0, -0.243), a)
        expected = (-0.02 + 0.05 * math.cos(0.3), 0.01 + 0.05 * math.sin(0.3), -0.238)
        assert out == pytest.approx(expected, abs=1e-12)

    @given(
        x1=st.floats(-0.07, 0.07), z1=st.floats(-0.31, -0.18),
        x2=st.floats(-0.07, 0.07), z2=st.floats(-0.31, -0.18),
        alpha=st.floats(0.0, 1.0),
        steer=st.floats(-0.35, 0.35),
        sx=st.floats(-0.06, 0.06), sy=st.floats(-0.035, 0.035), sz=st.floats(-0.06, 0.06),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine_in_point(self, x1, z1, x2, z2, alpha, steer, sx, sy, sz):
        a = LegAction(0.1, steer, sx, sy, sz)
        p1 = np.array([x1, 0.0, z1])
        p2 = np.array([x2, 0.0, z2])
        blend = alpha * p1 + (1 - alpha) * p2
        t_blend = np.array(transform_point(tuple(blend), a))
        blend_t = alpha * np.array(transform_point(tuple(p1), a)) + (1 - alpha) * np.array(
            transform_point(tuple(p2), a)
        )
        assert t_blend == pytest.approx(blend_t, abs=1e-12)


class TestFootTarget:
    def test_diagonal_pair_symmetry(self, gait):
        a = LegAction(step_len=0.1, steer=0.1, shift_x=0.01, shift_y=-0.01, shift_z=0.02)
        for t in np.linspace(0.0, 0.8, 17):
            tau_fl = trot_phase(float(t), gait.cycle_period, "FL")
            tau_br = trot_phase(float(t), gait.cycle_period, "BR")
            assert foot_target(tau_fl, a, gait) == foot_target(tau_br, a, gait)

    def test_checked_target_clamps(self, gait, geometry):
        # at stance start the x excursion (+step/2 +shift) leaves the polygon
        bad = LegAction(step_len=0.136, shift_x=0.06, shift_z=-0.06)
        clamped = checked_foot_target(0.0, bad, gait, geometry)
        from slopetrot.legkin import clamp_to_workspace, in_workspace

        raw = foot_target(0.0, bad, gait)
        assert not in_workspace(raw, geometry)
        assert in_workspace(clamped, geometry)
        assert clamped == clamp_to_workspace(raw, geometry)

    def test_checked_target_passthrough_inside(self, gait, geometry):
        ok = LegAction(step_len=0.05)
        pt = checked_foot_target(0.25, ok, gait, geometry)
        assert (pt.x, pt.y, pt.z) == foot_target(0.25, ok, gait)

    def test_target_is_a_foot_position(self, gait, geometry):
        # An inside target passes through as the FootPosition foot_target
        # built, a plain (x, y, z) tuple.
        ok = LegAction(step_len=0.05)
        pt = checked_foot_target(0.25, ok, gait, geometry)
        assert isinstance(pt, FootPosition)
        assert pt == foot_target(0.25, ok, gait) == tuple(pt)
        assert np.array(pt).dtype == np.float64
