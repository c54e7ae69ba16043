import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot.rotations import rot_x, rot_y, rot_z
from slopetrot.simenv import TerrainPlane, terrain_grid
from slopetrot.slopeest import (
    ContactSnapshot,
    DegenerateContacts,
    PlaneEstimate,
    SlopeEstimator,
    angles_from_normal,
    plane_from_contacts,
)

SQUARE_STANCE = {
    "FL": np.array([0.25, 0.14, -0.24]),
    "FR": np.array([0.25, -0.14, -0.24]),
    "BL": np.array([-0.25, 0.14, -0.24]),
    "BR": np.array([-0.25, -0.14, -0.24]),
}


def snapshot_on_plane(terrain: TerrainPlane, torso_rot: np.ndarray) -> ContactSnapshot:
    """Place the four feet analytically on the terrain plane and express
    them in the body frame of the given torso rotation."""
    offs = ((0.25, 0.14), (0.27, -0.13), (-0.23, 0.15), (-0.26, -0.16))  # FL, FR, BL, BR
    feet = [torso_rot.T @ np.array([x, y, terrain.surface_height(x, y)]) for x, y in offs]
    return ContactSnapshot(*feet, torso_rot)


class TestAngleConvention:
    def test_flat(self):
        assert angles_from_normal([0.0, 0.0, 1.0]) == (0.0, 0.0)

    def test_uphill_pitch_positive(self):
        # plane z = x*tan(9 deg): normal leans backward, pitch = +9 deg
        th = math.radians(9.0)
        roll, pitch = angles_from_normal([-math.sin(th), 0.0, math.cos(th)])
        assert roll == pytest.approx(0.0, abs=1e-12)
        assert pitch == pytest.approx(th, abs=1e-12)

    def test_roll_sign(self):
        th = math.radians(7.0)
        roll, pitch = angles_from_normal([0.0, math.sin(th), math.cos(th)])
        assert roll == pytest.approx(th, abs=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)


class TestPlaneFromContacts:
    def test_flat_square_identity(self):
        snap = ContactSnapshot(torso_rotation=np.eye(3), **{
            "p_fl": SQUARE_STANCE["FL"], "p_fr": SQUARE_STANCE["FR"],
            "p_bl": SQUARE_STANCE["BL"], "p_br": SQUARE_STANCE["BR"],
        })
        est = plane_from_contacts(snap)
        assert est.normal == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        assert (est.roll, est.pitch) == (0.0, 0.0)

    def test_nine_degree_uphill(self):
        terrain = TerrainPlane(9.0, 0.0)
        est = plane_from_contacts(snapshot_on_plane(terrain, np.eye(3)))
        assert est.pitch == pytest.approx(math.radians(9.0), abs=1e-6)
        assert est.roll == pytest.approx(0.0, abs=1e-6)

    def test_all_grid_combos_arbitrary_torso_yaw(self):
        # analytic feet on each training plane, torso spun arbitrarily:
        # recovered inclination within 1e-6 rad
        rng = np.random.default_rng(5)
        for inc, ori in terrain_grid():
            terrain = TerrainPlane(inc, ori)
            torso = (
                rot_z(rng.uniform(-math.pi, math.pi))
                @ rot_y(rng.uniform(-0.3, 0.3))
                @ rot_x(rng.uniform(-0.3, 0.3))
            )
            est = plane_from_contacts(snapshot_on_plane(terrain, torso))
            inclination = math.acos(est.normal[2])
            assert inclination == pytest.approx(math.radians(inc), abs=1e-6)
            assert np.asarray(est.normal) == pytest.approx(terrain.normal(), abs=1e-6)

    def test_collinear_contacts_degenerate(self):
        feet = [np.array([i * 0.1, i * 0.05, -0.2]) for i in range(4)]
        snap = ContactSnapshot(*feet, np.eye(3))
        with pytest.raises(DegenerateContacts):
            plane_from_contacts(snap)

    def test_torso_rotation_invariance(self):
        # same physical plane seen from two different torso attitudes
        terrain = TerrainPlane(7.0, 30.0)
        r1 = rot_z(0.4) @ rot_x(0.1)
        r2 = rot_y(-0.2) @ rot_z(-1.1)
        e1 = plane_from_contacts(snapshot_on_plane(terrain, r1))
        e2 = plane_from_contacts(snapshot_on_plane(terrain, r2))
        assert e1.roll == pytest.approx(e2.roll, abs=1e-9)
        assert e1.pitch == pytest.approx(e2.pitch, abs=1e-9)

    @given(
        inc=st.floats(0.0, 0.3), ori=st.floats(0.0, math.pi / 2),
        yaw=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_normal_always_up(self, inc, ori, yaw):
        terrain = TerrainPlane(math.degrees(inc), math.degrees(ori))
        est = plane_from_contacts(snapshot_on_plane(terrain, rot_z(yaw)))
        assert est.normal[2] > 0.0


class TestSnapshotValidation:
    def test_requires_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            ContactSnapshot(
                p_fl=np.zeros(3), p_fr=np.zeros(3), p_bl=np.zeros(3), p_br=np.zeros(3),
                torso_rotation=np.eye(3) * 2.0,
            )


class TestSlopeEstimator:
    def test_starts_flat(self):
        est = SlopeEstimator()
        assert est.estimate == PlaneEstimate.flat()

    def test_degenerate_returns_previous_and_flags(self):
        est = SlopeEstimator()
        good = snapshot_on_plane(TerrainPlane(9.0, 0.0), np.eye(3))
        first = est.update(good)
        feet = [np.array([i * 0.1, 0.0, 0.0]) for i in range(4)]
        bad = ContactSnapshot(*feet, np.eye(3))
        out = est.update(bad)
        assert est.last_degenerate
        assert out == first

    def test_optional_lowpass(self):
        est = SlopeEstimator(smoothing=0.5)
        snap = snapshot_on_plane(TerrainPlane(9.0, 0.0), np.eye(3))
        e1 = est.update(snap)
        assert 0.0 < e1.pitch < math.radians(9.0)
        for _ in range(40):
            est.update(snap)
        assert est.estimate.pitch == pytest.approx(math.radians(9.0), abs=1e-6)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            SlopeEstimator(smoothing=0.0)
