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

    def test_normal_equals_numpy_cross_and_norm(self):
        # The fit written with np.cross and np.linalg.norm, against the
        # fit's float products, bit for bit: random rotations and feet, one
        # draw in five with a signed zero in a foot, and near-collinear
        # diagonals around the degenerate bound.
        def numpy_fit(snapshot):
            rot = snapshot.torso_rotation
            p_fl, p_fr, p_bl, p_br = (rot @ p for p in (
                snapshot.p_fl, snapshot.p_fr, snapshot.p_bl, snapshot.p_br))
            n = np.cross(p_fr - p_bl, p_fl - p_br)
            norm = float(np.linalg.norm(n))
            if norm < 1e-9:
                return None
            n = n / norm
            if n[2] < 0.0:
                n = -n
            return tuple(float(v) for v in n), angles_from_normal(n)

        rng = np.random.default_rng(1)
        seen = {"degenerate": 0, "fit": 0}
        for _ in range(4000):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            rot = q * np.sign(np.linalg.det(q))
            feet = rng.uniform(-0.3, 0.3, size=(4, 3))
            if rng.random() < 0.3:
                # FL - BR along FR - BL, give or take a few 1e-9.
                feet[0] = feet[3] + rng.normal() * (feet[1] - feet[2]) + rng.normal(
                    scale=10.0 ** rng.uniform(-10.0, -8.0), size=3)
            if rng.random() < 0.2:
                feet[rng.integers(4), rng.integers(3)] = rng.choice([0.0, -0.0])
            snapshot = ContactSnapshot(*feet, rot)
            expected = numpy_fit(snapshot)
            try:
                estimate = plane_from_contacts(snapshot)
                got = (estimate.normal, (estimate.roll, estimate.pitch))
            except DegenerateContacts:
                got = None
            assert got == expected
            seen["fit" if expected else "degenerate"] += 1
        assert min(seen.values()) > 100, seen

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

    def test_accepts_and_rejects_as_allclose_and_det(self):
        # The checks written as np.allclose(rot @ rot.T, np.eye(3),
        # atol=1e-6) and np.linalg.det(rot) < 0, against the snapshot's on
        # random rotations and reflections, perturbed on both sides of the
        # 1e-6 bound, and with a NaN or an infinity in one draw in ten.
        def numpy_checks(rot):
            if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
                return "orthonormal"
            if np.linalg.det(rot) < 0.0:
                return "right-handed"
            return None

        rng = np.random.default_rng(0)
        zero = np.zeros(3)
        seen = {"orthonormal": 0, "right-handed": 0, None: 0, "near": 0, "special": 0}
        for _ in range(4000):
            rot = np.linalg.qr(rng.normal(size=(3, 3)))[0] * rng.choice([-1.0, 1.0])
            rot = rot + rng.normal(scale=10.0 ** rng.uniform(-8.0, -5.0), size=(3, 3))
            if rng.random() < 0.1:
                rot[tuple(rng.integers(3, size=2))] = rng.choice([math.nan, math.inf, -math.inf])
                seen["special"] += 1
            deviation = np.abs(rot @ rot.T - np.eye(3)) - (1e-6 + 1e-5 * np.eye(3))
            seen["near"] += bool(np.abs(deviation).min() < 1e-7)
            expected = numpy_checks(rot)
            try:
                ContactSnapshot(zero, zero, zero, zero, rot)
                got = None
            except ValueError as err:
                got = str(err).rsplit(" ", 1)[-1]
            assert got == expected, rot.tolist()
            seen[expected] += 1
        assert min(seen.values()) > 200, seen


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
