import math
from pathlib import Path

import numpy as np
import pytest

from slopetrot import gaitgen, legkin
from slopetrot.gaitgen import ZERO_ACTION, LegAction
from slopetrot.policy import (
    act,
    linear_controller,
    load_policy,
    scale_clip_action,
    zero_policy,
)
from slopetrot.reward import StandingMonitor
from slopetrot.simenv import (
    STANCE_PAIRS,
    NotReset,
    PushEvent,
    RandomizationConfig,
    SimParams,
    SlopedTerrainEnv,
    TerrainPlane,
    sample_terrain,
    schedule_push,
    stage_combos,
    terrain_grid,
)
from slopetrot.slopeest import PlaneEstimate, angles_from_normal
from slopetrot.substeps import IN_CONTACT, TOUCHED

NO_PUSH = RandomizationConfig(push_enabled=False)
ZEROS = (ZERO_ACTION,) * 4


def snapshot_state(env):
    s = env.state
    return dict(
        com=s.com.copy(), rot=s.rot.copy(), vel=s.vel.copy(), omega=s.omega.copy(),
        joints=s.joints.copy(), feet=s.feet_body.copy(), step=s.step_index,
    )


class TestTerrain:
    def test_grid_has_29_combos(self):
        grid = terrain_grid()
        assert len(grid) == 29
        assert (0, 0) in grid
        assert sum(1 for inc, _ in grid if inc == 0) == 1

    def test_stage1_has_15_combos(self):
        assert len(stage_combos(1)) == 15

    def test_normal_flat(self):
        assert TerrainPlane(0.0, 0.0).normal() == pytest.approx([0, 0, 1])

    def test_surface_height_uphill(self):
        t = TerrainPlane(9.0, 0.0)
        assert t.surface_height(1.0, 0.0) == pytest.approx(math.tan(math.radians(9.0)))
        assert t.surface_height(0.0, 5.0) == pytest.approx(0.0)

    def test_normal_orthogonal_to_surface(self):
        t = TerrainPlane(11.0, 45.0)
        n = t.normal()
        for x, y in [(1.0, 0.0), (0.0, 1.0), (0.3, -0.7)]:
            p = np.array([x, y, t.surface_height(x, y)])
            assert abs(n @ p) < 1e-12


class TestSampling:
    def test_stage1_never_steep(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            t = sample_terrain(1, rng)
            assert t.inclination_deg in (0, 5, 7)
            assert 0.5 <= t.friction <= 0.8

    def test_zero_inclination_zero_yaw(self):
        rng = np.random.default_rng(1)
        for _ in range(3000):
            t = sample_terrain(2, rng)
            if t.inclination_deg == 0:
                assert t.yaw_deg == 0

    def test_stage2_steep_twice_as_likely(self):
        rng = np.random.default_rng(2)
        counts = {}
        n = 100_000
        for _ in range(n):
            t = sample_terrain(2, rng)
            counts[t.inclination_deg] = counts.get(t.inclination_deg, 0) + 1
        p_steep = (counts.get(9, 0) + counts.get(11, 0)) / n
        p_mod = (counts.get(5, 0) + counts.get(7, 0)) / n
        assert p_steep == pytest.approx(2.0 * p_mod, rel=0.02)

    def test_push_schedule_window(self):
        rng = np.random.default_rng(3)
        ev = schedule_push(RandomizationConfig(), 400, rng)
        assert ev.start_step == 200 and ev.stop_step == 210
        assert 60.0 <= abs(ev.force_y) <= 120.0

    def test_push_disabled(self):
        rng = np.random.default_rng(3)
        assert schedule_push(NO_PUSH, 400, rng) is None

    def test_push_magnitude_uniform(self):
        mags = []
        for seed in range(4000):
            ev = schedule_push(RandomizationConfig(), 400, np.random.default_rng(seed))
            mags.append(abs(ev.force_y))
        mags = np.array(mags)
        assert mags.min() >= 60.0 and mags.max() <= 120.0
        assert mags.mean() == pytest.approx(90.0, abs=1.0)
        assert np.percentile(mags, 25) == pytest.approx(75.0, abs=1.5)


class TestReset:
    def test_flat_reset_observation_zero(self):
        env = SlopedTerrainEnv()
        obs = env.reset(TerrainPlane(), NO_PUSH, seed=0)
        assert obs == pytest.approx(np.zeros(11), abs=1e-12)

    def test_same_seed_identical_state(self):
        env1 = SlopedTerrainEnv()
        env1.reset(TerrainPlane(7, 30), RandomizationConfig(), seed=5)
        env2 = SlopedTerrainEnv()
        env2.reset(TerrainPlane(7, 30), RandomizationConfig(), seed=5)
        s1, s2 = snapshot_state(env1), snapshot_state(env2)
        for key in ("com", "rot", "vel", "omega", "joints", "feet"):
            assert np.array_equal(s1[key], s2[key]), key
        assert env1.mass == env2.mass
        assert env1.foot_force_cap == env2.foot_force_cap
        assert env1.push == env2.push

    def test_spawn_aligned_on_sidehill(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(11, 90), NO_PUSH, seed=0)
        terrain_roll, terrain_pitch = angles_from_normal(TerrainPlane(11, 90).normal())
        row = env.log_row()
        assert row["torso_roll"] == pytest.approx(terrain_roll, abs=1e-9)
        assert row["torso_pitch"] == pytest.approx(terrain_pitch, abs=1e-9)

    def test_spawn_height(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(9, 45), NO_PUSH, seed=0)
        n = TerrainPlane(9, 45).normal()
        body_origin = env.state.com - env.state.rot @ env.com_offset_body
        assert body_origin @ n == pytest.approx(0.243, abs=1e-9)

    def test_step_before_reset_raises(self):
        env = SlopedTerrainEnv()
        with pytest.raises(NotReset):
            env.step(ZEROS)

    def test_incompatible_height_rejected(self):
        from slopetrot.gaitgen import GaitParams
        from slopetrot.simenv import ConfigError

        with pytest.raises(ConfigError):
            SlopedTerrainEnv(gait=GaitParams(desired_height=0.4))


class TestParamValidation:
    NAN = float("nan")

    @pytest.mark.parametrize("kwargs", [
        {"motor_moment_arm": 0.0},
        {"track_time_const": -0.02},
        {"track_time_const": NAN},
        {"torso_dims": (0.55, 0.0, 0.1)},
        {"torso_dims": (0.55, 0.3)},
        {"contact_kp": -1.0},
        {"contact_kd": NAN},
        {"tangential_damping": -300.0},
        {"gravity": -9.81},
        {"gravity": math.inf},
        {"fall_height_frac": NAN},
        {"estimator_smoothing": 1.5},
        {"episode_len": 0},
        # Box inertias below the smallest normal float, zero, and inf.
        {"torso_dims": (1e-160, 1e-160, 1e-160)},
        {"torso_dims": (1e-200, 1e-200, 1e-200)},
        {"torso_dims": (1e200, 0.3, 0.1)},
    ])
    def test_sim_params_rejected(self, kwargs):
        from slopetrot.simenv import ConfigError

        with pytest.raises(ConfigError):
            SimParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"added_mass_range": (-0.1, 0.2)},
        {"added_mass_range": (0.2, 0.1)},
        {"push_force_range": (NAN, 120.0)},
        {"friction_range": (0.5, NAN)},
        {"motor_torque_range": (0.0, 8.0)},
        {"motor_torque_range": (8.0, 5.0)},
        {"push_duration_steps": 0},
    ])
    def test_randomization_rejected(self, kwargs):
        from slopetrot.simenv import ConfigError

        with pytest.raises(ConfigError):
            RandomizationConfig(**kwargs)

    @pytest.mark.parametrize("args", [
        (90.0, 0.0), (-90.0, 0.0), (NAN, 0.0), (math.inf, 0.0),
        (5.0, NAN), (5.0, -math.inf), (5.0, 0.0, -0.1), (5.0, 0.0, NAN), (5.0, 0.0, math.inf),
    ])
    def test_terrain_rejected(self, args):
        from slopetrot.simenv import ConfigError

        with pytest.raises(ConfigError):
            TerrainPlane(*args)

    @pytest.mark.parametrize("args", [
        (-1, 5, 80.0), (5, 5, 80.0), (6, 5, 80.0), (0, 5, NAN), (0, 5, math.inf),
    ])
    def test_push_rejected(self, args):
        from slopetrot.simenv import ConfigError

        with pytest.raises(ConfigError):
            PushEvent(*args)

    def test_boundary_values_accepted(self):
        SimParams(contact_kp=0.0, contact_kd=0.0, tangential_damping=0.0, gravity=0.0,
                  fall_height_frac=0.0, estimator_smoothing=1.0)
        TerrainPlane(89.9, -720.0, 0.0)
        PushEvent(0, 1, -80.0)
        RandomizationConfig(added_mass_range=(0.0, 0.0), push_force_range=(0.0, 0.0),
                            friction_range=(0.0, 0.0), motor_torque_range=(5.0, 5.0),
                            push_duration_steps=1)


class TestStepDeterminism:
    def test_trajectories_bitwise_identical(self):
        rolls = []
        for _ in range(2):
            env = SlopedTerrainEnv()
            obs = env.reset(TerrainPlane(7, 15), RandomizationConfig(), seed=11)
            trace = []
            m = zero_policy()
            for _ in range(150):
                obs, r, done, info = env.step(scale_clip_action(act(m, obs)))
                trace.append((r, env.state.com.copy(), env.state.rot.copy()))
            rolls.append(trace)
        for (r1, c1, q1), (r2, c2, q2) in zip(*rolls):
            assert r1 == r2
            assert np.array_equal(c1, c2)
            assert np.array_equal(q1, q2)


GUIDED_SEED7 = Path(__file__).resolve().parent.parent / "perfbench" / "policy_guided_seed7.txt"


def _episode(matrix, terrain, rand, seed, steps=240):
    env = SlopedTerrainEnv(sim=SimParams(episode_len=steps))
    obs = env.reset(terrain, rand, seed=seed)
    total, done = 0.0, False
    while not done:
        obs, r, done, _ = env.step(scale_clip_action(act(matrix, obs)))
        total += r
    return total, [float(v).hex() for v in env.state.com]


def _pinned_episode(env, obs, controller):
    """Return, final com and step count of the episode env was reset for,
    floats as float.hex."""
    total, done = 0.0, False
    while not done:
        obs, r, done, _ = env.step(controller(obs))
        total += r
    return (total.hex(), [float(v).hex() for v in env.state.com],
            env.state.step_index)


class TestGoldenTrajectory:
    """Exact return and final torso position of short episodes.

    The values pin the bits a step computes, so a change meant to compute
    the same thing faster must reproduce them with ==. They also pin the
    BLAS they were recorded with (the OpenBLAS 0.3.31 that numpy 2.4.6
    bundles, on x86-64): the step's small matrix products round differently
    under another BLAS build or CPU kernel, so there the values must be
    recorded anew from a trusted commit.
    """

    def test_flat_zero_policy_no_push(self):
        total, com = _episode(zero_policy(), TerrainPlane(), NO_PUSH, seed=3)
        assert total.hex() == "0x1.482cc25e185e9p+10"
        assert com == ["0x1.500dd6204e5f4p-2", "0x1.5eeb2e04071b0p-5", "0x1.ee4acc737b53fp-3"]

    def test_slope_guided_policy_with_push(self):
        # 9 deg at 30 deg yaw with the mid-episode push: exercises the
        # workspace clamp (63 clamped foot targets) and the steer channels.
        total, com = _episode(load_policy(GUIDED_SEED7), TerrainPlane(9, 30),
                              RandomizationConfig(), seed=7)
        assert total.hex() == "0x1.1db60523310a3p+10"
        assert com == ["0x1.4bba03013a953p-3", "-0x1.2367952f85565p-3", "0x1.0c5218c942011p-2"]

    def test_pushed_over_falls(self):
        # A 2000 N shove on an 11 deg sidehill tips the torso: the fall
        # check ends the episode early.
        env = SlopedTerrainEnv(sim=SimParams(episode_len=240))
        obs = env.reset(TerrainPlane(11, 90), NO_PUSH, seed=1)
        env.set_push(100, 140, 2000.0)
        assert _pinned_episode(env, obs, lambda o: ZEROS) == (
            "0x1.7a1fed9ea734fp+8",
            ["0x1.63dbc9ab013d8p-9", "0x1.608bd2ff6320ap-1", "0x1.f4c4faf5d990ap-3"],
            119,
        )

    def test_low_friction_slides(self):
        # At friction 0.2 the stance feet slip on the 9 deg slope: the
        # Coulomb clamp bounds the tangential force and the torso slides
        # downhill.
        env = SlopedTerrainEnv(sim=SimParams(episode_len=240))
        obs = env.reset(TerrainPlane(9, 30, 0.2), RandomizationConfig(), seed=7)
        controller = linear_controller(load_policy(GUIDED_SEED7))
        assert _pinned_episode(env, obs, controller) == (
            "0x1.3779b536c22fcp+9",
            ["-0x1.8a1ced5abed78p-3", "-0x1.81ee87421f6b1p-2", "0x1.8f8165eb309b3p-3"],
            240,
        )


class TestGoldenWithAbductionOffset:
    """An exact episode on legs with a 2 cm abduction offset, where most
    foot targets are projected back into the workspace.

    The other goldens use offset 0, which multiplies the offset terms of
    forward kinematics and of the projection by zero. Here those terms
    count, and some targets fall inside the offset cylinder, where the
    projection falls back to a straight-down posture. The episode length
    is not a whole number of half cycles, and the push is on.
    """

    # Three scripted actions, latched in turn: full step and steer at the
    # shift limits, steered strides shifted the other way, and a front pair
    # lifted to the hip height.
    ACTIONS = (
        (LegAction(0.136, 0.35, 0.06, 0.035, 0.06),) * 4,
        tuple(LegAction(0.12, s, -0.06, -0.03, 0.05) for s in (0.3, -0.3, 0.2, -0.2)),
        (LegAction(0.05, 0.0, 0.0, 0.0, 0.24),) * 2 + (LegAction(0.1, 0.1, 0.02, 0.02, 0.0),) * 2,
    )

    def test_scripted_actions_projected_targets(self):
        env = SlopedTerrainEnv(geometry=legkin.LegGeometry(abduction_offset=0.02),
                               sim=SimParams(episode_len=230))
        obs = env.reset(TerrainPlane(7, 45), RandomizationConfig(), seed=4)

        def controller(o):
            return self.ACTIONS[env.state.step_index // env.steps_per_half % 3]

        # 614 of the 920 targets are projected, 86 of them from inside the
        # offset cylinder.
        assert _pinned_episode(env, obs, controller) == (
            "0x1.b3cb830cdd0d3p+8",
            ["0x1.6f4b49e566dc2p-8", "0x1.38bb647383504p-8", "0x1.47c3541bd8c08p-2"],
            230,
        )


class TestEpisodeDriver:
    def test_controller_asked_only_on_latching_steps(self):
        env = SlopedTerrainEnv(sim=SimParams(episode_len=120))
        obs = env.reset(TerrainPlane(), NO_PUSH, seed=1)
        asked_at = []

        def controller(o):
            asked_at.append(env.state.step_index)
            return ZEROS

        assert len(list(env.run(obs, controller))) == 120
        assert asked_at == [0, 40, 80]

    def test_matches_step_loop(self):
        # _episode steps with a fresh action every step; the driver must
        # give the same bits while asking for one action per half cycle.
        matrix = load_policy(GUIDED_SEED7)
        terrain, rand = TerrainPlane(9, 30), RandomizationConfig()
        env = SlopedTerrainEnv(sim=SimParams(episode_len=240))
        obs = env.reset(terrain, rand, seed=7)
        total = 0.0
        for r, _ in env.run(obs, linear_controller(matrix)):
            total += r
        assert (total, [float(v).hex() for v in env.state.com]) == _episode(
            matrix, terrain, rand, seed=7)


class TestBehavior:
    def test_zero_action_stands_and_penalized(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        rewards = []
        for _ in range(60):
            _, r, done, info = env.step(ZEROS)
            rewards.append((r, info["standing"]))
            assert not done
        assert not rewards[48][1]
        assert rewards[49][1]  # flag raised on the 50th stationary step
        assert rewards[49][0] == pytest.approx(rewards[48][0] - 1.0, abs=0.05)
        assert abs(env.state.com[0]) < 0.02

    def test_zero_matrix_policy_walks(self):
        env = SlopedTerrainEnv()
        obs = env.reset(TerrainPlane(), NO_PUSH, seed=1)
        m = zero_policy()
        x0 = env.state.com[0]
        for _ in range(200):
            obs, _, done, _ = env.step(scale_clip_action(act(m, obs)))
            assert not done
        assert env.state.com[0] - x0 > 0.15  # step-length midpoint carries it forward

    def test_tip_over_terminates(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        from slopetrot.rotations import rot_x

        env.state.rot = rot_x(math.radians(60.0))
        _, _, done, info = env.step(ZEROS)
        assert done and info["fall"]

    def test_state_arrays_are_fresh_each_step(self):
        # The step hands out new com, vel, omega and rot arrays: arrays a
        # caller kept from an earlier step do not change under it.
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(7, 30), NO_PUSH, seed=1)
        held = [getattr(env.state, k) for k in ("com", "vel", "omega", "rot")]
        kept = [a.copy() for a in held]
        env.step(ZEROS)
        env.step(ZEROS)
        assert all(np.array_equal(a, b) for a, b in zip(held, kept))
        assert not np.array_equal(env.state.com, kept[0])

    def test_nonfinite_state_is_a_fall(self):
        for field, value in [
            ("vel", (math.nan, 0.0, 0.0)),
            # Angular velocities whose rotation angle overflows to inf.
            ("omega", (0.0, 0.0, 1e155)),
            ("omega", (0.0, 0.0, 1e200)),
        ]:
            env = SlopedTerrainEnv()
            env.reset(TerrainPlane(), NO_PUSH, seed=1)
            getattr(env.state, field)[:] = value
            _, _, done, info = env.step(ZEROS)
            assert done and info["fall"], (field, value)

    @pytest.mark.parametrize("latch_step", [0, 40])
    @pytest.mark.parametrize("action", [
        (LegAction(*[math.nan] * 5),) * 4,
        (ZERO_ACTION, ZERO_ACTION._replace(steer=math.inf), ZERO_ACTION, ZERO_ACTION),
    ], ids=["all-nan", "one-inf"])
    def test_nonfinite_action_is_a_fall(self, action, latch_step):
        # A non-finite action has no foot target. The step that latches it
        # ends the episode as a fall with a non-finite reward, which the
        # ARS update counts as a degenerate iteration, instead of raising.
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(7, 30), NO_PUSH, seed=1)
        for _ in range(latch_step):
            assert not env.step(ZEROS)[2]
        _, reward, done, info = env.step(action)
        assert done and info["fall"] and not math.isfinite(reward)
        assert env.state.step_index == latch_step + 1

    @pytest.mark.parametrize("latch_step", [0, 40])
    @pytest.mark.parametrize("field, value", [
        ("step_len", 1e300), ("shift_x", 1e300), ("shift_y", 1e300), ("shift_z", -1e300),
    ])
    def test_huge_finite_action_is_unreachable(self, field, value, latch_step):
        # The foot target's squared distances to the workspace edges
        # overflow to inf, no edge is nearer than inf, and the projected
        # target is NaN, which IK rejects. The plan gives it NaN joints, so
        # the step that latches it ends the episode as a fall with a
        # non-finite reward.
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(7, 30), NO_PUSH, seed=1)
        for _ in range(latch_step):
            assert not env.step(ZEROS)[2]
        _, reward, done, info = env.step((ZERO_ACTION._replace(**{field: value}),) * 4)
        assert done and info["fall"] and not math.isfinite(reward)
        assert env.state.step_index == latch_step + 1

    def test_huge_steer_steps_normally(self):
        # cos and sin of a huge angle are finite, so the target is too.
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(7, 30), NO_PUSH, seed=1)
        for _ in range(80):
            assert not env.step((ZERO_ACTION._replace(steer=1e300),) * 4)[2]
        assert np.isfinite(env.state.com).all()

    def test_sunk_torso_terminates(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        env.state.com[2] = 0.05
        _, _, done, info = env.step(ZEROS)
        assert done and info["fall"]

    def test_free_flight_gravity_only(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        env.state.com[2] += 1.0  # lift all feet clear of the plane
        v0 = env.state.vel.copy()
        env.step(ZEROS)
        dv = env.state.vel - v0
        assert dv == pytest.approx([0.0, 0.0, -9.81 * 0.005], abs=1e-9)

    def test_frictionless_contacts_push_along_normal_only(self):
        # At friction 0 the Coulomb clamp lets no tangential contact force
        # through, so the in-plane part of the velocity changes by
        # gravity's in-plane part alone.
        terrain = TerrainPlane(9, 30, 0.0)
        env = SlopedTerrainEnv()
        obs = env.reset(terrain, NO_PUSH, seed=4)
        v0 = env.state.vel.copy()
        controller = linear_controller(zero_policy())
        for _ in range(200):
            obs, _, done, _ = env.step(controller(obs))
            assert not done
        n = terrain.normal()
        g = np.array([0.0, 0.0, -env.sim.gravity])
        dv = env.state.vel - v0
        expected = (g - g.dot(n) * n) * (200 * env.sim.dt)
        assert dv - dv.dot(n) * n == pytest.approx(expected, abs=1e-12)

    def test_push_window_applies_lateral_force(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=2)
        env.set_push(10, 20, 80.0)
        vy = []
        for _ in range(30):
            env.step(ZEROS)
            vy.append(env.state.vel[1])
        assert abs(vy[5]) < 1e-3
        assert vy[19] > 0.05  # lateral speed built up during the window

    def test_push_disabled_no_force(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=2)
        assert env.push is None

    def test_energy_bounded_after_settling(self):
        # After the transient the in-place trot is a damped limit cycle
        # (touchdown impacts inject, contact damping removes): no window may
        # show cumulative energy growth.
        env = SlopedTerrainEnv(sim=SimParams(episode_len=5000))
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        for _ in range(1000):
            env.step(ZEROS)
        energies = []
        for _ in range(3000):
            env.step(ZEROS)
            energies.append(env.mechanical_energy())
        windows = [np.array(energies[i : i + 1000]) for i in (0, 1000, 2000)]
        for w in windows[1:]:
            assert w.mean() <= windows[0].mean() + 2e-3
            assert w.max() <= windows[0].max() + 5e-3

    def test_workspace_clamp_keeps_episode_alive(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        wild = LegAction(step_len=0.136, steer=0.3, shift_x=0.06, shift_y=0.035, shift_z=-0.06)
        a = (wild,) * 4
        for _ in range(100):
            _, _, done, _ = env.step(a)
        assert not done

    def test_done_blocks_further_steps(self):
        env = SlopedTerrainEnv(sim=SimParams(episode_len=5))
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        for _ in range(5):
            _, _, done, _ = env.step(ZEROS)
        assert done
        with pytest.raises(NotReset):
            env.step(ZEROS)


def _steps(env, count, action=ZEROS):
    """Step env count times; each step's reward and com, vel, omega and
    rot as float.hex, and whether it was done."""
    out = []
    for _ in range(count):
        _, r, done, _ = env.step(action)
        s = env.state
        out.append((r.hex(), [v.hex() for a in (s.com, s.vel, s.omega, s.rot)
                              for v in a.ravel().tolist()], done))
    return out


def _walking_env(push=None):
    env = SlopedTerrainEnv()
    env.reset(TerrainPlane(7, 30), NO_PUSH, seed=3)
    if push is not None:
        env.set_push(*push)
    return env


WALK = (LegAction(0.1, 0.05, 0.01, 0.0, 0.0),) * 4


class TestEditsBetweenSteps:
    """The step runs the torso through the rest of a half cycle when it
    latches an action, reading the state then; edits made between the
    steps of a half cycle act at the next step, as they would if each step
    read the state afresh."""

    def test_set_push_mid_half_cycle_acts_at_next_step(self):
        scripted = _steps(_walking_env((45, 55, 90.0)), 100, WALK)
        env = _walking_env()
        late = _steps(env, 43, WALK)
        env.set_push(45, 55, 90.0)  # step 43 is row 3 of a half cycle
        assert late + _steps(env, 57, WALK) == scripted
        assert scripted != _steps(_walking_env(), 100, WALK)

    def test_push_shortened_inside_its_window(self):
        shortened = _walking_env((45, 55, 90.0))
        steps = _steps(shortened, 50, WALK)
        shortened.set_push(45, 50, 90.0)
        steps += _steps(shortened, 50, WALK)
        assert steps == _steps(_walking_env((45, 50, 90.0)), 100, WALK)

    @pytest.mark.parametrize("field", ["com", "vel", "omega", "rot", "joints", "feet_body"])
    def test_replacing_an_array_by_its_copy_changes_nothing(self, field):
        # The rest of the half cycle runs again from the replaced array and
        # the contact memory of the last step, with the same bits.
        env = _walking_env((45, 55, 90.0))
        steps = []
        for at in (7, 40, 58):
            steps += _steps(env, at - env.state.step_index, WALK)
            setattr(env.state, field, getattr(env.state, field).copy())
        steps += _steps(env, 100 - env.state.step_index, WALK)
        assert steps == _steps(_walking_env((45, 55, 90.0)), 100, WALK)

    def test_shifted_com_moves_dx_but_not_the_standing_window(self):
        # Standing in place on flat ground, the com is replaced in mid half
        # cycle by a copy 5 cm ahead. The next step's forward displacement
        # is measured from the edited com, while the standing window keeps
        # the positions the steps served, as a StandingMonitor fed each
        # served com x does: the shift keeps the flag down for the 50 steps
        # after the edit.
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        monitor = StandingMonitor()
        monitor.reset(env.state.com.item(0))
        before, flags, expected = env.state.com.item(0), [], []
        for step in range(150):
            if step == 60:  # row 20 of the half cycle from step 40
                env.state.com = env.state.com + np.array([0.05, 0.0, 0.0])
                before = env.state.com.item(0)
            _, _, _, info = env.step(ZEROS)
            x = env.state.com.item(0)
            assert env.log_row()["dx"] == x - before, step
            before = x
            flags.append(info["standing"])
            expected.append(monitor.push(x))
        assert flags == expected
        assert flags[49:60] == [True] * 11 and not any(flags[60:110]) and flags[110]

    def test_assigned_step_index_reruns_the_half_cycle(self):
        # At row 3 of a half cycle the step index jumps ahead by two. The
        # next step runs the rest of the half cycle again from the state
        # served at step 43, with the plan's clock at step 45, exactly as
        # when the com is replaced too; it does not serve the row the
        # torso steps had computed for step 45.
        jumped, replaced, unedited = _walking_env(), _walking_env(), _walking_env()
        for env in (jumped, replaced, unedited):
            _steps(env, 43, WALK)
        jumped.state.step_index = 45
        replaced.state.step_index = 45
        replaced.state.com = replaced.state.com.copy()
        steps = _steps(jumped, 30, WALK)
        assert steps == _steps(replaced, 30, WALK)
        assert jumped.state.step_index == replaced.state.step_index == 75
        assert steps[0] != _steps(unedited, 3, WALK)[2]

    def test_replaced_velocity_acts_at_next_step(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        env.state.com[2] += 1.0  # free flight
        _steps(env, 10)
        env.state.vel = np.array([0.0, 1.0, 0.0])
        com = env.state.com.copy()
        env.step(ZEROS)
        assert env.state.vel == pytest.approx([0.0, 1.0, -9.81 * 0.005], abs=1e-12)
        assert env.state.com[1] - com[1] == pytest.approx(0.005, abs=1e-12)

    def test_replaced_rotation_acts_at_next_step(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        _steps(env, 10)
        from slopetrot.rotations import rot_x

        env.state.rot = rot_x(math.radians(60.0))
        _, _, done, info = env.step(ZEROS)
        assert done and info["fall"]

    def test_replaced_joints_act_at_next_step(self):
        # The joints lag toward the same targets from the replaced value.
        alpha = 1.0 - math.exp(-0.005 / 0.02)
        edited, unedited = _walking_env(), _walking_env()
        _steps(edited, 10, WALK)
        _steps(unedited, 10, WALK)
        before = unedited.state.joints
        edited.state.joints = before + 0.1
        edited.step(WALK)
        unedited.step(WALK)
        assert edited.state.joints - unedited.state.joints == pytest.approx(
            np.full((4, 3), (1.0 - alpha) * 0.1), abs=1e-12)

    def test_served_arrays_are_read_only(self):
        env = _walking_env()
        _steps(env, 5, WALK)
        for field in ("com", "vel", "omega", "rot", "joints", "feet_body"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(env.state, field)[0] = 0.0

    def test_served_observation_is_read_only(self):
        # reset's observation, one a step serves unchanged and one a step
        # rebuilt at an exchange.
        env = SlopedTerrainEnv()
        observations = [env.reset(TerrainPlane(7, 30), NO_PUSH, seed=1)]
        for _ in range(40):
            observations.append(env.step(ZEROS)[0])
        assert observations[1] is observations[0] and observations[40] is not observations[0]
        for obs in (observations[0], observations[40]):
            with pytest.raises(ValueError, match="read-only"):
                obs[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                obs += 1.0

    def test_one_compiled_torso_call_per_half_cycle(self, monkeypatch):
        from slopetrot import simenv

        calls = []

        def counted(name, call):
            def count(*args):
                calls.append(name)
                return call(*args)
            return count

        for name in ("step_torso", "plan_half_cycle"):
            monkeypatch.setattr(simenv, name, counted(name, getattr(simenv, name)))
        env = _walking_env((45, 55, 90.0))
        calls.clear()
        _steps(env, 120, WALK)
        assert calls == ["plan_half_cycle", "step_torso"] * 3

    def test_one_reward_call_per_half_cycle(self, monkeypatch):
        # The latch computes the rewards of the whole half cycle in one
        # call, and the later steps of an unedited half cycle serve them.
        from slopetrot import simenv

        calls = []

        def counted(*args):
            calls.append(np.size(args[0].torso_roll))
            return simenv_reward(*args)

        simenv_reward = simenv.compute_reward
        monkeypatch.setattr(simenv, "compute_reward", counted)
        env = _walking_env()
        _steps(env, 120, WALK)
        assert calls == [env.steps_per_half] * 3


class TestExchangeAndLogging:
    def test_exchange_every_half_cycle(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        exchanges = []
        for i in range(1, 121):
            _, _, _, info = env.step(ZEROS)
            if info["exchange"]:
                exchanges.append(i)
        assert exchanges == [40, 80, 120]

    def test_action_latched_only_on_exchange_steps(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        a = (LegAction(step_len=0.1), LegAction(steer=0.1),
             LegAction(shift_x=0.01), LegAction(shift_z=-0.01))
        b = (LegAction(step_len=0.05),) * 4
        env.step(list(a))
        assert env.latched == a
        for _ in range(1, 40):
            env.step(b)
            assert env.latched == a
        env.step(b)
        assert env.latched == b

    def test_stance_legs_follow_the_phase_clock(self):
        # Each step is checked at its midpoint: step boundaries fall on
        # half-cycle boundaries, where the phase is 0.5 only up to rounding
        # (0.6 / 0.4 gives 1.4999999999999998).
        env = SlopedTerrainEnv()
        obs = env.reset(TerrainPlane(), NO_PUSH, seed=1)
        steps = 0
        for _ in env.run(obs, lambda obs: ZEROS):
            k = env.state.step_index
            stance = STANCE_PAIRS[k // env.steps_per_half % 2]
            t = (k + 0.5) * env.sim.dt
            for i, leg in enumerate(gaitgen.LEG_ORDER):
                tau = gaitgen.trot_phase(t, env.gait.cycle_period, leg)
                assert (tau < 0.5) == (i in stance), (k, leg)
            steps += 1
        assert steps == 400

    def test_no_capture_before_touch_down(self):
        # Lifted a metre, no foot lands before step 80, so the pairs of the
        # exchanges at steps 40 and 80 never touch down: neither exchange
        # updates the estimator and the estimate stays flat.
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(9, 0), NO_PUSH, seed=1)
        env.state.com[2] += 1.0
        updates = []
        update = env._estimator.update
        env._estimator.update = lambda snap: updates.append(update(snap))
        for _ in range(80):
            obs, _, done, _ = env.step(ZEROS)
            assert not done and not env._record[IN_CONTACT:TOUCHED].any()
        assert updates == []
        assert env._estimator.estimate == PlaneEstimate.flat()
        assert obs[9] == 0.0 and obs[10] == 0.0

    def test_estimator_converges_on_slope(self):
        env = SlopedTerrainEnv()
        obs = env.reset(TerrainPlane(9, 0), NO_PUSH, seed=1)
        assert obs[9] == 0.0 and obs[10] == 0.0  # estimator starts flat
        m = zero_policy()
        for _ in range(200):
            obs, _, _, _ = env.step(scale_clip_action(act(m, obs)))
        assert obs[10] == pytest.approx(math.radians(9.0), abs=0.02)
        assert obs[9] == pytest.approx(0.0, abs=0.02)

    def test_log_row_columns(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        env.step(ZEROS)
        row = env.log_row()
        assert list(row.keys()) == list(env.LOG_COLUMNS)
        assert row["step"] == 1
        assert row["time"] == pytest.approx(0.005)

    def test_log_row_after_reset_reports_spawn(self):
        env = SlopedTerrainEnv()
        terrain = TerrainPlane(11, 90)
        env.reset(terrain, NO_PUSH, seed=0)
        _assert_spawn_row(env.log_row(), terrain)

    def test_log_row_after_second_reset_reports_spawn(self):
        env = SlopedTerrainEnv(sim=SimParams(episode_len=5))
        obs = env.reset(TerrainPlane(), NO_PUSH, seed=0)
        for _ in env.run(obs, lambda obs: ZEROS):
            pass
        terrain = TerrainPlane(11, 90)
        env.reset(terrain, NO_PUSH, seed=0)
        _assert_spawn_row(env.log_row(), terrain)


def _assert_spawn_row(row, terrain):
    """A row logged right after reset: step 0, the plane-aligned spawn
    torso, the desired height and no motion or reward yet."""
    roll, pitch = angles_from_normal(terrain.normal())
    assert row["step"] == 0 and row["time"] == 0.0
    assert row["torso_roll"] == pytest.approx(roll, abs=1e-9)
    assert row["torso_pitch"] == pytest.approx(pitch, abs=1e-9)
    assert row["torso_yaw"] == pytest.approx(0.0, abs=1e-9)
    assert row["height"] == pytest.approx(0.243, abs=1e-9)
    assert row["dx"] == 0.0 and row["reward"] == 0.0
