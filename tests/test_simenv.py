import math
from pathlib import Path

import numpy as np
import pytest

from slopetrot.policy import (
    ActionVector,
    act,
    linear_controller,
    load_policy,
    scale_clip_action,
    zero_policy,
)
from slopetrot.simenv import (
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

NO_PUSH = RandomizationConfig(push_enabled=False)
ZEROS = ActionVector()


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
        assert env1.motor_torque == env2.motor_torque
        assert env1.push == env2.push

    def test_spawn_aligned_on_sidehill(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(11, 90), NO_PUSH, seed=0)
        terrain_roll, terrain_pitch = TerrainPlane(11, 90).angles()
        theta = env._torso_theta(env.state.rot)
        assert theta[0] == pytest.approx(terrain_roll, abs=1e-9)
        assert theta[1] == pytest.approx(terrain_pitch, abs=1e-9)

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


class TestGoldenTrajectory:
    """Exact return and final torso position of two short episodes.

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

    def test_nonfinite_state_is_a_fall(self):
        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        env.state.vel[0] = math.nan
        _, _, done, info = env.step(ZEROS)
        assert done and info["fall"]

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

    def test_contact_force_consistency(self):
        env = SlopedTerrainEnv()
        obs = env.reset(TerrainPlane(9, 30), RandomizationConfig(), seed=4)
        m = zero_policy()
        for _ in range(400):
            obs, _, done, info = env.step(scale_clip_action(act(m, obs)))
            if done:
                break
        assert info["max_friction_ratio"] <= 1.0 + 1e-9

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
        from slopetrot.gaitgen import LegAction

        env = SlopedTerrainEnv()
        env.reset(TerrainPlane(), NO_PUSH, seed=1)
        wild = LegAction(step_len=0.136, steer=0.3, shift_x=0.06, shift_y=0.035, shift_z=-0.06)
        a = ActionVector(wild, wild, wild, wild)
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
