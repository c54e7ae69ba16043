import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot import policy
from slopetrot.policy import ACT_DIM, OBS_DIM, zero_policy
from slopetrot.simenv import ConfigError, RandomizationConfig, TerrainPlane
from slopetrot.trainer import (
    ArsHyperparams,
    ArsIterationState,
    EnvBundle,
    RolloutPool,
    TrainParams,
    ars_minimize,
    ars_step,
    ars_update,
    bundle_env,
    curriculum_stage,
    derive_seed,
    evaluate,
    generate_strut_demos,
    guided_init,
    make_eval_grid,
    rollout_return,
    rollout_stats,
    run_iteration,
    strut_action,
    train,
)

NO_PUSH = RandomizationConfig(push_enabled=False)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def make_state(theta, deltas, r_pos, r_neg):
    return ArsIterationState(
        theta=np.asarray(theta, dtype=float),
        iteration=0,
        deltas=np.asarray(deltas, dtype=float),
        returns_pos=np.asarray(r_pos, dtype=float),
        returns_neg=np.asarray(r_neg, dtype=float),
    )


class TestArsUpdate:
    def test_hand_computed_single_direction(self):
        # two directions, keep the best one: theta' = 0.05/(1*1)*(2-0)*1 = 0.1
        hp = ArsHyperparams(step_size=0.05, noise=0.04, num_directions=2, top_directions=1)
        state = make_state([0.0], [[1.0], [0.5]], [2.0, 1.0], [0.0, 1.0])
        theta = ars_update(state, hp)
        assert theta[0] == pytest.approx(0.1, abs=1e-15)
        assert state.sigma_r == pytest.approx(1.0)

    def test_degenerate_returns_noop(self):
        hp = ArsHyperparams(num_directions=2, top_directions=1)
        state = make_state([0.5], [[1.0], [2.0]], [3.0, 3.0], [3.0, 3.0])
        theta = ars_update(state, hp)
        assert state.degenerate
        assert theta[0] == 0.5

    @pytest.mark.parametrize("top, sigma_returns", [(2, "kept"), (1, "all")])
    def test_nan_return_skips_update(self, top, sigma_returns):
        # A non-finite return makes sigma_r NaN; the update must be skipped
        # rather than spread NaN through theta.
        hp = ArsHyperparams(num_directions=2, top_directions=top, sigma_returns=sigma_returns)
        theta = np.array([0.5, -0.25])
        state = make_state(theta, [[1.0, 0.0], [0.0, 1.0]], [np.nan, 2.0], [1.0, 0.0])
        new_theta = ars_update(state, hp)
        assert state.degenerate
        assert np.array_equal(new_theta, theta)

    def test_nan_return_outside_the_kept_directions_is_dropped_unflagged(self):
        # With the default sigma_returns="kept", 8 of 16 directions kept, a
        # NaN return ranks its direction last: the update runs on the other
        # directions, as if that one had scored lowest, and the iteration is
        # not flagged. Counting such returns is ROADMAP item 7's job.
        hp = ArsHyperparams()
        rng = np.random.default_rng(3)
        theta, deltas = rng.normal(size=6), rng.normal(size=(16, 6))
        returns_pos, returns_neg = rng.normal(size=16), rng.normal(size=16)
        returns_pos[5] = np.nan
        state = make_state(theta, deltas, returns_pos, returns_neg)
        new_theta = ars_update(state, hp)
        assert state.degenerate is False
        assert np.isfinite(new_theta).all()
        returns_pos[5] = returns_neg[5] = -1e9
        assert np.array_equal(new_theta,
                              ars_update(make_state(theta, deltas, returns_pos, returns_neg), hp))

    def test_sign_symmetry(self):
        hp = ArsHyperparams(num_directions=4, top_directions=2)
        rng = np.random.default_rng(0)
        deltas = rng.normal(size=(4, 6))
        r_pos = rng.normal(size=4) * 10
        r_neg = rng.normal(size=4) * 10
        theta = rng.normal(size=6)
        t1 = ars_update(make_state(theta, deltas, r_pos, r_neg), hp)
        t2 = ars_update(make_state(theta, -deltas, r_neg, r_pos), hp)
        assert np.array_equal(t1, t2)

    def test_return_scaling_invariance_exact(self):
        # power-of-two scaling keeps floating point exact
        hp = ArsHyperparams(num_directions=4, top_directions=2)
        rng = np.random.default_rng(1)
        deltas = rng.normal(size=(4, 5))
        r_pos = np.array([3.0, -1.0, 7.0, 2.0])
        r_neg = np.array([1.0, 0.0, 5.0, 4.0])
        theta = np.zeros(5)
        base = ars_update(make_state(theta, deltas, r_pos, r_neg), hp)
        for c in (2.0, 0.5, 4.0):
            scaled = ars_update(make_state(theta, deltas, c * r_pos, c * r_neg), hp)
            assert np.array_equal(base, scaled)

    def test_return_shift_invariance_exact(self):
        hp = ArsHyperparams(num_directions=4, top_directions=2)
        rng = np.random.default_rng(2)
        deltas = rng.normal(size=(4, 5))
        r_pos = np.array([3.0, -1.0, 7.0, 2.0])
        r_neg = np.array([1.0, 0.0, 5.0, 4.0])
        theta = np.zeros(5)
        base = ars_update(make_state(theta, deltas, r_pos, r_neg), hp)
        for shift in (16.0, -8.0, 1024.0):
            shifted = ars_update(
                make_state(theta, deltas, r_pos + shift, r_neg + shift), hp
            )
            assert np.array_equal(base, shifted)

    @given(
        seed=st.integers(0, 1000),
        c=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
        shift=st.integers(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariances_property(self, seed, c, shift):
        # power-of-two kept-set size keeps the mean subtraction exact in
        # floating point, so invariance holds bitwise
        hp = ArsHyperparams(num_directions=6, top_directions=2)
        rng = np.random.default_rng(seed)
        deltas = rng.normal(size=(6, 4))
        r_pos = rng.integers(-50, 50, 6).astype(float)
        r_neg = rng.integers(-50, 50, 6).astype(float)
        theta = rng.normal(size=4)
        base = ars_update(make_state(theta, deltas, r_pos, r_neg), hp)
        scaled = ars_update(make_state(theta, deltas, c * r_pos, c * r_neg), hp)
        shifted = ars_update(make_state(theta, deltas, r_pos + shift, r_neg + shift), hp)
        assert np.array_equal(base, scaled)
        assert np.array_equal(base, shifted)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            ArsHyperparams(num_directions=3)
        with pytest.raises(ValueError):
            ArsHyperparams(step_size=0.0)
        with pytest.raises(ValueError):
            ArsHyperparams(num_directions=4, top_directions=5)


class TestArsConvergence:
    def test_quadratic_objective_r5(self):
        target = np.array([0.3, -0.2, 0.5, 0.1, -0.4])

        def objective(theta):
            d = theta - target
            return -float(d @ d)

        hp = ArsHyperparams(step_size=0.05, noise=0.04, num_directions=16,
                            master_seed=0, sigma_returns="all")
        theta = ars_minimize(objective, np.zeros(5), hp, 300)
        assert np.linalg.norm(theta - target) < 1e-2

    def test_kept_sigma_orbits_at_step_scale(self):
        # the classic kept-set normalization cannot settle below the
        # step-size-scaled orbit on a noiseless objective
        target = np.array([0.3, -0.2, 0.5, 0.1, -0.4])

        def objective(theta):
            d = theta - target
            return -float(d @ d)

        hp = ArsHyperparams(step_size=0.05, noise=0.04, num_directions=16,
                            master_seed=0, sigma_returns="kept")
        theta = ars_minimize(objective, np.zeros(5), hp, 300)
        err = np.linalg.norm(theta - target)
        assert 1e-3 < err < 0.3


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_distinct_streams(self):
        seeds = {derive_seed(7, a, b) for a in range(4) for b in range(8)}
        assert len(seeds) == 32

    def test_curriculum_stage(self):
        assert curriculum_stage(29, 30) == 1
        assert curriculum_stage(30, 30) == 2
        assert curriculum_stage(31, 30) == 2


class TestRollouts:
    def test_deterministic_return(self, bundle):
        m = zero_policy()
        t = TerrainPlane(5, 30, 0.7)
        r1 = rollout_return(m, bundle, t, RandomizationConfig(), 123)
        r2 = rollout_return(m, bundle, t, RandomizationConfig(), 123)
        assert r1 == r2

    def test_nonfinite_policy_entry_scores_a_nonfinite_return(self, bundle):
        # One NaN entry makes every action NaN in its channel; the episode
        # falls at the first step with a NaN return, which ars_update flags
        # as degenerate, instead of raising out of a pooled rollout.
        matrix = policy.load_policy(PERFBENCH / "policy_guided_seed7.txt")
        matrix[3, 5] = math.nan
        ret, _, steps = rollout_stats(matrix, bundle.with_episode_len(80), TerrainPlane(7, 30),
                                      RandomizationConfig(), 1)
        assert math.isnan(ret) and steps == 1
        assert math.isnan(rollout_return(matrix, bundle, TerrainPlane(7, 30),
                                         RandomizationConfig(), 1, episode_len=80))

    def test_zero_episode_len(self, bundle):
        with pytest.raises(ConfigError):
            rollout_return(zero_policy(), bundle, TerrainPlane(), NO_PUSH, 1, episode_len=0)

    def test_stats_report_displacement(self, bundle):
        ret, disp, steps = rollout_stats(
            zero_policy(), bundle.with_episode_len(200), TerrainPlane(), NO_PUSH, 3
        )
        assert steps == 200
        assert disp > 0.1

    def test_policy_queried_once_per_half_cycle(self, bundle, monkeypatch):
        # step() latches an action every 40 steps, so a 400-step episode
        # needs 10 of them.
        calls = []
        act = policy.act
        monkeypatch.setattr(policy, "act", lambda m, o: calls.append(1) or act(m, o))
        _, _, steps = rollout_stats(zero_policy(), bundle, TerrainPlane(), NO_PUSH, 3)
        assert steps == 400
        assert len(calls) == 10

    def test_reused_environment_equals_a_fresh_one(self, bundle):
        # rollout_stats runs each episode in this process's environment for
        # an equal bundle. Whatever that environment ran before, and
        # whatever state it was left in, the episode has the bits the
        # former rollout_stats gave it in an environment built for it.
        def fresh(matrix, bundle, terrain, rand, seed):
            env = bundle.make_env()
            obs = env.reset(terrain=terrain, rand=rand, seed=seed)
            x0 = float(env.state.com[0])
            total = 0.0
            for r, _ in env.run(obs, policy.linear_controller(matrix, bundle.scaling)):
                total += r
            return total, float(env.state.com[0]) - x0, env.state.step_index

        def left_edited(bundle):
            # An episode stopped in mid half cycle after edits to its state.
            env = bundle_env(bundle)
            env.reset(TerrainPlane(11, 60), RandomizationConfig(), 9)
            action = policy.scale_clip_action(np.full(ACT_DIM, 0.3))
            for _ in range(47):
                env.step(action)
            env.state.com = env.state.com + 0.01
            env.state.step_index = 71
            env.set_push(70, 75, -80.0)
            env.step(action)

        matrix = policy.load_policy(PERFBENCH / "policy_guided_seed7.txt")
        nonfinite = matrix.copy()
        nonfinite[3, 5] = math.nan
        short, shorter = bundle.with_episode_len(120), bundle.with_episode_len(90)
        pushed = RandomizationConfig(push_force_range=(150.0, 150.0))
        episodes = [
            (matrix, short, TerrainPlane(7, 30), NO_PUSH, 1),
            (nonfinite, short, TerrainPlane(5, 0), NO_PUSH, 2),
            (matrix, short, TerrainPlane(11, 90, 0.5), pushed, 3),
            left_edited,
            (matrix, short, TerrainPlane(9, 45), NO_PUSH, 4),
            (zero_policy(), shorter, TerrainPlane(0, 0, 0.8), pushed, 5),
            left_edited,
            (matrix, short, TerrainPlane(7, 75), pushed, 6),
        ]
        results = []
        for episode in episodes:
            if callable(episode):
                episode(short)
                continue
            got, expected = rollout_stats(*episode), fresh(*episode)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
            results.append(got)
        assert math.isnan(results[1][0]) and results[1][2] == 1
        assert results[2] != rollout_stats(matrix, short, TerrainPlane(11, 90, 0.5), NO_PUSH, 3)

    def test_environment_reused_for_equal_bundles_only(self, bundle):
        env = bundle_env(bundle)
        assert bundle_env(bundle) is env and bundle_env(EnvBundle()) is env
        longer = bundle_env(bundle.with_episode_len(500))
        assert longer is not env and longer.sim.episode_len == 500
        assert bundle_env(bundle.with_episode_len(500)) is longer
        again = bundle_env(bundle)
        assert again is not longer and again.sim.episode_len == bundle.sim.episode_len


class TestRunIteration:
    def test_episode_count(self, bundle):
        hp = ArsHyperparams(num_directions=4, master_seed=1)
        calls = []

        class CountingPool:
            def map(self, tasks):
                calls.extend(tasks)
                return [float(len(t[0])) for t in tasks]

        theta = np.zeros(ACT_DIM * OBS_DIM)
        run_iteration(theta, hp, bundle.with_episode_len(50), NO_PUSH, 0, CountingPool())
        assert len(calls) == 8  # 2N episodes

    def test_terrain_stage_respects_curriculum(self, bundle):
        hp = ArsHyperparams(num_directions=2, master_seed=3)

        class StubPool:
            def map(self, tasks):
                return [0.0 + i for i, _ in enumerate(tasks)]

        for iteration, stages in ((29, {0, 5, 7}), (31, {0, 5, 7, 9, 11})):
            _, _, terrains = run_iteration(
                np.zeros(ACT_DIM * OBS_DIM), hp, bundle.with_episode_len(10), NO_PUSH,
                iteration, StubPool()
            )
            assert len(terrains) == hp.num_directions
            for terrain in terrains:
                assert terrain.inclination_deg in stages

    def test_worker_count_invariance(self, bundle):
        hp1 = ArsHyperparams(num_directions=4, master_seed=9, workers=1)
        hp2 = ArsHyperparams(num_directions=4, master_seed=9, workers=2)
        thetas = {}
        for hp in (hp1, hp2):
            theta = np.zeros(ACT_DIM * OBS_DIM)
            with RolloutPool(hp.workers) as pool:
                for it in range(2):
                    theta, _, _ = run_iteration(
                        theta, hp, bundle.with_episode_len(100), NO_PUSH, it, pool
                    )
            thetas[hp.workers] = theta
        assert np.array_equal(thetas[1], thetas[2])


class TestGuidedInit:
    def test_recovers_synthetic_matrix(self):
        rng = np.random.default_rng(4)
        m_true = rng.normal(size=(ACT_DIM, OBS_DIM))
        obs = rng.normal(size=(300, OBS_DIM))
        demos = [(s, m_true @ s) for s in obs]
        fit = guided_init(demos)
        assert not fit.rank_deficient
        assert np.max(np.abs(fit.matrix - m_true)) < 1e-8

    def test_constant_observations_rank_deficient(self):
        s = np.ones(OBS_DIM)
        demos = [(s, np.zeros(ACT_DIM)) for _ in range(40)]
        fit = guided_init(demos)
        assert fit.rank_deficient
        assert fit.rank == 1

    def test_strut_action_geometry(self, bundle):
        obs = np.zeros(OBS_DIM)
        obs[9] = 0.1   # plane roll
        obs[10] = 0.15  # plane pitch
        fl, fr, bl, br = strut_action(obs, bundle.gait, bundle.scaling, 0.1)
        h_d = bundle.gait.desired_height
        assert fl.shift_x == pytest.approx(-h_d * np.tan(0.15))
        assert fl.shift_y == pytest.approx(min(h_d * np.tan(0.1), 0.035))
        assert fl.step_len == 0.1

    def test_strut_yaw_hold_differential(self, bundle):
        obs = np.zeros(OBS_DIM)
        obs[5] = 0.2
        obs[8] = 0.2
        fl, fr, bl, br = strut_action(obs, bundle.gait, bundle.scaling, 0.1, yaw_gain=0.5)
        assert fl.steer == pytest.approx(-0.1)
        assert bl.steer == pytest.approx(0.1)
        assert fr.steer == fl.steer and br.steer == bl.steer

    def test_strut_yaw_hold_stride_difference(self, bundle):
        obs = np.zeros(OBS_DIM)
        obs[5] = 0.05
        obs[8] = 0.05
        fl, fr, bl, br = strut_action(obs, bundle.gait, bundle.scaling, 0.068)
        # yaw 0.05 rad, half-cycle change 0.025 rad: 0.4 * 0.05 + 0.4 * 0.025
        assert fl.step_len == pytest.approx(0.068 + 0.03)
        assert fr.step_len == pytest.approx(0.068 - 0.03)
        assert bl.step_len == fl.step_len and br.step_len == fr.step_len
        big = obs.copy()
        big[5] = big[8] = 1.0
        fl, fr, bl, br = strut_action(big, bundle.gait, bundle.scaling, 0.068)
        assert (fl.step_len, fr.step_len) == (0.136, 0.0)

    def test_demo_generation_shapes(self, bundle):
        demos = generate_strut_demos(
            bundle, NO_PUSH, 0, TrainParams(episode_len=120), combos=[(0, 0), (7, 0)]
        )
        assert len(demos) >= 6
        for obs, raw in demos:
            assert obs.shape == (OBS_DIM,)
            assert raw.shape == (ACT_DIM,)
            assert np.all(np.abs(raw) <= 1.0 + 1e-12)

    def test_demo_generation_golden(self, bundle):
        # Recorded from the hand-written demonstration loop that the episode
        # driver replaced. Like TestGoldenTrajectory in test_simenv.py, the
        # value pins the BLAS it was recorded with.
        demos = generate_strut_demos(
            bundle, NO_PUSH, 0, TrainParams(episode_len=120), combos=[(0, 0), (7, 30)]
        )
        h = hashlib.sha256()
        for obs, raw in demos:
            h.update(" ".join(float(v).hex() for v in obs).encode() + b";")
            h.update(" ".join(float(v).hex() for v in raw).encode() + b"\n")
        assert len(demos) == 6
        assert h.hexdigest() == "5602766682636303205814cd36977cbf609283763385979d02904ff57ac96dc6"


class TestEvaluate:
    def test_deterministic_and_counts(self, bundle):
        grid = make_eval_grid([(0, 0), (5, 0), (7, 90)], 0)
        m = zero_policy()
        short = bundle.with_episode_len(100)
        mean1, per1 = evaluate(m, grid, short)
        mean2, per2 = evaluate(m, grid, short)
        assert mean1 == mean2
        assert len(per1) == 3
        assert mean1 == pytest.approx(np.mean([r for _, _, r in per1]))

    def test_grid_spans_29_combos(self):
        from slopetrot.simenv import terrain_grid

        grid = make_eval_grid(terrain_grid(), 0)
        assert len(grid) == 29
        assert len({seed for _, seed in grid}) == 29


class TestTrainLoop:
    def test_smoke_and_cadence(self, bundle):
        hp = ArsHyperparams(num_directions=2, master_seed=5)
        params = TrainParams(iterations=4, episode_len=80, eval_every=3, guided=False)
        checkpoints = []
        res = train(
            bundle, hp, NO_PUSH, params,
            checkpoint_fn=lambda it, m, s: checkpoints.append(it),
        )
        assert res.matrix.shape == (ACT_DIM, OBS_DIM)
        assert len(res.history) == 4
        assert [it for it, _ in res.eval_scores] == [2]
        assert checkpoints == [2]
        evals = [row["eval_score"] for row in res.history]
        assert evals[2] != "" and evals[0] == "" and evals[1] == ""
