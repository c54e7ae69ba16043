import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot import policy
from slopetrot.policy import ACT_DIM, OBS_DIM, zero_policy
from slopetrot.simenv import RandomizationConfig, TerrainPlane
from slopetrot.trainer import (
    ArsHyperparams,
    ArsIterationState,
    EnvBundle,
    RolloutPool,
    TrainParams,
    ars_minimize,
    ars_step,
    ars_update,
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

    def test_zero_episode_len(self, bundle):
        r = rollout_return(zero_policy(), bundle, TerrainPlane(), NO_PUSH, 1, episode_len=0)
        assert r == 0.0

    def test_stats_report_displacement(self, bundle):
        ret, disp, steps = rollout_stats(
            zero_policy(), bundle, TerrainPlane(), NO_PUSH, 3, episode_len=200
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


class TestRunIteration:
    def test_episode_count(self, bundle):
        hp = ArsHyperparams(num_directions=4, master_seed=1)
        calls = []

        class CountingPool:
            def map(self, tasks):
                calls.extend(tasks)
                return [float(len(t[0])) for t in tasks]

        theta = np.zeros(ACT_DIM * OBS_DIM)
        run_iteration(theta, hp, bundle, NO_PUSH, 0, 50, CountingPool())
        assert len(calls) == 8  # 2N episodes

    def test_terrain_stage_respects_curriculum(self, bundle):
        hp = ArsHyperparams(num_directions=2, master_seed=3)

        class StubPool:
            def map(self, tasks):
                return [0.0 + i for i, _ in enumerate(tasks)]

        for iteration, stages in ((29, {0, 5, 7}), (31, {0, 5, 7, 9, 11})):
            _, _, terrains = run_iteration(
                np.zeros(ACT_DIM * OBS_DIM), hp, bundle, NO_PUSH, iteration, 10, StubPool()
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
                        theta, hp, bundle, NO_PUSH, it, 100, pool
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
        av = strut_action(obs, bundle.gait, bundle.scaling, 0.1)
        h_d = bundle.gait.desired_height
        assert av.fl.shift_x == pytest.approx(-h_d * np.tan(0.15))
        assert av.fl.shift_y == pytest.approx(min(h_d * np.tan(0.1), 0.035))
        assert av.fl.step_len == 0.1

    def test_strut_yaw_hold_differential(self, bundle):
        obs = np.zeros(OBS_DIM)
        obs[5] = 0.2
        obs[8] = 0.2
        av = strut_action(obs, bundle.gait, bundle.scaling, 0.1, yaw_gain=0.5)
        assert av.fl.steer == pytest.approx(-0.1)
        assert av.bl.steer == pytest.approx(0.1)
        assert av.fr.steer == av.fl.steer and av.br.steer == av.bl.steer

    def test_strut_yaw_hold_stride_difference(self, bundle):
        obs = np.zeros(OBS_DIM)
        obs[5] = 0.05
        obs[8] = 0.05
        av = strut_action(obs, bundle.gait, bundle.scaling, 0.068)
        # yaw 0.05 rad, half-cycle change 0.025 rad: 0.4 * 0.05 + 0.4 * 0.025
        assert av.fl.step_len == pytest.approx(0.068 + 0.03)
        assert av.fr.step_len == pytest.approx(0.068 - 0.03)
        assert av.bl.step_len == av.fl.step_len and av.br.step_len == av.fr.step_len
        big = obs.copy()
        big[5] = big[8] = 1.0
        av = strut_action(big, bundle.gait, bundle.scaling, 0.068)
        assert (av.fl.step_len, av.fr.step_len) == (0.136, 0.0)

    def test_demo_generation_shapes(self, bundle):
        demos = generate_strut_demos(
            bundle, NO_PUSH, 0, combos=[(0, 0), (7, 0)], episode_len=120
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
            bundle, NO_PUSH, 0, combos=[(0, 0), (7, 30)], episode_len=120
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
        mean1, per1 = evaluate(m, grid, bundle, episode_len=100)
        mean2, per2 = evaluate(m, grid, bundle, episode_len=100)
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
