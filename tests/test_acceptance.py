"""Acceptance suite: one test per criterion, run `pytest -v` for the
per-criterion pass/fail lines.

The training-dependent criteria share one desk-scale training run
(module-scoped fixture, a few minutes); everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from slopetrot.cli import main as cli_main
from slopetrot.legkin import (
    FootPosition,
    LegGeometry,
    forward_kinematics,
    inverse_kinematics,
)
from slopetrot.gaitgen import GaitParams, LegAction, base_trajectory_point
from slopetrot.policy import act, scale_clip_action, zero_policy
from slopetrot.reward import RewardInputs, RewardWeights, StandingMonitor, compute_reward
from slopetrot.rotations import rot_x, rot_y, rot_z
from slopetrot.runlog import read_csv
from slopetrot.simenv import (
    RandomizationConfig,
    TerrainPlane,
    sample_terrain,
    stage_combos,
    terrain_grid,
)
from slopetrot.slopeest import ContactSnapshot, DegenerateContacts, plane_from_contacts
from slopetrot.trainer import (
    ArsHyperparams,
    ArsIterationState,
    EnvBundle,
    EVAL_RANDOMIZATION,
    TrainParams,
    ars_minimize,
    ars_update,
    curriculum_stage,
    derive_seed,
    evaluate,
    generate_strut_demos,
    guided_init,
    make_eval_grid,
    rollout_stats,
    train,
)

from conftest import sample_workspace_points
from test_slopeest import snapshot_on_plane

NO_PUSH = RandomizationConfig(push_enabled=False)

# Desk-scale training configuration shared by criteria 7 and 8: paper-grade
# episode length and direction count, an elite top-quarter selection and a
# step size scaled up for the small direction budget.
TRAIN_HP = ArsHyperparams(
    step_size=0.25, num_directions=16, top_directions=4, workers=2, master_seed=7
)
TRAIN_PARAMS = TrainParams(iterations=30, eval_every=3)
TRAIN_RAND = RandomizationConfig()
PROBE_TERRAIN = TerrainPlane(7, 0, 0.65)
PROBE_SEEDS = tuple(derive_seed(7, 5, j) for j in range(6))


def probe_displacement(matrix, bundle):
    """Mean forward displacement on the 7-degree uphill probe episodes."""
    return float(
        np.mean(
            [
                rollout_stats(matrix, bundle, PROBE_TERRAIN, NO_PUSH, s)[1]
                for s in PROBE_SEEDS
            ]
        )
    )


@pytest.fixture(scope="module")
def trained_run(bundle):
    checkpoints = []
    result = train(
        bundle,
        TRAIN_HP,
        TRAIN_RAND,
        TRAIN_PARAMS,
        checkpoint_fn=lambda it, m, s: checkpoints.append((it, m.copy())),
    )
    grid = make_eval_grid(terrain_grid(), TRAIN_HP.master_seed)
    guided_score, _ = evaluate(result.guided_fit.matrix, grid, bundle, rand=TRAIN_RAND)
    trained_score, _ = evaluate(result.matrix, grid, bundle, rand=TRAIN_RAND)
    displacements = [probe_displacement(m, bundle) for _, m in checkpoints]
    return {
        "guided": result.guided_fit.matrix,
        "trained": result.matrix,
        "guided_score": guided_score,
        "trained_score": trained_score,
        "displacements": displacements,
    }


class TestCriterion01Kinematics:
    def test_c01_round_trip_accuracy_and_speed(self, geometry):
        points = sample_workspace_points(geometry, 10_000, seed=42)
        t0 = time.monotonic()
        worst = 0.0
        for x, z in points:
            target = FootPosition(x, 0.0, z)
            q = inverse_kinematics(target, geometry)
            p = forward_kinematics(q, geometry)
            err = math.sqrt(
                (p.x - target.x) ** 2 + (p.y - target.y) ** 2 + (p.z - target.z) ** 2
            )
            worst = max(worst, err)
        elapsed = time.monotonic() - t0
        assert worst < 1e-9, f"worst round-trip error {worst:.2e} m"
        assert elapsed < 1.0, f"10k round trips took {elapsed:.2f} s"


class TestCriterion02TrajectoryLaw:
    def test_c02_matches_reference_continuity_and_stance(self, gait):
        action = LegAction(step_len=0.1)
        for tau in np.linspace(0.0, 1.0, 1000, endpoint=False):
            tau = float(tau)
            x, y, z = base_trajectory_point(tau, action, gait)
            ang = 2.0 * math.pi * (1.0 - tau)
            x_ref = 0.5 * 0.1 * math.cos(ang)
            z_ref = -gait.desired_height
            if tau >= 0.5:
                z_ref += gait.foot_clearance * math.sin(ang)
            assert abs(x - x_ref) < 1e-12 and y == 0.0 and abs(z - z_ref) < 1e-12
            if tau < 0.5:
                assert z == -gait.desired_height
        before = np.array(base_trajectory_point(0.5 - 1e-12, action, gait))
        after = np.array(base_trajectory_point(0.5, action, gait))
        assert np.linalg.norm(before - after) < 1e-9
        wrap_end = np.array(base_trajectory_point(1.0 - 1e-12, action, gait))
        wrap_start = np.array(base_trajectory_point(0.0, action, gait))
        assert np.linalg.norm(wrap_end - wrap_start) < 1e-9


class TestCriterion03SlopeEstimator:
    def test_c03_exact_recovery_all_combos(self):
        rng = np.random.default_rng(12)
        for inc, ori in terrain_grid():
            terrain = TerrainPlane(inc, ori)
            torso = (
                rot_z(rng.uniform(-math.pi, math.pi))
                @ rot_y(rng.uniform(-0.25, 0.25))
                @ rot_x(rng.uniform(-0.25, 0.25))
            )
            est = plane_from_contacts(snapshot_on_plane(terrain, torso))
            recovered = math.acos(est.normal[2])
            assert abs(recovered - math.radians(inc)) < 1e-6

    def test_c03_degenerate_contacts_flagged(self):
        feet = [np.array([i * 0.1, i * 0.02, -0.2]) for i in range(4)]
        snap = ContactSnapshot(*feet, np.eye(3))
        with pytest.raises(DegenerateContacts):
            plane_from_contacts(snap)


class TestCriterion04Ars:
    def test_c04a_hand_computed_update(self):
        hp = ArsHyperparams(step_size=0.05, noise=0.04, num_directions=2, top_directions=1)
        state = ArsIterationState(
            theta=np.array([0.0]),
            iteration=0,
            deltas=np.array([[1.0], [0.5]]),
            returns_pos=np.array([2.0, 1.0]),
            returns_neg=np.array([0.0, 1.0]),
        )
        theta = ars_update(state, hp)
        assert theta[0] == 0.1
        assert state.sigma_r == 1.0

    def test_c04b_quadratic_convergence(self):
        target = np.array([0.3, -0.2, 0.5, 0.1, -0.4])

        def objective(theta):
            d = theta - target
            return -float(d @ d)

        # normalizing by the full 2N-return spread: the kept-set variant
        # orbits the optimum at a step-size-proportional radius instead
        hp = ArsHyperparams(
            step_size=0.05, noise=0.04, num_directions=16, master_seed=0,
            sigma_returns="all",
        )
        t0 = time.monotonic()
        theta = ars_minimize(objective, np.zeros(5), hp, 300)
        elapsed = time.monotonic() - t0
        assert np.linalg.norm(theta - target) < 1e-2
        assert elapsed < 10.0

    def test_c04c_scaling_and_shift_invariance(self):
        hp = ArsHyperparams(num_directions=4, top_directions=2)
        rng = np.random.default_rng(3)
        deltas = rng.normal(size=(4, 7))
        r_pos = np.array([12.0, -3.0, 44.0, 7.0])
        r_neg = np.array([8.0, 1.0, 40.0, 9.0])
        theta = rng.normal(size=7)

        def update(rp, rn):
            state = ArsIterationState(
                theta=theta, iteration=0, deltas=deltas,
                returns_pos=rp, returns_neg=rn,
            )
            return ars_update(state, hp)

        base = update(r_pos, r_neg)
        for c in (2.0, 0.5, 8.0):
            assert np.array_equal(base, update(c * r_pos, c * r_neg))
        for shift in (32.0, -16.0, 1024.0):
            assert np.array_equal(base, update(r_pos + shift, r_neg + shift))


class TestCriterion05Determinism:
    def test_c05_worker_count_invariance(self, tmp_path):
        blobs = {}
        for workers in (1, 8):
            out = str(tmp_path / f"w{workers}")
            code = cli_main([
                "train", "--iters", "5", "--seed", "11", "--out", out,
                "--set", f"ars.workers={workers}",
                "--set", "ars.num_directions=8",
                "--set", "train.episode_len=200",
                "--set", "train.eval_every=3",
            ])
            assert code == 0
            files = {}
            for name in ("training.csv", "policy_final.txt", "policy_iter0002.txt"):
                with open(f"{out}/{name}", "rb") as fh:
                    files[name] = fh.read()
            blobs[workers] = files
        for name in blobs[1]:
            assert blobs[1][name] == blobs[8][name], f"{name} differs across worker counts"


class TestCriterion06GuidedInit:
    def test_c06_synthetic_matrix_recovery(self):
        rng = np.random.default_rng(21)
        m_true = rng.normal(size=(20, 11))
        demos = [(s, m_true @ s) for s in rng.normal(size=(400, 11))]
        fit = guided_init(demos)
        assert np.max(np.abs(fit.matrix - m_true)) < 1e-8

    def test_c06_strut_beats_zero_on_every_stage1_terrain(self, bundle):
        demos = generate_strut_demos(bundle, NO_PUSH, 0)
        fit = guided_init(demos)
        assert not fit.rank_deficient
        grid = make_eval_grid(stage_combos(1), 0)
        _, per_zero = evaluate(zero_policy(), grid, bundle, rand=EVAL_RANDOMIZATION)
        _, per_guided = evaluate(fit.matrix, grid, bundle, rand=EVAL_RANDOMIZATION)
        for (terrain, _, r_zero), (_, _, r_guided) in zip(per_zero, per_guided):
            assert r_guided > r_zero, (
                f"guided {r_guided:.1f} <= zero {r_zero:.1f} on "
                f"{terrain.inclination_deg} deg @ {terrain.yaw_deg} deg"
            )


class TestCriterion07DeskScaleLearning:
    def test_c07_eval_improvement(self, trained_run):
        guided = trained_run["guided_score"]
        trained = trained_run["trained_score"]
        gain = (trained - guided) / guided
        assert gain >= 0.20, (
            f"eval {guided:.1f} -> {trained:.1f}, gain {100 * gain:.1f}% < 20%"
        )

    def test_c07_displacement_monotone_over_moving_window(self, trained_run):
        series = trained_run["displacements"]
        assert len(series) >= 7
        window = 5
        means = [
            float(np.mean(series[i : i + window]))
            for i in range(len(series) - window + 1)
        ]
        for earlier, later in zip(means, means[1:]):
            assert later >= earlier, f"moving average decreased: {means}"


class TestCriterion08PushRobustness:
    def test_c08_push_survival_and_channel_recovery(self, trained_run, bundle):
        matrix = trained_run["trained"]
        terrain = TerrainPlane(9, 0, 0.65)
        dt = bundle.sim.dt
        push_start, push_stop = round(0.7 / dt), round(0.9 / dt)
        window = round(0.2 / dt)
        channels = [f"{leg}_{ch}" for leg in ("fl", "fr", "bl", "br")
                    for ch in ("step_len", "steer")]
        spans = {c: 0.136 if "step_len" in c else 0.7 for c in channels}

        survived = 0
        recovery_times = []
        for i in range(10):
            env = bundle.make_env()
            obs = env.reset(terrain, NO_PUSH, seed=derive_seed(88, i))
            env.set_push(push_start, push_stop, 100.0)
            rows = []
            done = False
            while not done:
                obs, _, done, _ = env.step(scale_clip_action(act(matrix, obs)))
                rows.append(env.log_row())
            if len(rows) < 400 or env.fall:
                continue
            survived += 1
            data = {c: np.array([row[c] for row in rows]) for c in channels}
            pre = {c: data[c][push_start - window:push_start].mean() for c in channels}
            recovered_at = None
            for end in range(push_stop + window, 401):
                ok = True
                for c in channels:
                    tol = max(0.1 * abs(pre[c]), 0.05 * spans[c])
                    if abs(data[c][end - window:end].mean() - pre[c]) > tol:
                        ok = False
                        break
                if ok:
                    recovered_at = end * dt - push_stop * dt
                    break
            recovery_times.append(recovered_at)

        assert survived >= 8, f"only {survived}/10 pushed episodes survived"
        recovered = [t for t in recovery_times if t is not None]
        assert len(recovered) == len(recovery_times), "some survivors never recovered"
        worst = max(recovered)
        # target 0.5 s, pass within 1.0 s
        assert worst <= 1.0, f"slowest channel recovery {worst:.2f} s > 1.0 s"


class TestCriterion09Reward:
    def test_c09_bound_symmetry_and_hand_case(self):
        wt = RewardWeights(forward_weight=1.0)
        max_step = 0.0034

        def inputs(**kw):
            base = dict(
                torso_roll=0.0, torso_pitch=0.0, torso_yaw=0.0,
                plane_roll=0.0, plane_pitch=0.0, height=wt.desired_height,
                forward_disp=0.0, standing=False,
            )
            base.update(kw)
            return RewardInputs(**base)

        top = compute_reward(inputs(forward_disp=max_step), wt, max_step)
        assert abs(top - (4.0 + wt.forward_weight)) < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.uniform(-0.5, 0.5, 4)
            dx = rng.uniform(0.0, max_step)
            r = compute_reward(
                inputs(torso_roll=e[0], torso_pitch=e[1], torso_yaw=e[2],
                       height=wt.desired_height + e[3], forward_disp=dx,
                       standing=bool(rng.integers(2))),
                wt, max_step,
            )
            assert -wt.standing_penalty - 1e-12 <= r <= 4.0 + wt.forward_weight + 1e-12
        plus = compute_reward(inputs(torso_roll=0.2), wt, max_step)
        minus = compute_reward(inputs(torso_roll=-0.2), wt, max_step)
        assert abs(plus - minus) < 1e-12
        hand = compute_reward(inputs(torso_roll=0.1), wt, max_step)
        assert abs(hand - (3.0 + math.exp(-0.4))) < 1e-12

    def test_c09_standing_penalty_fires_at_step_50(self):
        mon = StandingMonitor(window=50, threshold=0.02)
        mon.reset(0.0)
        fired_at = None
        for step in range(1, 80):
            if mon.push(0.0) and fired_at is None:
                fired_at = step
        assert fired_at == 50


class TestCriterion10CurriculumSampler:
    def test_c10_stage_distributions_within_2pct_tv(self):
        n = 100_000
        for stage in (1, 2):
            combos = stage_combos(stage)
            if stage == 1:
                expected = {c: 1.0 / len(combos) for c in combos}
            else:
                from slopetrot.simenv import STAGE2_COMBO_WEIGHT

                weights = {c: STAGE2_COMBO_WEIGHT[c[0]] for c in combos}
                total = sum(weights.values())
                expected = {c: w / total for c, w in weights.items()}
            rng = np.random.default_rng(31 + stage)
            counts = {c: 0 for c in combos}
            for _ in range(n):
                t = sample_terrain(stage, rng)
                counts[(t.inclination_deg, t.yaw_deg)] += 1
            tv = 0.5 * sum(abs(counts[c] / n - expected[c]) for c in combos)
            assert tv < 0.02, f"stage {stage} total variation {tv:.4f}"

    def test_c10_stage_switch_at_iteration_30(self):
        assert curriculum_stage(29, 30) == 1
        assert curriculum_stage(30, 30) == 2
