"""Augmented random search over the linear policy, with a guided
least-squares warm start and a two-stage terrain curriculum.

Each iteration perturbs the flattened policy along N Gaussian directions,
rolls out both signs of every perturbation on a terrain sampled for that
direction, keeps the best half of the directions ranked by their better
return, and steps along the return-weighted sum of the kept directions,
normalized by the standard deviation of the kept returns.

All randomness is derived from (master_seed, iteration, direction, sign)
via SeedSequence spawn keys, and rollout results are reduced in a fixed
order, so training runs are bitwise reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import policy as policy_mod
from .gaitgen import GaitParams, LegAction
from .legkin import LegGeometry
from .policy import ACT_DIM, OBS_DIM, ActionScaling, ActionVector
from .reward import RewardWeights
from .simenv import (
    RandomizationConfig,
    SimParams,
    SlopedTerrainEnv,
    TerrainPlane,
    sample_terrain,
    stage_combos,
    terrain_grid,
)


# Stream tags for seed derivation, one per consumer of randomness. Stream 5
# is taken by the acceptance suite's displacement probe.
_DELTA_STREAM = 0
_TERRAIN_STREAM = 1
_ROLLOUT_STREAM = 2
_EVAL_STREAM = 3
_DEMO_STREAM = 4
_ROLLOUT_CLI_STREAM = 99


def derive_seed(master_seed: int, *key) -> int:
    """Deterministic, well-mixed integer seed for a named sub-stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ArsHyperparams:
    """Search hyperparameters. top_directions defaults to half the
    directions; workers only changes the execution schedule, never the
    result.

    sigma_returns picks the return set whose standard deviation normalizes
    the update: 'kept' uses the 2b returns of the kept directions (the
    classic convention); 'all' uses all 2N returns of the iteration. The
    'kept' normalization shrinks together with the finite differences, so
    on a noiseless objective the iterates orbit the optimum at a radius
    proportional to step_size; 'all' keeps a noise floor in the
    denominator and converges.
    """

    step_size: float = 0.05
    noise: float = 0.04
    num_directions: int = 16
    top_directions: int | None = None
    workers: int = 1
    master_seed: int = 0
    sigma_returns: str = "kept"

    def __post_init__(self):
        if self.step_size <= 0.0 or self.noise <= 0.0:
            raise ValueError("step_size and noise must be positive")
        if self.num_directions < 2 or self.num_directions % 2 != 0:
            raise ValueError("num_directions must be even and >= 2")
        b = self.top()
        if not 1 <= b <= self.num_directions:
            raise ValueError("top_directions must lie in [1, num_directions]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.sigma_returns not in ("kept", "all"):
            raise ValueError("sigma_returns must be 'kept' or 'all'")

    def top(self) -> int:
        return self.top_directions if self.top_directions is not None else self.num_directions // 2


@dataclass
class ArsIterationState:
    """One iteration's book-keeping: perturbations and their paired returns."""

    theta: np.ndarray
    iteration: int
    deltas: np.ndarray
    returns_pos: np.ndarray
    returns_neg: np.ndarray
    sigma_r: float = 0.0
    degenerate: bool = False


def ars_update(state: ArsIterationState, hp: ArsHyperparams) -> np.ndarray:
    """Apply the top-direction finite-difference update.

    Directions are ranked by max(R+, R-) descending; sigma_r is the
    population standard deviation of the return set selected by
    hp.sigma_returns. When sigma_r collapses, or is NaN because a return in
    the set is not finite, the update is skipped and the state is flagged
    degenerate, so one failed rollout cannot turn theta into NaN.
    """
    b = hp.top()
    score = np.maximum(state.returns_pos, state.returns_neg)
    order = np.argsort(-score, kind="stable")[:b]
    if hp.sigma_returns == "all":
        pool_returns = np.concatenate([state.returns_pos, state.returns_neg])
    else:
        pool_returns = np.concatenate([state.returns_pos[order], state.returns_neg[order]])
    sigma = float(np.std(pool_returns))
    state.sigma_r = sigma
    if not sigma >= 1e-12:
        state.degenerate = True
        return state.theta.copy()
    step = np.zeros_like(state.theta)
    for k in order:
        step += (state.returns_pos[k] - state.returns_neg[k]) * state.deltas[k]
    state.degenerate = False
    return state.theta + hp.step_size / (b * sigma) * step


def ars_step(theta: np.ndarray, hp: ArsHyperparams, iteration: int, batch_returns):
    """One full iteration against an arbitrary return oracle.

    batch_returns receives the list of perturbed parameter vectors and the
    matching (direction, sign) metadata, and must return one float per
    entry, in order. Returns (new_theta, state).
    """
    rng = np.random.default_rng(derive_seed(hp.master_seed, _DELTA_STREAM, iteration))
    deltas = rng.standard_normal((hp.num_directions, theta.size))
    thetas = []
    meta = []
    for k in range(hp.num_directions):
        for sign in (1, -1):
            thetas.append(theta + sign * hp.noise * deltas[k])
            meta.append((k, sign))
    returns = np.asarray(batch_returns(thetas, meta), dtype=float)
    state = ArsIterationState(
        theta=theta,
        iteration=iteration,
        deltas=deltas,
        returns_pos=returns[0::2],
        returns_neg=returns[1::2],
    )
    return ars_update(state, hp), state


def ars_minimize(objective, theta0: np.ndarray, hp: ArsHyperparams, iterations: int):
    """Run plain ARS on an analytic objective (higher is better)."""
    theta = np.asarray(theta0, dtype=float).copy()
    for it in range(iterations):
        theta, _ = ars_step(
            theta, hp, it, lambda thetas, meta: [objective(t) for t in thetas]
        )
    return theta


def curriculum_stage(iteration: int, switch_iteration: int = 30) -> int:
    """Stage 1 for the first switch_iteration iterations, then stage 2."""
    return 1 if iteration < switch_iteration else 2


# ----------------------------------------------------------------------
# locomotion rollouts


@dataclass(frozen=True)
class EnvBundle:
    """Everything needed to build an environment in a worker process."""

    geometry: LegGeometry = LegGeometry()
    gait: GaitParams = GaitParams()
    reward: RewardWeights = RewardWeights()
    sim: SimParams = SimParams()
    scaling: ActionScaling = ActionScaling()

    def make_env(self) -> SlopedTerrainEnv:
        return SlopedTerrainEnv(self.geometry, self.gait, self.reward, self.sim)


def rollout_return(
    matrix: np.ndarray,
    bundle: EnvBundle,
    terrain: TerrainPlane,
    rand: RandomizationConfig,
    seed: int,
    episode_len: int | None = None,
) -> float:
    return rollout_stats(matrix, bundle, terrain, rand, seed, episode_len)[0]


def rollout_stats(
    matrix: np.ndarray,
    bundle: EnvBundle,
    terrain: TerrainPlane,
    rand: RandomizationConfig,
    seed: int,
    episode_len: int | None = None,
):
    """One policy episode in a fresh environment.

    Returns (total reward, forward displacement, steps survived). Fully
    determined by the arguments.
    """
    if episode_len is not None:
        bundle = replace(bundle, sim=replace(bundle.sim, episode_len=episode_len))
    if bundle.sim.episode_len <= 0:
        return 0.0, 0.0, 0
    env = bundle.make_env()
    obs = env.reset(terrain=terrain, rand=rand, seed=seed)
    x0 = float(env.state.com[0])
    total = 0.0
    for r, _ in env.run(obs, policy_mod.linear_controller(matrix, bundle.scaling)):
        total += r
    return total, float(env.state.com[0]) - x0, env.state.step_index


def _rollout_task(args):
    matrix, bundle, terrain, rand, seed, episode_len = args
    return rollout_return(matrix, bundle, terrain, rand, seed, episode_len)


class RolloutPool:
    """Maps rollout tasks over a worker pool, preserving submission order.

    workers=1 runs in-process. Results are identical for any worker count;
    only wall time changes.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self._executor = None
        if workers > 1:
            self._executor = ProcessPoolExecutor(max_workers=workers)

    def map(self, tasks):
        if self._executor is None:
            return [_rollout_task(t) for t in tasks]
        return list(self._executor.map(_rollout_task, tasks, chunksize=1))

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_iteration(
    theta: np.ndarray,
    hp: ArsHyperparams,
    bundle: EnvBundle,
    rand: RandomizationConfig,
    iteration: int,
    episode_len: int,
    pool: RolloutPool,
    curriculum_switch: int = 30,
):
    """Sample one terrain and episode seed per direction, evaluate both
    signs of each perturbation on them and apply the update. Returns
    (new_theta, state, terrains), terrains in direction order."""
    stage = curriculum_stage(iteration, curriculum_switch)
    terrain_rng = np.random.default_rng(derive_seed(hp.master_seed, _TERRAIN_STREAM, iteration))
    terrains = tuple(
        sample_terrain(stage, terrain_rng, rand.friction_range)
        for _ in range(hp.num_directions)
    )
    # The two signs of a direction share its terrain and episode seed, so
    # their return difference measures the perturbation alone, not the
    # domain randomization draw. Different directions see different
    # terrains and draws: with a single terrain per iteration every update
    # fits that one terrain, and the policy wanders from one iteration's
    # terrain to the next instead of improving across the stage. The
    # top-direction ranking by max(R+, R-) then compares returns across
    # terrains, so it favours directions that drew easy ground.
    seeds = [
        derive_seed(hp.master_seed, _ROLLOUT_STREAM, iteration, k)
        for k in range(hp.num_directions)
    ]

    def batch(thetas, meta):
        tasks = [
            (t.reshape(ACT_DIM, OBS_DIM), bundle, terrains[k], rand, seeds[k], episode_len)
            for t, (k, _) in zip(thetas, meta)
        ]
        return pool.map(tasks)

    new_theta, state = ars_step(theta, hp, iteration, batch)
    return new_theta, state, terrains


# ----------------------------------------------------------------------
# evaluation


def make_eval_grid(combos, master_seed: int, friction: float = 0.65):
    """Fixed, seed-pinned evaluation episodes spanning the given combos."""
    grid = []
    for idx, (inc, ori) in enumerate(combos):
        terrain = TerrainPlane(inclination_deg=inc, yaw_deg=ori, friction=friction)
        grid.append((terrain, derive_seed(master_seed, _EVAL_STREAM, idx)))
    return grid


EVAL_RANDOMIZATION = RandomizationConfig(push_enabled=False)


def evaluate(
    matrix: np.ndarray,
    grid,
    bundle: EnvBundle,
    episode_len: int | None = None,
    rand: RandomizationConfig = EVAL_RANDOMIZATION,
):
    """Mean return over the grid plus the per-terrain breakdown."""
    per_terrain = []
    for terrain, seed in grid:
        ret = rollout_return(matrix, bundle, terrain, rand, seed, episode_len)
        per_terrain.append((terrain, seed, ret))
    mean = float(np.mean([r for _, _, r in per_terrain])) if per_terrain else 0.0
    return mean, per_terrain


# ----------------------------------------------------------------------
# guided initialization


@dataclass(frozen=True)
class GuidedFit:
    matrix: np.ndarray
    rank: int
    rank_deficient: bool
    residual: float


def guided_init(demos) -> GuidedFit:
    """Least-squares fit of the linear policy to (observation, raw action)
    demonstration pairs.

    With fewer than 11 independent observations the minimum-norm solution
    is returned and flagged rank deficient.
    """
    obs = np.asarray([d[0] for d in demos], dtype=float)
    acts = np.asarray([d[1] for d in demos], dtype=float)
    if obs.ndim != 2 or obs.shape[1] != OBS_DIM:
        raise ValueError(f"observations must be {OBS_DIM}-dimensional")
    if acts.shape != (obs.shape[0], ACT_DIM):
        raise ValueError(f"actions must be {ACT_DIM}-dimensional")
    coeffs, residuals, rank, _ = np.linalg.lstsq(obs, acts, rcond=None)
    residual = float(np.sum(residuals)) if residuals.size else float(
        np.sum((obs @ coeffs - acts) ** 2)
    )
    return GuidedFit(
        matrix=coeffs.T.copy(),
        rank=int(rank),
        rank_deficient=rank < OBS_DIM,
        residual=residual,
    )


# Heading hold of the scripted strut controller: differential steer in rad
# per rad of yaw, and left/right step-length difference in m per rad of yaw
# and per rad of yaw change over a half cycle.
STRUT_YAW_GAIN = 1.0
_YAW_STRIDE_GAIN = 0.4
_YAW_RATE_STRIDE_GAIN = 0.4


def strut_action(observation: np.ndarray, gait: GaitParams, scaling: ActionScaling,
                 step_len: float, yaw_gain: float = STRUT_YAW_GAIN) -> ActionVector:
    """Hand-tuned posture action: feet vertically under the hips plus a
    heading hold.

    The estimated support-plane roll and pitch (the last two observation
    entries) give the steady tilt; shifting each trajectory center by the
    height times the tilt tangent puts the feet back under the hips.

    Heading is held against the torso yaw averaged over the two newest
    samples (which cancels the gait-synchronous wobble) and its change over
    one half cycle (the difference of consecutive averages, a damping
    term). The front and back legs steer differentially against the yaw,
    but steering alone turns the torso at only about 0.3 rad/s at full
    deflection, slower than a trot drifts on a 9-11 degree incline. The
    main restoring moment therefore comes from a left/right step-length
    difference, proportional to the yaw and its change, which steers like a
    tracked vehicle. Everything is clamped to the action ranges; the mean
    step length stays step_len.
    """
    roll = float(observation[9])
    pitch = float(observation[10])
    yaw = 0.5 * float(observation[5] + observation[8])
    yaw_rate = 0.5 * float(observation[8] - observation[2])
    h_d = gait.desired_height
    xs = -h_d * math.tan(pitch)
    ys = h_d * math.tan(roll)
    xs = min(max(xs, scaling.shift_x[0]), scaling.shift_x[1])
    ys = min(max(ys, scaling.shift_y[0]), scaling.shift_y[1])
    steer = yaw_gain * yaw
    steer = min(max(steer, scaling.steer[0]), scaling.steer[1])
    # positive yaw (turned left) needs longer strides on the left side
    stride = _YAW_STRIDE_GAIN * yaw + _YAW_RATE_STRIDE_GAIN * yaw_rate
    room = min(step_len - scaling.step_len[0], scaling.step_len[1] - step_len)
    stride = min(max(stride, -room), room)

    def leg(side: float, steer_sign: float) -> LegAction:
        return LegAction(step_len=step_len + side * stride, steer=steer_sign * steer,
                         shift_x=xs, shift_y=ys, shift_z=0.0)

    return ActionVector(fl=leg(1.0, -1.0), fr=leg(-1.0, -1.0),
                        bl=leg(1.0, 1.0), br=leg(-1.0, 1.0))


def generate_strut_demos(
    bundle: EnvBundle,
    rand: RandomizationConfig,
    master_seed: int,
    step_len: float = 0.068,
    combos=None,
    seeds_per_combo: int = 1,
    episode_len: int | None = None,
    yaw_gain: float = STRUT_YAW_GAIN,
):
    """Roll the scripted strut controller over the stage-1 terrains and
    record (observation, raw action) pairs at every policy step."""
    if combos is None:
        combos = stage_combos(1)
    if episode_len is not None:
        bundle = replace(bundle, sim=replace(bundle.sim, episode_len=episode_len))
    env = bundle.make_env()
    demos = []

    def scripted(obs):
        action = strut_action(obs, bundle.gait, bundle.scaling, step_len, yaw_gain)
        demos.append((obs, policy_mod.raw_from_action(action, bundle.scaling)))
        return action

    for idx, (inc, ori) in enumerate(combos):
        for rep in range(seeds_per_combo):
            seed = derive_seed(master_seed, _DEMO_STREAM, idx, rep)
            terrain = TerrainPlane(inclination_deg=inc, yaw_deg=ori, friction=0.65)
            for _ in env.run(env.reset(terrain=terrain, rand=rand, seed=seed), scripted):
                pass
    return demos


# ----------------------------------------------------------------------
# full training loop


@dataclass(frozen=True)
class TrainParams:
    """Loop settings: episode length, curriculum switch point, evaluation
    cadence and the guided warm start."""

    iterations: int = 30
    episode_len: int = 400
    curriculum_switch: int = 30
    eval_every: int = 3
    guided: bool = True
    guided_step_len: float = 0.068
    guided_yaw_gain: float = STRUT_YAW_GAIN
    demo_seeds_per_combo: int = 1
    eval_friction: float = 0.65


def fit_guided(bundle: EnvBundle, rand: RandomizationConfig, master_seed: int,
               params: TrainParams) -> GuidedFit:
    """The guided warm start: scripted strut demonstrations (pushes off)
    fitted by least squares."""
    demos = generate_strut_demos(
        bundle,
        replace(rand, push_enabled=False),
        master_seed,
        step_len=params.guided_step_len,
        seeds_per_combo=params.demo_seeds_per_combo,
        episode_len=params.episode_len,
        yaw_gain=params.guided_yaw_gain,
    )
    return guided_init(demos)


TRAIN_LOG_COLUMNS = (
    "iteration",
    "episodes",
    "sim_time_s",
    "curriculum_stage",
    "return_mean",
    "return_max",
    "return_min",
    "sigma_r",
    "degenerate",
    "eval_score",
)


@dataclass
class TrainResult:
    matrix: np.ndarray
    history: list
    eval_scores: list
    guided_fit: GuidedFit | None


def train(
    bundle: EnvBundle,
    hp: ArsHyperparams,
    rand: RandomizationConfig,
    params: TrainParams,
    initial_matrix: np.ndarray | None = None,
    checkpoint_fn=None,
    progress_fn=None,
) -> TrainResult:
    """Run the full training loop.

    checkpoint_fn(iteration, matrix, eval_score) is called at every
    evaluation; progress_fn(row_dict) after every iteration. The returned
    history rows are deterministic in (bundle, hp, rand, params).
    """
    guided_fit = None
    if initial_matrix is not None:
        theta = policy_mod.validate_policy_matrix(initial_matrix).flatten()
    elif params.guided:
        guided_fit = fit_guided(bundle, rand, hp.master_seed, params)
        theta = guided_fit.matrix.flatten()
    else:
        theta = np.zeros(ACT_DIM * OBS_DIM)

    eval_grid = make_eval_grid(terrain_grid(), hp.master_seed, params.eval_friction)
    history = []
    eval_scores = []
    episodes = 0
    sim_time = 0.0
    with RolloutPool(hp.workers) as pool:
        for it in range(params.iterations):
            theta, state, _ = run_iteration(
                theta, hp, bundle, rand, it, params.episode_len, pool,
                curriculum_switch=params.curriculum_switch,
            )
            episodes += 2 * hp.num_directions
            sim_time += 2 * hp.num_directions * params.episode_len * bundle.sim.dt
            all_returns = np.concatenate([state.returns_pos, state.returns_neg])
            eval_score = ""
            if (it + 1) % params.eval_every == 0:
                score, _ = evaluate(
                    theta.reshape(ACT_DIM, OBS_DIM), eval_grid, bundle,
                    params.episode_len, rand=rand,
                )
                eval_scores.append((it, score))
                eval_score = score
                if checkpoint_fn is not None:
                    checkpoint_fn(it, theta.reshape(ACT_DIM, OBS_DIM), score)
            row = {
                "iteration": it,
                "episodes": episodes,
                "sim_time_s": sim_time,
                "curriculum_stage": curriculum_stage(it, params.curriculum_switch),
                "return_mean": float(all_returns.mean()),
                "return_max": float(all_returns.max()),
                "return_min": float(all_returns.min()),
                "sigma_r": state.sigma_r,
                "degenerate": state.degenerate,
                "eval_score": eval_score,
            }
            history.append(row)
            if progress_fn is not None:
                progress_fn(row)
    return TrainResult(
        matrix=theta.reshape(ACT_DIM, OBS_DIM),
        history=history,
        eval_scores=eval_scores,
        guided_fit=guided_fit,
    )
