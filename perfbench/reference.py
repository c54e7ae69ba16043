"""Computations the benchmark checks the program's outputs against.

Each is written from the documented behaviour (the seed-stream table, the
terrain grid, the ARS update rule, the plane-angle convention and the
reward formula), not by calling the function under test, so a change that
alters what the program computes shows up as a failed check.
"""

from __future__ import annotations

import math

import numpy as np

# Seed-stream tags as documented in slopetrot.trainer and slopetrot.cli.
DELTA_STREAM = 0
TERRAIN_STREAM = 1
ROLLOUT_STREAM = 2
EVAL_STREAM = 3
CLI_ROLLOUT_STREAM = 99

INCLINATIONS = (0, 5, 7, 9, 11)
ORIENTATIONS = (0, 15, 30, 45, 60, 75, 90)
STAGE1_INCLINATIONS = (0, 5, 7)


def derive_seed(master_seed: int, *key: int) -> int:
    """First 64-bit word of SeedSequence(master_seed, spawn_key=key)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def combos(inclinations=INCLINATIONS):
    """(inclination, orientation) pairs: flat ground once, every other
    inclination at all seven orientations."""
    out = []
    for inc in inclinations:
        out.extend([(0, 0)] if inc == 0 else [(inc, ori) for ori in ORIENTATIONS])
    return out


def eval_grid(master_seed: int):
    """The 29 evaluation episodes: (inclination, orientation, seed)."""
    return [(inc, ori, derive_seed(master_seed, EVAL_STREAM, idx))
            for idx, (inc, ori) in enumerate(combos())]


def stage1_terrains(master_seed: int, iteration: int, count: int, friction_range):
    """Per-direction stage-1 terrains of one iteration: (inc, ori, friction),
    drawn uniformly over the gentle combos, combo then friction."""
    rng = np.random.default_rng(derive_seed(master_seed, TERRAIN_STREAM, iteration))
    gentle = combos(STAGE1_INCLINATIONS)
    out = []
    for _ in range(count):
        inc, ori = gentle[int(rng.integers(len(gentle)))]
        out.append((inc, ori, float(rng.uniform(*friction_range))))
    return out


def perturbations(master_seed: int, iteration: int, directions: int, size: int):
    rng = np.random.default_rng(derive_seed(master_seed, DELTA_STREAM, iteration))
    return rng.standard_normal((directions, size))


def ars_update(theta, deltas, returns_pos, returns_neg, step_size, top):
    """Keep the `top` directions with the largest max(R+, R-) (ties to the
    lower index), divide by the population sigma of the kept returns."""
    ranked = sorted(range(len(returns_pos)),
                    key=lambda k: (-max(returns_pos[k], returns_neg[k]), k))[:top]
    kept = [returns_pos[k] for k in ranked] + [returns_neg[k] for k in ranked]
    mean = sum(kept) / len(kept)
    sigma = math.sqrt(sum((r - mean) ** 2 for r in kept) / len(kept))
    step = sum((returns_pos[k] - returns_neg[k]) * deltas[k] for k in ranked)
    return theta + step_size / (top * sigma) * step


def plane_angles(inclination_deg: float, orientation_deg: float):
    """(roll, pitch) of the true plane: the normal (-sin i, 0, cos i)
    turned by the orientation about z; roll = atan2(n_y, n_z), pitch =
    -asin(n_x)."""
    inc = math.radians(inclination_deg)
    ori = math.radians(orientation_deg)
    nx = -math.sin(inc) * math.cos(ori)
    ny = -math.sin(inc) * math.sin(ori)
    nz = math.cos(inc)
    return math.atan2(ny, nz), -math.asin(nx)


def standing_flags(dxs, window: int = 50, threshold: float = 0.02):
    """Standing-still flag per step: net displacement over the last
    `window` steps below `threshold`, from step `window` on."""
    flags = []
    for t in range(len(dxs)):
        flags.append(t + 1 >= window and abs(sum(dxs[t + 1 - window:t + 1])) < threshold)
    return flags


def step_rewards(rows, plane, weights, max_step):
    """Reward of every logged step from its torso angles, height and dx."""
    roll_p, pitch_p = plane
    standing = standing_flags([row["dx"] for row in rows])
    out = []
    for row, still in zip(rows, standing):
        r = (math.exp(-weights.roll_width * (row["torso_roll"] - roll_p) ** 2)
             + math.exp(-weights.pitch_width * (row["torso_pitch"] - pitch_p) ** 2)
             + math.exp(-weights.yaw_width * (row["torso_yaw"] - weights.desired_yaw) ** 2)
             + math.exp(-weights.height_width * (row["height"] - weights.desired_height) ** 2)
             + weights.forward_weight * row["dx"] / max_step)
        out.append(r - weights.standing_penalty if still else r)
    return out


def normal_equations_error(obs, acts, matrix) -> float:
    """Largest |O^T (O M^T - A)| relative to |O^T| |A|: zero when M is a
    least-squares solution."""
    resid = obs @ matrix.T - acts
    scale = np.abs(obs).sum(axis=0).max() * np.abs(acts).max()
    return float(np.abs(obs.T @ resid).max() / scale)
