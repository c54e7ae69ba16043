"""The three workloads: what each runs through the program's public entry
points, and the checks on every output.

A round is a fixed set of jobs (user-level operations) made from the
workload seed; a run repeats whole rounds. Jobs are timed with the hooks
installed; the checks run afterwards with the hooks removed, so their
replays are neither timed nor counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import reference
from slopetrot import cli, config, trainer
from slopetrot.simenv import RandomizationConfig, TerrainPlane

POLICY_FILE = "perfbench/policy_guided_seed7.txt"
EPISODE_LEN = 400
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")
RUNLOG_FAULT = ("runlog.format_value writes repr() of numpy scalars, so rollout.csv"
                " holds fields like np.float64(...) that do not parse as numbers")


@dataclass
class Round:
    jobs: list                      # wall seconds of each timed job
    steps: list                     # control steps simulated in each job
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # check failures nothing explains
    known: list = field(default_factory=list)      # failures from RUNLOG_FAULT
    digest: str = ""
    phases: dict = field(default_factory=dict)     # named sub-timings of the jobs

    def op(self, name: str, failures: list, known: bool = False) -> None:
        """Count one operation; `failures` lists its failed checks."""
        self.attempted += 1
        if failures:
            self.failed += 1
            (self.known if known else self.problems).extend(f"{name}: {f}" for f in failures)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _load_matrix(path: str) -> np.ndarray:
    """The policy file's 20x11 matrix, read without the program's loader."""
    return np.loadtxt(path, comments="#", skiprows=1)


def _read_csv(path: str):
    """(header lines, columns, rows of strings) of a CSV with '#' headers."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    columns = body[0].split(",")
    return header, columns, [dict(zip(columns, ln.split(","))) for ln in body[1:]]


def _reward_bound(weights) -> float:
    return 4.0 + weights.forward_weight


class TrainDesk:
    """fit_guided, then train() on its matrix with the acceptance fixture's
    desk settings, cut to three iterations that end on the checkpoint
    evaluation over the 29-combo grid. Master seed = workload seed."""

    name = "train_desk"
    iterations = 3
    workers = 2

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def setup(self) -> None:
        cfg = config.RunConfig()
        self.bundle = cfg.bundle()
        self.rand = cfg.rand
        self.hp = trainer.ArsHyperparams(step_size=0.25, noise=0.04, num_directions=16,
                                         top_directions=4, workers=self.workers, master_seed=self.seed)
        self.params = trainer.TrainParams(iterations=self.iterations,
                                          eval_every=self.iterations,
                                          episode_len=EPISODE_LEN)

    def run_round(self, rec) -> Round:
        marks = []
        checkpoints = []
        clock = time.perf_counter
        with rec.installed():
            t0 = clock()
            fit = trainer.fit_guided(self.bundle, self.rand, self.seed, self.params)
            t1 = clock()
            result = trainer.train(
                self.bundle, self.hp, self.rand, self.params,
                initial_matrix=fit.matrix,
                checkpoint_fn=lambda it, m, s: checkpoints.append((it, m.copy(), s)),
                progress_fn=lambda row: marks.append(clock()),
            )
            t2 = clock()
        iteration_s = np.diff([t1] + marks)
        plain = [s for it, s in enumerate(iteration_s)
                 if (it + 1) % self.params.eval_every != 0]
        rnd = Round(jobs=[t2 - t0], steps=[rec.steps()], phases={
            "trainer.guided_fit_s": t1 - t0,
            "trainer.iteration_s": float(np.median(plain)),
            "trainer.train_s": t2 - t1,
        })
        pooled = sum(len(r["episode_steps"]) for r in rec.worker_records)
        expected = 2 * self.hp.num_directions * self.iterations
        if pooled != expected:
            rnd.problems.append(f"pool workers recorded {pooled} episodes, not {expected}")
        rng = np.random.default_rng([self.seed, 1])
        rnd.op("guided fit", self._check_fit(rec, fit))
        theta = fit.matrix.flatten()
        captured = rec.captures["ars"]
        for it in range(self.iterations):
            failures = self._check_iteration(captured, it, theta, rng)
            rnd.op(f"iteration {it}", failures)
            if it < len(captured):
                theta = captured[it][4]
        failures = []
        if not np.array_equal(result.matrix.flatten(), theta):
            failures.append("final matrix is not the last update")
        rnd.op("checkpoint evaluation", failures + self._check_eval(rec, result, checkpoints, rng))
        parts = [fit.matrix.tobytes(), result.matrix.tobytes(), result.eval_scores]
        parts += [c[2].tobytes() + c[3].tobytes() for c in captured]
        rnd.digest = _digest(parts)
        return rnd

    def _check_fit(self, rec, fit) -> list:
        if len(rec.captures["guided"]) != 1 or rec.captures["guided"][0][1] is not fit:
            return ["guided_init was not called once by fit_guided"]
        demos = rec.captures["guided"][0][0]
        obs = np.array([d[0] for d in demos], dtype=float)
        acts = np.array([d[1] for d in demos], dtype=float)
        failures = []
        if fit.rank != 11 or np.linalg.matrix_rank(obs) != 11:
            failures.append(f"rank {fit.rank}, demonstrations rank {np.linalg.matrix_rank(obs)}")
        err = reference.normal_equations_error(obs, acts, fit.matrix)
        if not err <= 1e-10:
            failures.append(f"normal equations off by {err:.3g}")
        resid = float(((obs @ fit.matrix.T - acts) ** 2).sum())
        if not abs(resid - fit.residual) <= 1e-8 * max(resid, 1e-12):
            failures.append(f"residual {fit.residual!r}, recomputed {resid!r}")
        return failures

    def _check_iteration(self, captured, it, theta, rng) -> list:
        """The update recomputed from the iteration's returns, and one
        sampled rollout replayed in-process against its pooled return."""
        if it >= len(captured) or captured[it][0] != it:
            return ["update not captured"]
        _, theta_in, r_pos, r_neg, new_theta = captured[it]
        hp = self.hp
        failures = []
        if not np.array_equal(theta_in, theta):
            failures.append("started from another matrix than the previous update")
        deltas = reference.perturbations(self.seed, it, hp.num_directions, theta.size)
        expected = reference.ars_update(theta, deltas, r_pos, r_neg, hp.step_size, hp.top())
        err = float(np.abs(expected - new_theta).max())
        if not err <= 1e-9:
            failures.append(f"update differs from the recomputation by {err:.3g}")
        k = int(rng.integers(hp.num_directions))
        sign = 1 if rng.integers(2) else -1
        inc, ori, friction = reference.stage1_terrains(
            self.seed, it, hp.num_directions, self.rand.friction_range)[k]
        perturbed = theta + sign * hp.noise * deltas[k]
        replay = trainer.rollout_return(
            perturbed.reshape(20, 11), self.bundle, TerrainPlane(inc, ori, friction), self.rand,
            reference.derive_seed(self.seed, reference.ROLLOUT_STREAM, it, k), EPISODE_LEN)
        pooled = (r_pos if sign > 0 else r_neg)[k]
        if replay != pooled:
            failures.append(f"direction {k} sign {sign}: pooled {pooled!r}, replayed {replay!r}")
        return failures

    def _check_eval(self, rec, result, checkpoints, rng) -> list:
        last = self.iterations - 1
        if len(checkpoints) != 1 or checkpoints[0][0] != last or len(rec.captures["evaluate"]) != 1:
            return ["expected one checkpoint evaluation, after the last iteration"]
        _, matrix, score = checkpoints[0]
        mean, per_terrain = rec.captures["evaluate"][0]
        failures = []
        if not np.array_equal(matrix, result.matrix) or result.history[last]["eval_score"] != score:
            failures.append("checkpoint matrix or score differs from the result")
        grid = [(t.inclination_deg, t.yaw_deg, seed) for t, seed, _ in per_terrain]
        if grid != reference.eval_grid(self.seed) or any(t.friction != 0.65 for t, _, _ in per_terrain):
            failures.append("grid differs from the 29 documented combos and seeds")
            return failures
        returns = [r for _, _, r in per_terrain]
        steps = rec.episode_steps[-len(returns):]
        bound = _reward_bound(self.bundle.reward)
        for (inc, ori, _), ret, n in zip(grid, returns, steps):
            if not (math.isfinite(ret) and abs(ret) <= n * bound):
                failures.append(f"{inc}/{ori}: return {ret!r} over {n} steps")
        if not abs(sum(returns) / len(returns) - score) <= 1e-9 * abs(score):
            failures.append(f"score {score!r} is not the mean return")
        idx = int(rng.integers(len(grid)))
        inc, ori, seed = grid[idx]
        replay = trainer.rollout_return(matrix, self.bundle, TerrainPlane(inc, ori, 0.65),
                                        self.rand, seed, EPISODE_LEN)
        if replay != returns[idx]:
            failures.append(f"{inc}/{ori}: evaluated {returns[idx]!r}, replayed {replay!r}")
        return failures


class EvalGrid:
    """One `slopetrot eval` of the fixed policy over the 29 combos, pushes
    off, in-process. The workload seed is the master seed of the grid."""

    name = "eval_grid"
    workers = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = os.path.join(out_dir, "eval")

    def setup(self) -> None:
        cfg = config.RunConfig()
        self.bundle = cfg.bundle()
        self.weights = cfg.reward
        self.matrix = _load_matrix(POLICY_FILE)

    def run_round(self, rec) -> Round:
        argv = ["eval", "--policy", POLICY_FILE, "--seed", str(self.seed), "--out", self.out]
        printed = io.StringIO()
        with rec.installed():
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(printed):
                code = rec.call("cli.main", cli.main, argv)
            t1 = time.perf_counter()
        rnd = Round(jobs=[t1 - t0], steps=[rec.steps()])
        path = os.path.join(self.out, "eval.csv")
        if code != 0 or not os.path.exists(path):
            rnd.op("eval", [f"exit code {code}"])
            return rnd
        rnd.op("eval", self._check(path, printed.getvalue(), rec.episode_steps))
        with open(path, "rb") as fh:
            rnd.digest = _digest([fh.read()])
        return rnd

    def _check(self, path, printed, steps) -> list:
        _, _, rows = _read_csv(path)
        failures = []
        grid = reference.eval_grid(self.seed)
        got = [(float(r["inclination"]), float(r["orientation"]), int(r["seed"])) for r in rows]
        if got != [(float(i), float(o), s) for i, o, s in grid] or any(
                float(r["friction"]) != 0.65 for r in rows):
            return ["rows differ from the 29 documented combos and seeds"]
        returns = [float(r["return"]) for r in rows]
        if steps != [EPISODE_LEN] * len(grid):
            failures.append(f"episode lengths {sorted(set(steps))}, not {EPISODE_LEN}")
        bound = EPISODE_LEN * _reward_bound(self.weights)
        bad = [(g[:2], r) for g, r in zip(grid, returns) if not (math.isfinite(r) and abs(r) <= bound)]
        if bad:
            failures.append(f"returns out of bounds: {bad}")
        match = re.search(r"mean return over (\d+) episodes: (\S+)", printed)
        if match is None or int(match.group(1)) != len(rows) or not (
                abs(float(match.group(2)) - sum(returns) / len(returns)) <= 0.005 + 1e-9):
            failures.append("printed mean is not the mean of eval.csv")
        idx = int(np.random.default_rng([self.seed, 2]).integers(len(grid)))
        inc, ori, seed = grid[idx]
        replay = trainer.rollout_return(
            self.matrix, self.bundle, TerrainPlane(inc, ori, 0.65),
            RandomizationConfig(push_enabled=False), seed, EPISODE_LEN)
        if replay != returns[idx]:
            failures.append(f"{inc}/{ori}: eval.csv {returns[idx]!r}, replayed {replay!r}")
        return failures


class RolloutLog:
    """Four logged `slopetrot rollout` calls of the fixed policy. Terrain,
    friction, master seed and the scripted push of each come from the
    workload seed; each call writes its per-step rollout.csv."""

    name = "rollout_log"
    calls = 4
    workers = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        cfg = config.RunConfig()
        self.weights = cfg.reward
        self.max_step = 2.0 * cfg.gait.max_step_len / cfg.gait.cycle_period * cfg.sim.dt
        self.first_checked_step = round(cfg.gait.cycle_period / cfg.sim.dt)  # second exchange
        rng = np.random.default_rng([self.seed, 3])
        self.inputs = []
        for i in range(self.calls):
            inc = reference.INCLINATIONS[int(rng.integers(5))]
            ori = reference.ORIENTATIONS[int(rng.integers(7))]
            friction = round(float(rng.uniform(0.5, 0.8)), 2)
            master = int(rng.integers(2**31))
            push = round(float(rng.uniform(60.0, 100.0)), 1) * (1 if rng.integers(2) else -1)
            push_at = round(float(rng.uniform(0.5, 1.2)), 2)
            out = os.path.join(self.out_dir, f"rollout{i}")
            argv = ["rollout", "--policy", POLICY_FILE, "--incline", str(inc),
                    "--orientation", str(ori), "--friction", str(friction),
                    "--seed", str(master), "--push", str(push), "--push-at", str(push_at),
                    "--push-dur", "0.2", "--out", out]
            self.inputs.append((inc, ori, master, out, argv))

    def run_round(self, rec) -> Round:
        jobs = []
        codes = []
        clock = time.perf_counter
        with rec.installed():
            for *_, argv in self.inputs:
                t0 = clock()
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(rec.call("cli.main", cli.main, argv))
                jobs.append(clock() - t0)
        rnd = Round(jobs=jobs, steps=rec.episode_steps)  # one episode a call
        parts = []
        for (inc, ori, master, out, _), code in zip(self.inputs, codes):
            name = f"rollout {inc}/{ori} seed {master}"
            path = os.path.join(out, "rollout.csv")
            if code != 0 or not os.path.exists(path):
                rnd.op(name, [f"exit code {code}"])
                continue
            with open(path, "rb") as fh:
                parts.append(fh.read())
            strict, checks = self._check(path, inc, ori, master)
            if checks:
                rnd.op(name, strict + checks)
            else:
                rnd.op(name, strict, known=True)
        rnd.digest = _digest(parts)
        return rnd

    def _check(self, path, inc, ori, master):
        """(strict-parse failures, other failures). The other checks read
        numpy-scalar reprs leniently, so they still run while runlog writes
        them."""
        header, columns, rows = _read_csv(path)
        strict = []
        bad = {c for row in rows for c in columns if not _parses(row[c])}
        if bad:
            if all(NUMPY_REPR.fullmatch(row[c]) for row in rows for c in bad):
                strict.append(f"{len(bad)} of {len(columns)} columns unparseable: {RUNLOG_FAULT}")
            else:
                return strict, [f"unparseable columns {sorted(bad)}"]
        checks = []
        values = [{c: _lenient(row[c]) for c in columns} for row in rows]
        if [v["step"] for v in values] != list(range(1, EPISODE_LEN + 1)):
            checks.append(f"{len(rows)} rows, not steps 1..{EPISODE_LEN}")
            return strict, checks
        seed_line = f"# rollout_seed: {reference.derive_seed(master, reference.CLI_ROLLOUT_STREAM)}"
        if seed_line not in header:
            checks.append("rollout seed is not the documented CLI stream")
        plane = reference.plane_angles(inc, ori)
        err = max(max(abs(v["plane_roll"] - plane[0]), abs(v["plane_pitch"] - plane[1]))
                  for v in values if v["step"] >= self.first_checked_step)
        if not err <= 1e-12:
            checks.append(f"estimated plane off the true plane by {err:.3g} rad")
        expected = reference.step_rewards(values, plane, self.weights, self.max_step)
        err = max(abs(v["reward"] - e) for v, e in zip(values, expected))
        if not err <= 1e-12:
            checks.append(f"reward differs from the recomputation by {err:.3g}")
        return strict, checks


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _lenient(text: str) -> float:
    match = NUMPY_REPR.fullmatch(text)
    return float(match.group(1) if match else text)


WORKLOADS = {w.name: w for w in (TrainDesk, EvalGrid, RolloutLog)}
