"""Split the time of the eval_grid workload's episodes by part.

    python3 tools/step_split.py [--seed S] [--rounds R]

Each round is one `slopetrot eval` of perfbench's fixed policy over the
29 combos, pushes off, in this process, as the benchmark's eval_grid
workload runs it; one untimed round first compiles and warms up. Method
timers on the program's own functions time
each part of the episodes: building the environment (make_env), reset,
the compiled plan call (plan), the compiled torso call (torso), the rest
of each half cycle's run (half_cycle), the contact captures (capture),
the policy (controller), the observations (observation), and step's own
code (step). Each part is self time: a call timed inside another part
counts only to the inner one. What is left of each episode (loop) is the
episode loop around them: trainer.rollout_stats and the run generator.
perfbench's spans cannot see the compiled calls, so this is where their
share shows.

Prints one JSON object: per episode the mean microseconds of each part and
the total, the calls per episode, each part's median microseconds per
call, and the environments built in the whole process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slopetrot import cli, policy, simenv, trainer  # noqa: E402

POLICY_FILE = ROOT / "perfbench" / "policy_guided_seed7.txt"
PARTS = ("make_env", "reset", "plan", "torso", "half_cycle", "capture", "controller",
         "observation", "step")


class Timers:
    """Self-time timers on functions, in integer nanoseconds so that the
    parts of an episode add up exactly."""

    def __init__(self):
        self.calls = {}  # each recorded call's self time, by part
        self.counts = {}  # every call, recorded or not, by part
        self.inclusive = {}  # the recorded calls' time with what they call, by part
        self.stack = [0]  # the time of timed calls inside the one running
        self.recording = False

    def register(self, name: str) -> None:
        self.calls.setdefault(name, [])
        self.counts.setdefault(name, 0)
        self.inclusive.setdefault(name, 0)

    def wrap(self, name: str, fn):
        """fn, timed as part name."""
        self.register(name)
        calls, clock, stack = self.calls[name], time.perf_counter_ns, self.stack

        def timed(*args, **kwargs):
            self.counts[name] += 1
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                if self.recording:
                    calls.append(elapsed - inner)
                    self.inclusive[name] += elapsed

        return timed

    def total(self, name: str) -> int:
        return sum(self.calls[name])


@contextlib.contextmanager
def installed(timers: Timers):
    """The timers in place of the program's functions, for the block."""
    env = simenv.SlopedTerrainEnv
    targets = [
        (trainer.EnvBundle, "make_env", "make_env"),
        (env, "reset", "reset"),
        (simenv, "plan_half_cycle", "plan"),
        (simenv, "step_torso", "torso"),
        (env, "_run_half_cycle", "half_cycle"),
        (env, "_capture", "capture"),
        (simenv, "build_observation", "observation"),
        (env, "step", "step"),
        (trainer, "rollout_stats", "episode"),
    ]
    controller = policy.linear_controller
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    saved.append((policy, "linear_controller", controller))
    for owner, attr, name in targets:
        setattr(owner, attr, timers.wrap(name, getattr(owner, attr)))
    timers.register("controller")
    policy.linear_controller = lambda *args: timers.wrap("controller", controller(*args))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def eval_round(seed: int, out: str) -> None:
    """One `slopetrot eval` of the fixed policy, as eval_grid runs it."""
    argv = ["eval", "--policy", str(POLICY_FILE), "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"error: slopetrot {' '.join(argv)} failed")


def split(seed: int = 3, rounds: int = 3, episodes: int | None = None) -> dict:
    """The split of rounds evaluations after one untimed one. With
    episodes, each evaluation covers only the grid's first episodes."""
    timers = Timers()
    grid = trainer.make_eval_grid
    with contextlib.ExitStack() as stack:
        if episodes is not None:
            def first(*args, **kwargs):
                return grid(*args, **kwargs)[:episodes]
            cli.make_eval_grid = first
            stack.callback(setattr, cli, "make_eval_grid", grid)
        stack.enter_context(installed(timers))
        out = stack.enter_context(tempfile.TemporaryDirectory())
        eval_round(seed, out)
        timers.recording = True
        for _ in range(rounds):
            eval_round(seed, out)
    count = len(timers.calls["episode"])
    total = timers.inclusive["episode"]
    parts = {name: timers.total(name) / count / 1e3 for name in PARTS}
    per_episode = dict(parts, loop=(total - sum(timers.total(name) for name in PARTS)) / count
                       / 1e3, total=total / count / 1e3)
    return {
        "workload": "eval_grid",
        "seed": seed,
        "rounds": rounds,
        "episodes": count,
        "per_episode_us": per_episode,
        "calls_per_episode": {name: len(timers.calls[name]) / count for name in PARTS},
        "median_per_call_us": {name: statistics.median(timers.calls[name]) / 1e3
                               for name in PARTS if timers.calls[name]},
        "make_env_in_process": timers.counts["make_env"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3, help="master seed of the grid")
    parser.add_argument("--rounds", type=int, default=3, help="timed evaluations")
    args = parser.parse_args()
    result = split(args.seed, args.rounds)
    for key in ("per_episode_us", "calls_per_episode", "median_per_call_us"):
        result[key] = {name: round(value, 3) for name, value in result[key].items()}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
