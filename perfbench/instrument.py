"""Hooks the benchmark puts on the program's public functions, from its own
files, for the length of one measured stretch.

Every measured stretch installs the capture hooks: episode step counts (at
each `SlopedTerrainEnv.reset`, so once per episode, never per step) and
the arguments and results of the few once-per-iteration calls that the
output checks need. A traced stretch also wraps each layer's public
functions where their callers look them up and records one span per call:
name, start, end and parent, kept in memory per process. Pool workers are
forked from the measuring process, so they inherit the hooks; each writes
its record to the output directory when it exits.
"""

from __future__ import annotations

import functools
import glob
import os
import pickle
import resource
import time
from array import array
from contextlib import contextmanager
from multiprocessing import util as mp_util

import numpy as np

from slopetrot import cli, gaitgen, legkin, policy, simenv, slopeest, trainer

SPANS = (
    "legkin.ik", "legkin.fk", "legkin.workspace_test", "legkin.clamp",
    "gaitgen.foot_target", "simenv.step", "simenv.reset", "simenv.log_row",
    "slopeest.update", "reward.compute", "policy.act", "policy.scale_clip",
    "policy.observation", "runlog.write_csv", "trainer.pool_map",
    "trainer.ars_update", "trainer.rollout", "trainer.evaluate",
    "trainer.demo_rollouts", "trainer.lstsq", "cli.main",
)
CODE = {name: i for i, name in enumerate(SPANS)}

# (owner, attribute, span): each function is replaced where its callers
# look it up, e.g. simenv calls legkin.inverse_kinematics through the
# legkin module but compute_reward through its own namespace.
TRACE_POINTS = (
    (legkin, "inverse_kinematics", "legkin.ik"),
    (legkin, "forward_kinematics", "legkin.fk"),
    (legkin, "in_workspace", "legkin.workspace_test"),
    (legkin, "clamp_to_workspace", "legkin.clamp"),
    (gaitgen, "checked_foot_target", "gaitgen.foot_target"),
    (simenv.SlopedTerrainEnv, "step", "simenv.step"),
    (simenv.SlopedTerrainEnv, "reset", "simenv.reset"),
    (simenv.SlopedTerrainEnv, "log_row", "simenv.log_row"),
    (slopeest.SlopeEstimator, "update", "slopeest.update"),
    (simenv, "compute_reward", "reward.compute"),
    (policy, "act", "policy.act"),
    (policy, "scale_clip_action", "policy.scale_clip"),
    (simenv, "build_observation", "policy.observation"),
    (cli, "write_csv", "runlog.write_csv"),
    (trainer.RolloutPool, "map", "trainer.pool_map"),
    (trainer, "ars_update", "trainer.ars_update"),
    (trainer, "rollout_return", "trainer.rollout"),
    (trainer, "evaluate", "trainer.evaluate"),
    (cli, "evaluate", "trainer.evaluate"),
    (trainer, "generate_strut_demos", "trainer.demo_rollouts"),
    (trainer, "guided_init", "trainer.lstsq"),
)

_ACTIVE = None  # the Recorder whose hooks are installed, if any


def _after_fork(recorder):
    # multiprocessing clears the finalizer registry in a new child and then
    # runs these callbacks, so the worker's Finalize is registered here.
    if _ACTIVE is recorder:
        recorder._become_worker()


class Recorder:
    """What one process saw during a measured stretch."""

    def __init__(self, out_dir: str, trace: bool):
        self.out_dir = out_dir
        self.trace = trace
        self.episode_steps = []
        self.captures = {"ars": [], "guided": [], "evaluate": []}
        self.degenerate_updates = 0
        self.task_bytes = 0
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.worker_records = []
        self._env = None
        self._saved = []
        mp_util.register_after_fork(self, _after_fork)

    # -- episode counting and captures -----------------------------------

    def close_episode(self) -> None:
        """Count the steps of the episode last reset in this process."""
        if self._env is not None and self._env.state is not None:
            self.episode_steps.append(self._env.state.step_index)
        self._env = None

    def _capture_hooks(self):
        rec = self
        reset = simenv.SlopedTerrainEnv.reset
        ars_update = trainer.ars_update
        guided_init = trainer.guided_init
        evaluate = trainer.evaluate
        update = slopeest.SlopeEstimator.update
        pool_map = trainer.RolloutPool.map

        def reset_hook(env, *args, **kwargs):
            rec.close_episode()
            rec._env = env
            return reset(env, *args, **kwargs)

        def ars_hook(state, hp):
            new_theta = ars_update(state, hp)
            rec.captures["ars"].append((state.iteration, state.theta.copy(),
                                        state.returns_pos.copy(), state.returns_neg.copy(),
                                        new_theta.copy()))
            return new_theta

        def guided_hook(demos):
            fit = guided_init(demos)
            rec.captures["guided"].append((demos, fit))
            return fit

        def evaluate_hook(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            rec.captures["evaluate"].append(result)
            return result

        hooks = [(simenv.SlopedTerrainEnv, "reset", reset_hook),
                 (trainer, "ars_update", ars_hook),
                 (trainer, "guided_init", guided_hook),
                 (trainer, "evaluate", evaluate_hook)]
        if self.trace:
            def update_hook(estimator, snapshot):
                estimate = update(estimator, snapshot)
                rec.degenerate_updates += estimator.last_degenerate
                return estimate

            def map_hook(pool, tasks):
                if not rec.task_bytes and tasks:
                    rec.task_bytes = len(pickle.dumps(tasks[0]))
                return pool_map(pool, tasks)

            hooks += [(slopeest.SlopeEstimator, "update", update_hook),
                      (trainer.RolloutPool, "map", map_hook)]
        return hooks

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn):
        code = CODE[name]
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn, as a span when tracing: for the benchmark's own calls
        into the program (cli.main)."""
        if self.trace:
            fn = self._span(name, fn)
        return fn(*args, **kwargs)

    # -- install / remove --------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Hooks in place for the body, removed afterwards; worker records
        written during the body are read back at the end."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a recorder is already installed")
        for owner, attr, hook in self._capture_hooks():
            self._replace(owner, attr, hook)
        if self.trace:
            for owner, attr, name in TRACE_POINTS:
                self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = None
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self.close_episode()
            self._collect_workers()

    # -- pool workers --------------------------------------------------------

    def _become_worker(self) -> None:
        """In a freshly forked pool worker: start an empty record and write
        it out when the worker exits."""
        self._env = None
        self.episode_steps = []
        self.captures = {"ars": [], "guided": [], "evaluate": []}
        self.degenerate_updates = 0
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        del self.stack[1:]
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        self.close_episode()
        record = {
            "episode_steps": self.episode_steps,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "degenerate_updates": self.degenerate_updates,
            "spans": (self.names, self.parents, self.starts, self.ends),
        }
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.pkl")
        with open(path + ".tmp", "wb") as fh:
            pickle.dump(record, fh)
        os.replace(path + ".tmp", path)

    def _collect_workers(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.pkl"))):
            with open(path, "rb") as fh:
                record = pickle.load(fh)
            os.remove(path)
            self.worker_records.append(record)
            self.degenerate_updates += record["degenerate_updates"]

    # -- results -------------------------------------------------------------

    def steps(self) -> int:
        return sum(self.episode_steps) + sum(
            sum(r["episode_steps"]) for r in self.worker_records)

    def peak_rss_mb(self) -> float:
        kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                 + [r["maxrss_kb"] for r in self.worker_records])
        return kb / 1024.0

    def span_table(self):
        """Per process: (name codes, durations, self times, starts, ends)."""
        tables = []
        own = (self.names, self.parents, self.starts, self.ends)
        for spans in [own] + [r["spans"] for r in self.worker_records]:
            names, parents, starts, ends = (np.asarray(a) for a in spans)
            dur = ends - starts
            has_parent = parents >= 0
            child = np.bincount(parents[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            tables.append((names, dur, dur - child, starts, ends))
        return tables
