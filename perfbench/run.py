"""slopetrot benchmark: desk training, grid evaluation and logged rollouts.

    python3 perfbench/run.py --workload train_desk|eval_grid|rollout_log|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. It imports the program from ./src, repeats
whole rounds of the workload's jobs until S seconds have passed (at least
one round), checks every output against computations of its own and prints
each metric by name with its unit. The last line of standard output is one
JSON object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics of one traced round with --trace 1).
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the pool's two workers already fill two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("train_desk", "eval_grid", "rollout_log")
SETUP_PROBES = 5


def _import_program():
    """Import the program from this checkout's src/, or exit non-zero."""
    if not (SRC / "slopetrot" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'slopetrot'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import slopetrot

    if Path(slopetrot.__file__).resolve().parent != SRC / "slopetrot":
        sys.exit(f"error: imported slopetrot from {slopetrot.__file__}, not from {SRC}")


def _setup_probe(name: str, seed: int) -> None:
    """Child process for setup_s: the workload's set-up, then 'ready'."""
    _import_program()
    import workloads

    workloads.WORKLOADS[name](seed, str(OUT / name)).setup()
    print("ready", flush=True)


def _setup_seconds(name: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter to the end of the
    workload's set-up (imports, config and bundle, policy file)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--setup-probe", name,
                               "--seed", str(seed)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up of {name} failed (exit code {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def _reference_digests():
    """(workload, seed) -> digest, from the table in the README."""
    table = {}
    pattern = re.compile(r"^\| (\w+) \| (\d+) \| ([0-9a-f]{64}) \|$")
    for line in (ROOT / "perfbench" / "README.md").read_text().splitlines():
        match = pattern.match(line)
        if match:
            table[(match.group(1), int(match.group(2)))] = match.group(3)
    return table


def _rounds(workload, out_dir, seconds, trace):
    """Whole rounds, each with a fresh recorder: until `seconds` have passed
    (at least one) untraced, exactly one traced."""
    import instrument

    rounds = []
    recorders = []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        rec = instrument.Recorder(str(out_dir), trace=trace)
        rounds.append(workload.run_round(rec))
        recorders.append(rec)
    return rounds, recorders


def _per_layer(rec, rnd, overhead_pct, workers):
    """The per-layer metrics of one traced round."""
    import numpy as np

    import instrument

    tables = rec.span_table()
    names = np.concatenate([t[0] for t in tables])
    dur = np.concatenate([t[1] for t in tables])
    self_t = np.concatenate([t[2] for t in tables])

    def count(span):
        return int((names == instrument.CODE[span]).sum())

    def mean(span, values, scale):
        sel = names == instrument.CODE[span]
        return float(values[sel].mean()) * scale if sel.any() else 0.0

    # Pool dispatch and imbalance: each map's wall time minus the rollout
    # time of the tasks it ran (in the workers) spread over the workers.
    maps = tables[0][0] == instrument.CODE["trainer.pool_map"]
    map_spans = list(zip(tables[0][3][maps], tables[0][4][maps]))
    worker_rollouts = [(t[3][sel], t[1][sel]) for t in tables[1:]
                       for sel in [t[0] == instrument.CODE["trainer.rollout"]]]
    waits = []
    for start, end in map_spans:
        busy = sum(float(d[(s >= start) & (s <= end)].sum()) for s, d in worker_rollouts)
        waits.append(float(end - start) - busy / workers)

    foot_targets = count("gaitgen.foot_target")
    metrics = {
        "legkin.ik_calls": (count("legkin.ik"), "count"),
        "legkin.ik_us": (mean("legkin.ik", self_t, 1e6), "us"),
        "legkin.fk_calls": (count("legkin.fk"), "count"),
        "legkin.fk_us": (mean("legkin.fk", self_t, 1e6), "us"),
        "legkin.workspace_test_us": (mean("legkin.workspace_test", self_t, 1e6), "us"),
        "legkin.clamp_calls": (count("legkin.clamp"), "count"),
        "gaitgen.foot_target_calls": (foot_targets, "count"),
        "gaitgen.foot_target_us": (mean("gaitgen.foot_target", self_t, 1e6), "us"),
        "gaitgen.clamp_ratio": (count("legkin.clamp") / foot_targets if foot_targets else 0.0,
                                "ratio"),
        "simenv.step_calls": (count("simenv.step"), "count"),
        "simenv.step_us": (mean("simenv.step", dur, 1e6), "us"),
        "simenv.step_self_us": (mean("simenv.step", self_t, 1e6), "us"),
        "simenv.reset_us": (mean("simenv.reset", dur, 1e6), "us"),
        "simenv.log_row_us": (mean("simenv.log_row", self_t, 1e6), "us"),
        "slopeest.update_calls": (count("slopeest.update"), "count"),
        "slopeest.update_us": (mean("slopeest.update", self_t, 1e6), "us"),
        "slopeest.degenerate_updates": (rec.degenerate_updates, "count"),
        "reward.calls": (count("reward.compute"), "count"),
        "reward.us": (mean("reward.compute", self_t, 1e6), "us"),
        "policy.act_us": (mean("policy.act", self_t, 1e6), "us"),
        "policy.scale_clip_us": (mean("policy.scale_clip", self_t, 1e6), "us"),
        "policy.observation_us": (mean("policy.observation", self_t, 1e6), "us"),
        "runlog.write_csv_ms": (mean("runlog.write_csv", self_t, 1e3), "ms"),
        "cli.main_self_ms": (mean("cli.main", self_t, 1e3), "ms"),
        "trainer.pool_map_s": (mean("trainer.pool_map", dur, 1.0), "s"),
        "trainer.pool_wait_s": (statistics.mean(waits) if waits else 0.0, "s"),
        "trainer.task_bytes": (rec.task_bytes, "bytes"),
        "trainer.ars_update_us": (mean("trainer.ars_update", self_t, 1e6), "us"),
        "trainer.rollouts": (count("trainer.rollout"), "count"),
        "trainer.rollout_s": (mean("trainer.rollout", dur, 1.0), "s"),
        "trainer.evaluate_s": (mean("trainer.evaluate", dur, 1.0), "s"),
        "trainer.demo_rollouts_s": (mean("trainer.demo_rollouts", dur, 1.0), "s"),
        "trainer.lstsq_ms": (mean("trainer.lstsq", self_t, 1e3), "ms"),
        "trainer.guided_fit_s": (rnd.phases.get("trainer.guided_fit_s", 0.0), "s"),
        "trainer.iteration_s": (rnd.phases.get("trainer.iteration_s", 0.0), "s"),
        "trainer.train_s": (rnd.phases.get("trainer.train_s", 0.0), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    _import_program()
    setup_s = _setup_seconds(name, seed)
    import workloads

    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, str(out_dir))
    workload.setup()

    rounds, recorders = _rounds(workload, out_dir, seconds, trace=False)
    job_s = statistics.median(j for r in rounds for j in r.jobs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "env_steps_per_s": (statistics.median(n / t for r in rounds
                                              for n, t in zip(r.steps, r.jobs)), "steps/s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (max(rec.peak_rss_mb() for rec in recorders), "MB"),
    }
    untraced = len(rounds)
    if trace:
        # The end-to-end figures of the untraced rounds are printed, but
        # the result carries the traced round's per-layer metrics.
        for key, (value, unit) in metrics.items():
            print(f"untraced {key} = {value!r} {unit}")
        traced, traced_recs = _rounds(workload, out_dir, seconds, trace=True)
        overhead_pct = 100.0 * (statistics.median(traced[0].jobs) / job_s - 1.0)
        metrics = _per_layer(traced_recs[0], traced[0], overhead_pct, workload.workers)
        rounds += traced

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"rounds of one run gave {len(digests)} different output digests")
    correct = not problems

    print(f"workload {name} seed {seed}: {untraced} untraced round(s),"
          f" {len(rounds) - untraced} traced")
    for line in sorted({k for r in rounds for k in r.known}):
        print(f"failed (known fault): {line}")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    digest = rounds[0].digest
    ref = _reference_digests().get((name, seed))
    verdict = ("no reference for this seed" if ref is None
               else "matches the reference" if ref == digest else f"MISMATCH, reference {ref}")
    print(f"digest {digest} ({verdict})")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, one after the other; the last line
    maps each workload to its result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    if args.setup_probe:
        _setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
