"""Compare two revisions on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --pr N
        [--claim WORKLOAD:METRIC] [--trace-seed S] [--setup-pairs K]
        [--note TEXT] [--seeds-note TEXT]

Run from the repository root. Each revision is exported with `git archive`
into its own temporary directory, so both run the same way from committed
files. For each of the three workloads, pair i (seed i, i = 1..10) runs
`perfbench/run.py --workload W --seed i --seconds 20 --trace 0` once in
each tree, the parent first in odd pairs and the change first in even
ones. With --trace-seed, each tree also runs one traced round per workload
at that seed for the per-layer metrics. With --setup-pairs K, each
workload's pairs are followed by K alternating pairs of single set-up
probes, `perfbench/run.py --setup-probe W --seed i`: the wall time from
starting a fresh interpreter to its "ready" line, one of the five probes
whose median the benchmark reports as setup_s. Their medians and
quartiles per side go under setup_probes, reported and not gated: 5
probes per run spread too widely to tell a few percent of set-up time.

Prints each side's median, quartiles and the change's win count per
end-to-end metric, and writes BENCH_<N>.json in the schema of
BENCH_12.json. Each run's child CPU seconds (user plus system, the
getrusage(RUSAGE_CHILDREN) difference around it) go into a per-workload
cpu_s comparison next to the metrics. It is reported, not gated: each
run lasts 20 s of wall time, so a run that got fewer CPU seconds than its
side's others shared a busy host, which tells a slow host from a slow
program. A claim is met when the change wins at least 9 of the 10
pairs and the medians differ, in the better direction, by more than the
parent's interquartile range. A metric is marked OUTSIDE BOUND when the
change's median is worse than the parent's by more than the bound
BENCHMARK.json sets, and UNRESOLVED when the parent's interquartile range
exceeds that bound (relative to its median) and not every change run reads
better than every parent run: such a spread cannot show the change is no
worse. A workload whose pairs show differing digests, a run that reports a
wrong result or failed operations is marked DIGESTS DIFFER, INCORRECT or
FAILED OPERATIONS, whatever its metrics read: the benchmark rejects a
change for each of them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_desk", "eval_grid", "rollout_log")
SECONDS = 20
SEEDS = tuple(range(1, 11))  # one pair per seed
MIN_WINS = 9
DIGEST = re.compile(r"^digest ([0-9a-f]{64}) \((.*)\)$")
README_DIGEST = re.compile(r"^\| (\w+) \| (\d+) \| ([0-9a-f]{64}) \|$")
COMMAND = (f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0,"
           " parent and change alternating, order swapped every pair")
RULE = (f"met when the change wins at least {MIN_WINS} of {len(SEEDS)} pairs and the medians"
        " differ by more than the parent's interquartile range")


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; return its short hash."""
    short = _git("rev-parse", "--short", rev).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return short


def run_once(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run in tree: its JSON result plus the digest line and
    the CPU seconds its processes used."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["digest"] = next((m.groups() for m in map(DIGEST.match, lines) if m), (None, None))
    result["cpu_s"] = ((after.ru_utime - before.ru_utime)
                       + (after.ru_stime - before.ru_stime))
    return result


def setup_probe(tree: Path, workload: str, seed: int) -> float:
    """Seconds from starting `perfbench/run.py --setup-probe` in tree to
    its "ready" line, as the benchmark times each of setup_s's probes."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "perfbench/run.py", "--setup-probe", workload,
                           "--seed", str(seed)], cwd=tree, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"error: set-up probe of {workload} seed {seed} in {tree} failed "
                 f"(exit code {proc.returncode})")
    return elapsed


def summary(runs) -> dict:
    q1, q3 = np.percentile(runs, [25, 75]).tolist()
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "min": min(runs), "max": max(runs), "n": len(runs)}


def describe(parent_runs, change_runs, better: str) -> dict:
    """Both sides' runs and summaries, the change's pair wins and the
    difference of the medians."""
    sign = 1.0 if better == "higher" else -1.0
    parent, change = summary(parent_runs), summary(change_runs)
    diff = change["median"] - parent["median"]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_runs": parent_runs,
        "change_runs": change_runs,
        "change_wins": f"{wins}/{len(parent_runs)}",
        "median_change_rel": diff / parent["median"] if parent["median"] else math.nan,
        "median_diff": diff,
        "parent_iqr": parent["q3"] - parent["q1"],
    }


def compare(parent_runs, change_runs, better: str, bound: float) -> dict:
    """describe's fields plus the verdicts against the metric's bound."""
    sign = 1.0 if better == "higher" else -1.0
    out = describe(parent_runs, change_runs, better)
    median = out["parent"]["median"]
    spread = out["parent_iqr"] / abs(median) if median else math.nan
    better_every_run = all(sign * (c - p) > 0 for p in parent_runs for c in change_runs)
    out.update({
        "bound": bound,
        "within_bound": sign * out["median_diff"] >= -bound * abs(median),
        "parent_spread_rel": spread,
        "change_better_every_run": better_every_run,
        "unresolved": spread > bound and not better_every_run,
    })
    return out


def faults(seeds, parent_runs, change_runs) -> list:
    """What the pairs, one per seed, show that rejects a change whatever its
    metrics: seeds whose two digests differ, runs that report a wrong
    result, and failed operations, each with its counts per side; empty
    when none shows."""
    found = []
    differ = [str(seed) for seed, p, c in zip(seeds, parent_runs, change_runs)
              if p["digest"][0] != c["digest"][0]]
    if differ:
        found.append(f"DIGESTS DIFFER at seeds {', '.join(differ)}")
    sides = (("parent", parent_runs), ("change", change_runs))
    if not all(r["correct"] for r in parent_runs + change_runs):
        found.append("INCORRECT: " + ", ".join(
            f"{side} {sum(not r['correct'] for r in runs)}/{len(runs)} runs"
            for side, runs in sides))
    if any(r["failed"] for r in parent_runs + change_runs):
        found.append("FAILED OPERATIONS: " + ", ".join(
            f"{side} {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
            for side, runs in sides))
    return found


def claim_entry(metric_cmp: dict, workload: str, metric: str, sides: dict, note: str) -> dict:
    wins = int(metric_cmp["change_wins"].split("/")[0])
    sign = 1.0 if metric_cmp["better"] == "higher" else -1.0
    return {
        "metric": f"{metric} on {workload}",
        "sides": sides,
        "parent_median": metric_cmp["parent"]["median"],
        "change_median": metric_cmp["change"]["median"],
        "median_change_rel": metric_cmp["median_change_rel"],
        "change_wins": metric_cmp["change_wins"],
        "median_diff": metric_cmp["median_diff"],
        "parent_iqr": metric_cmp["parent_iqr"],
        "met": wins >= MIN_WINS and sign * metric_cmp["median_diff"] > metric_cmp["parent_iqr"],
        "rule": RULE,
        "seeds_note": note,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--trace-seed", type=int, help="seed of one traced run per side")
    parser.add_argument("--setup-pairs", type=int, default=0,
                        help="alternating pairs of single set-up probes per workload")
    parser.add_argument("--note", default="", help="machine note recorded in the output")
    parser.add_argument("--seeds-note", default="", help="which seeds the change was written on")
    args = parser.parse_args(argv)
    if args.setup_pairs < 0:
        parser.error("--setup-pairs must be >= 0")
    if args.claim is not None:
        # Checked before the runs, which take over half an hour.
        claim_workload, _, claim_metric = args.claim.partition(":")
        metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
        if claim_workload not in WORKLOADS or claim_metric not in metrics:
            parser.error(f"--claim {args.claim!r}: expected WORKLOAD:METRIC with WORKLOAD one of "
                         f"{', '.join(WORKLOADS)} and METRIC one of {', '.join(metrics)}")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sides = {side: export(rev, trees[side])
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        readme = {(m.group(1), int(m.group(2))): m.group(3) for m in map(
            README_DIGEST.match, (trees["change"] / "perfbench" / "README.md").read_text().splitlines())
            if m}
        out = {
            "claim": None,
            "machine": {"cpus": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": np.__version__,
                        "note": args.note},
            "command": COMMAND,
            "workloads": {},
            "per_layer_traced": {},
            "setup_probes": {},
            "results_checksum": {"digests": {}},
        }
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            first = []
            for i, seed in enumerate(SEEDS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                first.append(order[0])
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed, False))
                print(f"{workload} pair {i + 1}/{len(SEEDS)} seed {seed}: " + ", ".join(
                    f"{side} {runs[side][-1]['metrics']['env_steps_per_s']['value']:.0f}"
                    for side in ("parent", "change")) + " steps/s", flush=True)
            metrics = {}
            for m in spec["end_to_end"]:
                name = m["name"]
                metrics[name] = compare(
                    [r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]],
                    m["better"], m["bound"])
            out["workloads"][workload] = {
                "seeds": list(SEEDS),
                "first_side": first,
                "metrics": metrics,
                "cpu_s": describe([r["cpu_s"] for r in runs["parent"]],
                                  [r["cpu_s"] for r in runs["change"]], "lower"),
                "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
                "attempted_failed": {s: [[r["attempted"], r["failed"]] for r in runs[s]]
                                     for s in runs},
                "digests": {s: [f"digest {d} ({v})" for d, v in (r["digest"] for r in runs[s])]
                            for s in runs},
                "faults": faults(SEEDS, runs["parent"], runs["change"]),
            }
            out["results_checksum"]["digests"][workload] = [
                {"seed": seed, "parent": p["digest"][0], "change": c["digest"][0],
                 "readme": readme.get((workload, seed)),
                 "change_equals_parent": p["digest"][0] == c["digest"][0],
                 "change_equals_readme": (None if (workload, seed) not in readme
                                          else c["digest"][0] == readme[(workload, seed)])}
                for seed, p, c in zip(SEEDS, runs["parent"], runs["change"])]
            if args.trace_seed is not None:
                traced = {s: run_once(trees[s], workload, args.trace_seed, True)
                          for s in ("parent", "change")}
                out["per_layer_traced"][workload] = {
                    "seed": args.trace_seed,
                    "metrics": {k: {s: traced[s]["metrics"][k]["value"] for s in traced}
                                for k in traced["change"]["metrics"]},
                }
            if args.setup_pairs:
                probes = {"parent": [], "change": []}
                for i in range(args.setup_pairs):
                    seed = SEEDS[i % len(SEEDS)]
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        probes[side].append(setup_probe(trees[side], workload, seed))
                out["setup_probes"][workload] = describe(probes["parent"], probes["change"],
                                                         "lower")
            print(f"\n{workload}: parent {sides['parent']}, change {sides['change']}")
            for name, cmp_ in metrics.items():
                p, c = cmp_["parent"], cmp_["change"]
                print(f"  {name:16s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                      f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                      f"  change wins {cmp_['change_wins']}  {100 * cmp_['median_change_rel']:+.1f} %"
                      f"{'' if cmp_['within_bound'] else '  OUTSIDE BOUND'}"
                      f"{'  UNRESOLVED' if cmp_['unresolved'] else ''}")
            cpu = out["workloads"][workload]["cpu_s"]
            print(f"  {'cpu_s':16s} parent {cpu['parent']['median']:.4g}"
                  f"  change {cpu['change']['median']:.4g}  (reported, not gated)")
            if workload in out["setup_probes"]:
                probe = out["setup_probes"][workload]
                print(f"  {'setup probes':16s} parent {probe['parent']['median']:.4g}"
                      f" [{probe['parent']['q1']:.4g}, {probe['parent']['q3']:.4g}]"
                      f"  change {probe['change']['median']:.4g}"
                      f" [{probe['change']['q1']:.4g}, {probe['change']['q3']:.4g}]"
                      f"  over {args.setup_pairs} pairs (reported, not gated)")
            for fault in out["workloads"][workload]["faults"]:
                print(f"  {fault}")
        if args.claim is not None:
            out["claim"] = claim_entry(
                out["workloads"][claim_workload]["metrics"][claim_metric],
                claim_workload, claim_metric, sides, args.seeds_note)
            print(f"\nclaim {args.claim}: met = {out['claim']['met']}")
        for optional in ("per_layer_traced", "setup_probes"):
            if not out[optional]:
                del out[optional]
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
