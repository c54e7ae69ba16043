"""The pair comparison's verdict fields on synthetic runs: a metric whose
parent runs spread wider than the bound is unresolved unless every change
run reads better than every parent run, and a claim is met only when the
change wins at least 9 of 10 pairs and the medians differ by more than
the parent's interquartile range. A --claim that names no known workload
and metric is a usage error before any revision is exported. A run
records the CPU seconds its processes used. A workload whose pairs show
differing digests, a wrong result or failed operations is marked so. Set-up
probe pairs alternate their order and record both sides."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NARROW = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
WIDE = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_narrow_spread_is_resolved(better):
    change = [v + 2.0 for v in NARROW] if better == "lower" else [v - 2.0 for v in NARROW]
    got = bench_pairs.compare(NARROW, change, better, 0.25)
    assert got["parent_spread_rel"] < 0.25
    assert not got["change_better_every_run"]
    assert not got["unresolved"]
    assert got["within_bound"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_wide_spread_is_unresolved(better):
    change = list(reversed(WIDE))
    got = bench_pairs.compare(WIDE, change, better, 0.25)
    assert got["parent_spread_rel"] == pytest.approx(0.35)
    assert got["within_bound"]
    assert not got["change_better_every_run"]
    assert got["unresolved"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_wide_spread_with_every_change_run_better_is_resolved(better):
    factor = 2.5 if better == "higher" else 0.4
    change = [v * factor for v in WIDE]
    got = bench_pairs.compare(WIDE, change, better, 0.25)
    assert got["parent_spread_rel"] > 0.25
    assert got["change_better_every_run"]
    assert not got["unresolved"]


def _claim(parent, deltas, better):
    """The claim entry for change runs that read each delta better (a
    negative delta worse) than the paired parent run."""
    sign = 1.0 if better == "higher" else -1.0
    change = [p + sign * d for p, d in zip(parent, deltas)]
    got = bench_pairs.compare(parent, change, better, 0.25)
    return bench_pairs.claim_entry(got, "eval_grid", "env_steps_per_s",
                                   {"parent": "p", "change": "c"}, "")


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_claim_needs_nine_wins_however_large_the_difference(better):
    claim = _claim(NARROW, [50.0] * 8 + [-1.0] * 2, better)
    assert claim["change_wins"] == "8/10"
    assert abs(claim["median_diff"]) > 10 * claim["parent_iqr"]
    assert not claim["met"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_claim_needs_a_difference_beyond_the_parent_iqr(better):
    claim = _claim(WIDE, [-1.0] + [2.0] * 9, better)
    assert claim["change_wins"] == "9/10"
    assert 0.0 < abs(claim["median_diff"]) <= claim["parent_iqr"]
    assert not claim["met"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_claim_met_at_nine_wins_beyond_the_parent_iqr(better):
    claim = _claim(NARROW, [5.0] * 9 + [-1.0], better)
    assert claim["change_wins"] == "9/10"
    assert abs(claim["median_diff"]) > claim["parent_iqr"]
    assert claim["met"]


@pytest.mark.parametrize("claim", [
    "eval_grid", "eval_grid:", "eval_grids:env_steps_per_s", "eval_grid:steps_per_s",
    "eval_grid:env_steps_per_s:x", ":env_steps_per_s",
])
def test_bad_claim_is_a_usage_error_before_any_export(claim, monkeypatch, capsys):
    def export(rev, dest):
        raise AssertionError("exported a revision before checking --claim")

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["HEAD", "HEAD", "--pr", "0", "--claim", claim])
    assert exit_.value.code == 2
    assert "--claim" in capsys.readouterr().err


def test_good_claim_reaches_the_export(monkeypatch):
    class Exported(Exception):
        pass

    def export(rev, dest):
        raise Exported

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(Exported):
        bench_pairs.main(["HEAD", "HEAD", "--pr", "0", "--claim", "eval_grid:env_steps_per_s"])


FAKE_RUN = '''\
import json, sys, time
if sys.argv[sys.argv.index("--seed") + 1] == "1":
    end = time.process_time() + 0.3
    while time.process_time() < end:
        pass
else:
    time.sleep(0.3)
print("digest " + "0" * 64 + " (fake)")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
'''


def test_run_records_its_child_cpu_seconds(tmp_path):
    # A run that computes for 0.3 CPU seconds against one that sleeps for
    # 0.3 s; the comparison of them is reported without a bound or a
    # verdict.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    busy = bench_pairs.run_once(tmp_path, "eval_grid", 1, False)
    idle = bench_pairs.run_once(tmp_path, "eval_grid", 2, False)
    assert busy["digest"] == ("0" * 64, "fake")
    assert 0.3 <= busy["cpu_s"] < 2.0
    assert 0.0 <= idle["cpu_s"] < 0.15
    got = bench_pairs.describe([busy["cpu_s"]], [idle["cpu_s"]], "lower")
    assert got["change_wins"] == "1/1"
    assert not {"bound", "within_bound", "unresolved"} & got.keys()


def test_faults_are_marked_per_workload(tmp_path, monkeypatch, capsys):
    # train_desk's pairs are clean; eval_grid's change digest differs at
    # seed 3; one rollout_log change run reports a wrong result and 2
    # failed operations.
    spec = (bench_pairs.ROOT / "BENCHMARK.json").read_text()

    def export(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "README.md").write_text("")
        (dest / "BENCHMARK.json").write_text(spec)
        return rev

    def run_once(tree, workload, seed, trace):
        faulty = tree.name == "change" and (workload, seed) in {("eval_grid", 3),
                                                                ("rollout_log", 2)}
        return {
            "metrics": {m["name"]: {"value": 1.0} for m in json.loads(spec)["end_to_end"]},
            "correct": not (faulty and workload == "rollout_log"),
            "attempted": 10,
            "failed": 2 if faulty and workload == "rollout_log" else 0,
            "digest": ("b" if faulty and workload == "eval_grid" else "a", "fake"),
            "cpu_s": 1.0,
        }

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(["p", "c", "--pr", "0"]) == 0
    written = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert "setup_probes" not in written  # no --setup-pairs
    found = {w: entry["faults"] for w, entry in written["workloads"].items()}
    assert found == {
        "train_desk": [],
        "eval_grid": ["DIGESTS DIFFER at seeds 3"],
        "rollout_log": ["INCORRECT: parent 0/10 runs, change 1/10 runs",
                        "FAILED OPERATIONS: parent 0/100, change 2/100"],
    }
    # Each workload's summary lists its own faults.
    marks = {fault for faults in found.values() for fault in faults}
    shown = [line.strip() for line in capsys.readouterr().out.splitlines()
             if line.split(":")[0] in found or line.strip() in marks]
    assert shown == [line for workload, faults in found.items()
                     for line in (f"{workload}: parent p, change c", *faults)]


FAKE_SETUP = '''\
import sys, time
from pathlib import Path
tree = Path(__file__).resolve().parent.parent
time.sleep(float((tree / "delay").read_text()))
with open({log!r}, "a") as fh:
    print(tree.name, *(sys.argv[sys.argv.index(flag) + 1] for flag in ("--setup-probe", "--seed")),
          file=fh)
print("ready", flush=True)
'''


def test_setup_pairs_alternate_and_record_both_sides(tmp_path, monkeypatch):
    # Each tree's fake run.py answers a set-up probe after its own delay,
    # none in the parent and 0.3 s in the change, and logs the probe. Two
    # pairs per workload run in alternating order, one seed per pair, and
    # each side's probe times, median and quartiles are recorded.
    spec = (bench_pairs.ROOT / "BENCHMARK.json").read_text()
    log = tmp_path / "probes.log"

    def export(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "README.md").write_text("")
        (dest / "perfbench" / "run.py").write_text(FAKE_SETUP.format(log=str(log)))
        (dest / "delay").write_text("0.0" if dest.name == "parent" else "0.3")
        (dest / "BENCHMARK.json").write_text(spec)
        return rev

    def run_once(tree, workload, seed, trace):
        return {"metrics": {m["name"]: {"value": 1.0} for m in json.loads(spec)["end_to_end"]},
                "correct": True, "attempted": 1, "failed": 0, "digest": ("a", "fake"),
                "cpu_s": 1.0}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(["p", "c", "--pr", "0", "--setup-pairs", "2"]) == 0
    probes = json.loads((tmp_path / "BENCH_0.json").read_text())["setup_probes"]
    assert list(probes) == list(bench_pairs.WORKLOADS)
    for entry in probes.values():
        assert len(entry["parent_runs"]) == len(entry["change_runs"]) == 2
        assert entry["change_wins"] == "0/2"
        assert max(entry["parent_runs"]) < 0.3 <= min(entry["change_runs"])
        for side in ("parent", "change"):
            assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"]
    assert log.read_text().splitlines() == [
        f"{side} {workload} {seed}" for workload in bench_pairs.WORKLOADS
        for side, seed in (("parent", 1), ("change", 1), ("change", 2), ("parent", 2))]


def test_negative_setup_pairs_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["HEAD", "HEAD", "--pr", "0", "--setup-pairs", "-1"])
    assert exit_.value.code == 2
