"""The benchmark's hooks still find what they wrap, and its output
checks still pass.

perfbench/instrument.py replaces public functions by name, where their
callers look them up. A refactor that renames, moves or stops calling one
of them leaves a hook that never fires, so these tests run one traced
episode and check every per-step layer records spans. They also run one
round of each workload through perfbench/workloads.py, so a change that
breaks the benchmark's checks or its train_desk or eval_grid digest fails
here rather than only when the benchmark is run.
"""

import sys
from pathlib import Path

import pytest

from slopetrot import trainer
from slopetrot.policy import load_policy
from slopetrot.simenv import RandomizationConfig, TerrainPlane

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PER_STEP_SPANS = (
    "simenv.step", "simenv.reset", "policy.observation", "reward.compute",
    "gaitgen.foot_target", "legkin.ik", "legkin.fk", "legkin.workspace_test",
    "slopeest.update", "policy.act", "policy.scale_clip", "trainer.rollout",
)


def test_trace_points_name_own_attributes():
    for owner, attr, _ in instrument.TRACE_POINTS:
        assert attr in owner.__dict__, (owner, attr)


@pytest.fixture(scope="module")
def span_counts(tmp_path_factory):
    """Span counts of one traced 120-step rollout_return episode."""
    matrix = load_policy(PERFBENCH / "policy_guided_seed7.txt")
    recorder = instrument.Recorder(str(tmp_path_factory.mktemp("trace")), trace=True)
    with recorder.installed():
        trainer.rollout_return(matrix, trainer.EnvBundle(), TerrainPlane(9, 30),
                               RandomizationConfig(push_enabled=False), 3, episode_len=120)
    (names, *_), = recorder.span_table()
    counts = dict.fromkeys(instrument.SPANS, 0)
    for code in names.tolist():
        counts[instrument.SPANS[code]] += 1
    return counts


@pytest.mark.parametrize("span", PER_STEP_SPANS)
def test_per_step_layer_traced(span_counts, span):
    assert span_counts[span] >= 1


def test_observation_built_only_when_inputs_change(span_counts):
    # Reset, the exchanges at steps 40, 80 and 120, and the two captures
    # that complete between them: the slope estimate and the orientation
    # history change nowhere else.
    assert span_counts["simenv.step"] == 120
    assert span_counts["slopeest.update"] == 2
    assert span_counts["policy.observation"] == 6


@pytest.mark.parametrize("name", ["rollout_log", "eval_grid", "train_desk"])
def test_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    # The workloads name the policy file relative to the repository root.
    monkeypatch.chdir(PERFBENCH.parent)
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    workload.setup()
    rnd = workload.run_round(instrument.Recorder(str(tmp_path), trace=False))
    assert rnd.attempted >= 1
    assert (rnd.failed, rnd.problems, rnd.known) == (0, [], [])
    if name != "rollout_log":
        assert rnd.digest == run._reference_digests()[(name, 1)]
