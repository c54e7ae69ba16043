import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from slopetrot.cli import main
from slopetrot.policy import save_policy, zero_policy
from slopetrot.runlog import format_value, read_csv

FAST_TRAIN = [
    "--set", "ars.num_directions=2",
    "--set", "train.episode_len=80",
    "--set", "train.eval_every=2",
    "--set", "train.guided=false",
]


def run_cli(*argv):
    return main(list(argv))


class TestUsage:
    def test_no_command_usage_error(self, capsys):
        assert run_cli() == 1

    def test_unknown_flag_usage_error(self):
        assert run_cli("train", "--bogus") == 1


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        code = run_cli("train", "--iters", "2", "--seed", "3", "--out", out, *FAST_TRAIN)
        assert code == 0
        assert os.path.exists(os.path.join(out, "training.csv"))
        assert os.path.exists(os.path.join(out, "policy_final.txt"))
        assert os.path.exists(os.path.join(out, "policy_iter0001.txt"))
        assert os.path.exists(os.path.join(out, "config_resolved.cfg"))
        header, cols, rows = read_csv(os.path.join(out, "training.csv"))
        assert len(rows) == 2
        assert "config_hash" in header
        assert "sim_time_s" in cols

    def test_train_reproducible_byte_for_byte(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run_cli("train", "--iters", "2", "--seed", "3", "--out", out,
                           *FAST_TRAIN) == 0
            with open(os.path.join(out, "training.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gait.max_step_len = banana\n")
        assert run_cli("train", "--config", str(cfg)) == 2


class TestEval:
    def test_full_grid_rows_and_summary(self, tmp_path, capsys):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "eval")
        code = run_cli("eval", "--policy", str(policy), "--out", out,
                       "--set", "train.episode_len=80")
        assert code == 0
        captured = capsys.readouterr().out
        assert "mean return over 29 episodes" in captured
        _, _, rows = read_csv(os.path.join(out, "eval.csv"))
        assert len(rows) == 29

    def test_single_combo(self, tmp_path, capsys):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "eval")
        code = run_cli("eval", "--policy", str(policy), "--out", out,
                       "--inclination", "9", "--orientation", "90",
                       "--set", "train.episode_len=80")
        assert code == 0
        _, _, rows = read_csv(os.path.join(out, "eval.csv"))
        assert len(rows) == 1
        assert rows[0]["inclination"] == "9" and rows[0]["orientation"] == "90"

    def test_corrupt_policy_runtime_error(self, tmp_path):
        policy = tmp_path / "corrupt.txt"
        policy.write_text("19 11\nnot numbers\n")
        assert run_cli("eval", "--policy", str(policy)) == 3


class TestRollout:
    def test_writes_episode_log(self, tmp_path):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "roll")
        code = run_cli("rollout", "--policy", str(policy), "--incline", "9",
                       "--orientation", "0", "--out", out,
                       "--set", "sim.episode_len=120")
        assert code == 0
        header, cols, rows = read_csv(os.path.join(out, "rollout.csv"))
        assert len(rows) == 120
        assert cols[:3] == ["step", "time", "torso_roll"]
        assert header["push"] == "none"

    def test_push_flags_recorded_and_applied(self, tmp_path):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "roll")
        code = run_cli("rollout", "--policy", str(policy), "--push", "100",
                       "--push-at", "0.3", "--push-dur", "0.2", "--out", out,
                       "--set", "sim.episode_len=160")
        assert code == 0
        header, _, rows = read_csv(os.path.join(out, "rollout.csv"))
        assert "100" in header["push"]
        assert "[60,100)" in header["push"]

    def test_default_guided_policy_noted(self, tmp_path):
        out = str(tmp_path / "roll")
        code = run_cli("rollout", "--out", out, "--set", "sim.episode_len=80",
                       "--set", "train.episode_len=80")
        assert code == 0
        header, _, _ = read_csv(os.path.join(out, "rollout.csv"))
        assert "guided-init" in header["policy"]

    def test_every_field_is_a_number(self, tmp_path):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "roll")
        assert run_cli("rollout", "--policy", str(policy), "--incline", "7",
                       "--orientation", "45", "--push", "80", "--push-at", "0.2",
                       "--out", out, "--set", "sim.episode_len=80") == 0
        _, cols, rows = read_csv(os.path.join(out, "rollout.csv"))
        assert len(rows) == 80
        for row in rows:
            for col in cols:
                float(row[col])

    def test_numpy_scalars_written_as_numbers(self):
        assert format_value(np.float64(0.1)) == "0.1"
        assert format_value(np.float32(0.5)) == "0.5"
        assert format_value(0.25) == "0.25"
        assert format_value(True) == "true"

    def test_logged_rows_golden(self, tmp_path):
        # Data rows recorded from the hand-written rollout loop that the
        # episode driver replaced: the seed-7 guided policy at 9/30 deg with
        # a 100 N push. Like TestGoldenTrajectory in test_simenv.py, the
        # value pins the BLAS it was recorded with.
        policy = Path(__file__).resolve().parent.parent / "perfbench" / "policy_guided_seed7.txt"
        out = str(tmp_path / "roll")
        assert run_cli("rollout", "--policy", str(policy), "--incline", "9",
                       "--orientation", "30", "--push", "100", "--out", out) == 0
        with open(os.path.join(out, "rollout.csv")) as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        data = lines[1:]
        assert len(data) == 400
        assert hashlib.sha256("\n".join(data).encode()).hexdigest() == (
            "25fec98417049cd11bfbb440353593529b2e4c1505a2c90f4cc42721ef35457a")

    def test_reproducible(self, tmp_path):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        blobs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert run_cli("rollout", "--policy", str(policy), "--out", out,
                           "--set", "sim.episode_len=100") == 0
            with open(os.path.join(out, "rollout.csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
