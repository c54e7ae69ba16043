import hashlib
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from slopetrot.cli import _build_parser, main
from slopetrot.policy import load_policy, save_policy, zero_policy
from slopetrot.runlog import format_value, read_csv

FAST_TRAIN = [
    "--set", "ars.num_directions=2",
    "--set", "train.episode_len=80",
    "--set", "train.eval_every=2",
    "--set", "train.guided=false",
]


def run_cli(*argv):
    return main(list(argv))


def zero_policy_file(tmp_path):
    path = tmp_path / "zero.txt"
    save_policy(zero_policy(), path)
    return str(path)


class TestUsage:
    def test_no_command_usage_error(self, capsys):
        assert run_cli() == 1

    def test_unknown_flag_usage_error(self):
        assert run_cli("train", "--bogus") == 1

    def test_readme_examples_parse(self):
        # Every `slopetrot ...` command in README.md's sh blocks, with
        # backslash continuations joined, must parse with today's flags.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["slopetrot"]:
                    commands.append(argv[1:])
        assert len(commands) >= 5
        for argv in commands:
            _build_parser().parse_args(argv)


class TestFlagsAreSettings:
    SHORT_TRAIN = [
        "--set", "ars.num_directions=2",
        "--set", "train.episode_len=80",
        "--set", "train.eval_every=2",
    ]

    def test_flags_equal_set_entries(self, tmp_path):
        out = str(tmp_path / "run")
        spellings = [
            ["--iters", "1", "--seed", "3", "--workers", "1", "--no-guided"],
            ["--set", "train.iterations=1", "--set", "run.master_seed=3",
             "--set", "ars.workers=1", "--set", "train.guided=false"],
        ]
        blobs = []
        for flags in spellings:
            assert run_cli("train", "--out", out, *self.SHORT_TRAIN, *flags) == 0
            blobs.append([Path(out, name).read_bytes()
                          for name in ("training.csv", "config_resolved.cfg")])
        assert blobs[0] == blobs[1]

    def test_last_setting_wins(self, tmp_path):
        out = str(tmp_path / "eval")
        assert run_cli("eval", "--policy", zero_policy_file(tmp_path), "--incline", "0",
                       "--orientation", "0", "--out", out, "--set", "train.episode_len=40",
                       "--seed", "3", "--set", "run.master_seed=5") == 0
        header, _, _ = read_csv(os.path.join(out, "eval.csv"))
        assert header["master_seed"] == "5"

    def test_eval_friction_flag_is_the_setting(self, tmp_path):
        policy = zero_policy_file(tmp_path)
        blobs = []
        for name, spelling in (("flag", ["--friction", "0.5"]),
                               ("set", ["--set", "train.eval_friction=0.5"])):
            out = str(tmp_path / name)
            assert run_cli("eval", "--policy", policy, "--incline", "9", "--orientation", "0",
                           "--out", out, "--set", "train.episode_len=40", *spelling) == 0
            blobs.append(Path(out, "eval.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--workers", "0"]),
        ("train", ["--iters", "-2"]),
        ("train", ["--set", "train.episode_len=0"]),
        ("eval", ["--set", "train.episode_len=-5"]),
        ("eval", ["--friction", "-1"]),
    ])
    def test_bad_value_is_config_error(self, tmp_path, command, extra):
        out = str(tmp_path / "out")
        argv = ["--policy", zero_policy_file(tmp_path)] if command == "eval" else FAST_TRAIN
        assert run_cli(command, *argv, "--out", out, *extra) == 2
        assert not os.path.exists(out)

    def test_bad_value_in_config_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.eval_friction = -0.1\n")
        out = str(tmp_path / "out")
        assert run_cli("eval", "--policy", zero_policy_file(tmp_path), "--config", str(cfg),
                       "--out", out) == 2
        assert not os.path.exists(out)


    @pytest.mark.parametrize("command, setting", [
        ("rollout", "gait.cycle_period=0.401"),
        ("rollout", "gait.desired_height=0.4"),
        ("rollout", "geometry.abduction_offset=0.5"),
        ("train", "gait.cycle_period=0.401"),
    ])
    def test_cross_section_clash_is_config_error(self, tmp_path, command, setting):
        # Each value passes its own section's checks; the environment
        # built from the whole config rejects it.
        out = str(tmp_path / "out")
        argv = (["--iters", "1", *FAST_TRAIN] if command == "train"
                else ["--policy", zero_policy_file(tmp_path)])
        assert run_cli(command, *argv, "--out", out, "--set", setting) == 2
        assert not os.path.exists(out)

    UNRUNNABLE_PHYSICS = [
        "sim.motor_moment_arm=0",
        "sim.track_time_const=0",
        "sim.torso_dims=0,0,0",
        "sim.torso_dims=1e-160,1e-160,1e-160",
        "sim.torso_dims=1e-200,1e-200,1e-200",
        "sim.torso_dims=1e200,0.3,0.1",
        "rand.added_mass_range=-6,-5",
        "rand.motor_torque_range=-5,-4",
        "rand.friction_range=-0.5,-0.4",
        "sim.contact_kp=-1",
        "rand.push_duration_steps=0",
        "geometry.hip_positions_body=0.25,0.2; 0.25,-0.2; -0.25,0.2; -0.25,-0.2",
    ]

    @pytest.mark.parametrize("source", ["set", "file"])
    @pytest.mark.parametrize("setting", UNRUNNABLE_PHYSICS)
    def test_unrunnable_physics_is_config_error(self, tmp_path, setting, source):
        out = str(tmp_path / "out")
        if source == "set":
            extra = ["--set", setting]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(setting.replace("=", " = ") + "\n")
            extra = ["--config", str(cfg)]
        assert run_cli("rollout", "--policy", zero_policy_file(tmp_path),
                       "--set", "train.episode_len=40", "--out", out, *extra) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("setting", [
        "sim.torso_mass=nan",
        "sim.gravity=nan",
        "sim.fall_angle=nan",
        "sim.dt=nan",
        "sim.estimator_smoothing=0",
        "gait.max_step_len=nan",
        "gait.foot_clearance=nan",
        "reward.roll_width=nan",
        "reward.forward_weight=nan",
        "geometry.upper_link_len=nan",
        "train.demo_seeds_per_combo=0",
        "train.guided_step_len=nan",
        "train.guided_yaw_gain=nan",
        "ars.noise=nan",
        "ars.step_size=nan",
        "run.master_seed=-1",
        "reward.desired_height=nan",
        "reward.desired_yaw=nan",
        "geometry.abduction_offset=nan",
        "geometry.hip_positions_body=0.25,0.2,0.0; 0.25,-0.2,nan; -0.25,0.2,0.0; -0.25,-0.2,0.0",
        "scaling.step_len=nan,0.136",
        "scaling.step_len=0.2,0.0",
        "gait.cycle_period=inf",
        "gait.foot_clearance=inf",
        "rand.added_mass_range=0,inf",
        "rand.friction_range=0.5,inf",
        "reward.forward_weight=inf",
        "sim.torso_mass=inf",
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, setting):
        out = str(tmp_path / "out")
        assert run_cli("rollout", "--policy", zero_policy_file(tmp_path),
                       "--set", "train.episode_len=40", "--out", out,
                       "--set", setting) == 2
        assert not os.path.exists(out)


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

    def test_zero_iterations_record_no_iteration(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("train", "--iters", "0", "--seed", "3", "--out", out, *FAST_TRAIN) == 0
        meta = [ln for ln in Path(out, "policy_final.txt").read_text().splitlines()
                if ln.startswith("#")]
        assert meta == ["# seed: 3"]

    def test_train_reproducible_byte_for_byte(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run_cli("train", "--iters", "2", "--seed", "3", "--out", out,
                           *FAST_TRAIN) == 0
            with open(os.path.join(out, "training.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_zero_width_action_range_trains(self, tmp_path):
        # The guided fit maps a zero-width channel's demonstrations to raw 0.
        out = str(tmp_path / "run")
        assert run_cli("train", "--iters", "1", "--set", "ars.num_directions=2",
                       "--set", "train.episode_len=40", "--set", "scaling.shift_z=0,0",
                       "--out", out) == 0
        assert np.all(np.isfinite(load_policy(os.path.join(out, "policy_final.txt"))))

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gait.max_step_len = banana\n")
        assert run_cli("train", "--config", str(cfg)) == 2

    def test_zero_eval_every_is_config_error(self, tmp_path):
        out = str(tmp_path / "run")
        code = run_cli("train", "--iters", "1", "--out", out, *FAST_TRAIN,
                       "--set", "train.eval_every=0")
        assert code == 2
        assert not os.path.exists(os.path.join(out, "training.csv"))


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

    @pytest.mark.parametrize("filters, expected", [
        (["--inclination", "9", "--orientation", "20"], [("9", "20.0")]),
        (["--orientation", "20"],
         [("0", "20.0"), ("5", "20.0"), ("7", "20.0"), ("9", "20.0"), ("11", "20.0")]),
    ])
    def test_off_grid_orientation_runs_each_terrain_once(self, tmp_path, filters, expected):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "eval")
        assert run_cli("eval", "--policy", str(policy), "--out", out, *filters,
                       "--set", "train.episode_len=40") == 0
        _, _, rows = read_csv(os.path.join(out, "eval.csv"))
        assert [(r["inclination"], r["orientation"]) for r in rows] == expected

    def test_uses_configured_randomization(self, tmp_path):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        returns = []
        for name, extra in (("default", []),
                            ("heavy", ["--set", "rand.motor_torque_range=1.0,1.0",
                                       "--set", "rand.added_mass_range=3.0,3.0"])):
            out = str(tmp_path / name)
            assert run_cli("eval", "--policy", str(policy), "--out", out,
                           "--incline", "9", "--orientation", "0",
                           "--set", "train.episode_len=80", *extra) == 0
            _, _, rows = read_csv(os.path.join(out, "eval.csv"))
            returns.append(rows[0]["return"])
        assert returns[0] != returns[1]

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
                       "--set", "train.episode_len=120")
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
                       "--set", "train.episode_len=160")
        assert code == 0
        header, _, rows = read_csv(os.path.join(out, "rollout.csv"))
        assert "100" in header["push"]
        assert "[60,100)" in header["push"]

    @pytest.mark.parametrize("window", [
        ["--push-at", "-0.1"], ["--push-dur", "-0.2"], ["--push-dur", "0"],
        ["--push-at", "0.3"], ["--push-dur", "0.001"],
        ["--push-at", "0.1", "--push-dur", "0.001"], ["--push-at", "inf"],
        ["--push-at", "-inf"], ["--push-at", "-0.002"],
    ])
    def test_malformed_push_window_usage_error(self, tmp_path, window):
        # The 40-step episode ends at 0.2 s; a window that rounds to no
        # control step before then would push nothing.
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "roll")
        assert run_cli("rollout", "--policy", str(policy), "--push", "100", *window,
                       "--out", out, "--set", "train.episode_len=40") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, terrain", [
        ("rollout", ["--friction", "-0.5"]),
        ("rollout", ["--incline", "95"]),
        ("rollout", ["--incline", "-90"]),
        ("eval", ["--incline", "90"]),
        ("rollout", ["--friction", "inf"]),
        ("rollout", ["--orientation", "nan"]),
        ("rollout", ["--push", "nan", "--push-at", "0.05"]),
        ("eval", ["--orientation", "nan"]),
        ("eval", ["--incline", "5", "--orientation", "inf"]),
    ])
    def test_impossible_terrain_usage_error(self, tmp_path, command, terrain):
        out = str(tmp_path / "out")
        assert run_cli(command, "--policy", zero_policy_file(tmp_path), *terrain,
                       "--out", out, "--set", "train.episode_len=40") == 1
        assert not os.path.exists(out)

    def test_default_guided_policy_noted(self, tmp_path):
        out = str(tmp_path / "roll")
        code = run_cli("rollout", "--out", out, "--set", "train.episode_len=80")
        assert code == 0
        header, _, _ = read_csv(os.path.join(out, "rollout.csv"))
        assert "guided-init" in header["policy"]

    def test_every_field_is_a_number(self, tmp_path):
        policy = tmp_path / "zero.txt"
        save_policy(zero_policy(), policy)
        out = str(tmp_path / "roll")
        assert run_cli("rollout", "--policy", str(policy), "--incline", "7",
                       "--orientation", "45", "--push", "80", "--push-at", "0.2",
                       "--out", out, "--set", "train.episode_len=80") == 0
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
                           "--set", "train.episode_len=100") == 0
            with open(os.path.join(out, "rollout.csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
