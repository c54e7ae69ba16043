import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot.bounds import ConfigError
from slopetrot.reward import (
    InvalidWidth,
    RewardInputs,
    RewardWeights,
    StandingMonitor,
    compute_reward,
    gaussian_kernel,
)

MAX_STEP = 0.0034


def perfect_inputs(**overrides):
    base = dict(
        torso_roll=0.0, torso_pitch=0.0, torso_yaw=0.0,
        plane_roll=0.0, plane_pitch=0.0,
        height=0.243, forward_disp=0.0, standing=False,
    )
    base.update(overrides)
    return RewardInputs(**base)


class TestKernel:
    def test_peak(self):
        assert gaussian_kernel(40.0, 0.0) == 1.0

    def test_unit_case(self):
        assert gaussian_kernel(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symmetry(self):
        assert gaussian_kernel(1.0, 0.5) == gaussian_kernel(1.0, -0.5)

    def test_invalid_width(self):
        with pytest.raises(InvalidWidth):
            gaussian_kernel(0.0, 1.0)
        with pytest.raises(InvalidWidth):
            gaussian_kernel(-2.0, 1.0)

    @given(w=st.floats(0.01, 1000), x=st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_range(self, w, x):
        assert 0.0 <= gaussian_kernel(w, x) <= 1.0


class TestComputeReward:
    def test_perfect_alignment_full_speed(self):
        wt = RewardWeights(forward_weight=1.0)
        r = compute_reward(perfect_inputs(forward_disp=MAX_STEP), wt, MAX_STEP)
        assert r == pytest.approx(5.0, abs=1e-12)

    def test_standing_penalty_additive(self):
        wt = RewardWeights(forward_weight=1.0, standing_penalty=1.0)
        r = compute_reward(perfect_inputs(standing=True), wt, MAX_STEP)
        assert r == pytest.approx(3.0, abs=1e-12)

    def test_hand_computed_roll_error(self):
        # roll error 0.1 rad at width 40: reward = 3 + exp(-0.4)
        wt = RewardWeights(roll_width=40.0, forward_weight=1.0)
        r = compute_reward(perfect_inputs(torso_roll=0.1), wt, MAX_STEP)
        assert r == pytest.approx(3.0 + math.exp(-0.4), abs=1e-12)

    def test_plane_relative_orientation(self):
        wt = RewardWeights()
        aligned = compute_reward(
            perfect_inputs(torso_roll=0.2, plane_roll=0.2, torso_pitch=-0.1, plane_pitch=-0.1),
            wt, MAX_STEP,
        )
        assert aligned == pytest.approx(4.0, abs=1e-12)

    def test_invalid_max_step(self):
        with pytest.raises(ValueError):
            compute_reward(perfect_inputs(), RewardWeights(), 0.0)

    @given(dx=st.floats(0.0, MAX_STEP), roll=st.floats(-0.5, 0.5), standing=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, dx, roll, standing):
        wt = RewardWeights()
        r = compute_reward(
            perfect_inputs(torso_roll=roll, forward_disp=dx, standing=standing), wt, MAX_STEP
        )
        assert -wt.standing_penalty <= r <= 4.0 + wt.forward_weight

    @given(
        err1=st.floats(0.0, 1.0), err2=st.floats(0.0, 1.0),
        channel=st.sampled_from(["torso_roll", "torso_pitch", "torso_yaw", "height_err"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_decreasing_in_errors(self, err1, err2, channel):
        lo, hi = min(err1, err2), max(err1, err2)
        wt = RewardWeights()

        def reward_at(e):
            if channel == "height_err":
                return compute_reward(perfect_inputs(height=0.243 + e), wt, MAX_STEP)
            return compute_reward(perfect_inputs(**{channel: e}), wt, MAX_STEP)

        assert reward_at(hi) <= reward_at(lo) + 1e-12

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            RewardWeights(pitch_width=0.0)
        with pytest.raises(ValueError):
            RewardWeights(standing_penalty=-1.0)


class TestStandingMonitor:
    def test_triggers_exactly_at_window(self):
        mon = StandingMonitor(window=50, threshold=0.02)
        mon.reset(0.0)
        for step in range(1, 60):
            standing = mon.push(0.0)
            if step < 50:
                assert not standing, f"fired early at step {step}"
            else:
                assert standing, f"missed at step {step}"

    def test_movement_resets_window(self):
        mon = StandingMonitor(window=50, threshold=0.02)
        mon.reset(0.0)
        x = 0.0
        for step in range(1, 49):
            mon.push(x)
        x = 0.5
        assert not mon.push(x)  # big move on step 49
        for step in range(49):
            assert not mon.push(x)
        assert mon.push(x)  # 50 stationary steps after the move

    def test_slow_drift_above_threshold_never_stands(self):
        mon = StandingMonitor(window=50, threshold=0.02)
        mon.reset(0.0)
        x = 0.0
        for _ in range(200):
            x += 0.00041  # 0.0205 m per 50 steps, just over threshold
            assert not mon.push(x)
