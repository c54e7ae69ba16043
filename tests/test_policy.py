import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopetrot.policy import (
    ACT_DIM,
    OBS_DIM,
    ActionScaling,
    CHANNELS,
    PolicyFormatError,
    act,
    build_observation,
    load_policy,
    raw_from_action,
    save_policy,
    scale_clip_action,
    zero_policy,
)
from slopetrot.slopeest import PlaneEstimate

FLAT = PlaneEstimate.flat()


class TestObservation:
    def test_zero_history_flat_plane(self):
        obs = build_observation([np.zeros(3)], FLAT)
        assert obs.shape == (OBS_DIM,)
        assert np.all(obs == 0.0)

    def test_single_sample_duplicated(self):
        theta = np.array([0.1, -0.2, 0.3])
        plane = PlaneEstimate((0.0, 0.0, 1.0), 0.05, -0.07)
        obs = build_observation([theta], plane)
        expected = np.concatenate([theta, theta, theta, [0.05, -0.07]])
        assert obs == pytest.approx(expected)

    def test_order_sensitive(self):
        ths = [np.array([i, i + 0.1, i + 0.2]) for i in (1.0, 2.0, 3.0)]
        obs = build_observation(ths, FLAT)
        assert obs[:3] == pytest.approx(ths[0])
        assert obs[3:6] == pytest.approx(ths[1])
        assert obs[6:9] == pytest.approx(ths[2])

    def test_ring_buffer(self):
        hist = [[float(i), 0.0, 0.0] for i in range(5)]
        obs = build_observation(hist, FLAT)
        assert obs[0] == 2.0 and obs[3] == 3.0 and obs[6] == 4.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            build_observation([], FLAT)


class TestAct:
    def test_zero_matrix(self):
        s = np.arange(OBS_DIM, dtype=float)
        assert np.all(act(zero_policy(), s) == 0.0)

    def test_identity_like_propagates_basis(self):
        m = np.zeros((ACT_DIM, OBS_DIM))
        m[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)
        s = np.zeros(OBS_DIM)
        s[3] = 1.0
        out = act(m, s)
        assert out[3] == 1.0 and np.sum(out != 0.0) == 1

    def test_matches_per_row_dot_oracle(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(ACT_DIM, OBS_DIM))
        s = rng.normal(size=OBS_DIM)
        out = act(m, s)
        for i in range(ACT_DIM):
            expected = sum(m[i, j] * s[j] for j in range(OBS_DIM))
            assert out[i] == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            act(np.zeros((5, 5)), np.zeros(OBS_DIM))

    @given(alpha=st.floats(-2, 2), beta=st.floats(-2, 2), seed=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(ACT_DIM, OBS_DIM))
        s1 = rng.normal(size=OBS_DIM)
        s2 = rng.normal(size=OBS_DIM)
        lhs = act(m, alpha * s1 + beta * s2)
        rhs = alpha * act(m, s1) + beta * act(m, s2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestScaling:
    def test_zero_maps_to_midpoints(self):
        for a in scale_clip_action(np.zeros(ACT_DIM)):
            assert a.step_len == pytest.approx(0.068)
            assert a.steer == 0.0
            assert a.shift_x == 0.0 and a.shift_y == 0.0 and a.shift_z == 0.0

    def test_saturation_clamps(self):
        fl, fr, bl, br = scale_clip_action(np.full(ACT_DIM, 5.0))
        assert fl.step_len == pytest.approx(0.136)
        assert fl.shift_y == pytest.approx(0.035)
        assert br.steer == pytest.approx(0.35)

    def test_lower_bounds(self):
        fl, fr, bl, br = scale_clip_action(np.full(ACT_DIM, -1.0))
        assert fl.step_len == 0.0
        assert bl.shift_y == pytest.approx(-0.035)

    def test_saturated_idempotent(self):
        big = np.full(ACT_DIM, 5.0)
        assert scale_clip_action(big) == scale_clip_action(np.ones(ACT_DIM))

    @given(
        lo=st.floats(-1.0, 1.0), hi=st.floats(-1.0, 1.0), channel=st.integers(0, ACT_DIM - 1)
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_per_channel(self, lo, hi, channel):
        a, b = min(lo, hi), max(lo, hi)
        ra = np.zeros(ACT_DIM)
        rb = np.zeros(ACT_DIM)
        ra[channel] = a
        rb[channel] = b
        leg, ch = divmod(channel, len(CHANNELS))
        va = getattr(scale_clip_action(ra)[leg], CHANNELS[ch])
        vb = getattr(scale_clip_action(rb)[leg], CHANNELS[ch])
        assert va <= vb + 1e-15

    def test_raw_round_trip(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(-1.0, 1.0, ACT_DIM)
        av = scale_clip_action(raw)
        assert raw_from_action(av) == pytest.approx(raw, abs=1e-12)

    def test_zero_width_channel_maps_to_raw_zero(self):
        sc = ActionScaling(shift_z=(0.0, 0.0))
        raw = np.random.default_rng(3).uniform(-1.0, 1.0, ACT_DIM)
        back = raw_from_action(scale_clip_action(raw, sc), sc)
        flat = [i for i in range(ACT_DIM) if CHANNELS[i % len(CHANNELS)] == "shift_z"]
        assert np.all(back[flat] == 0.0)
        assert np.delete(back, flat) == pytest.approx(np.delete(raw, flat), abs=1e-12)

    def test_custom_scaling(self):
        sc = ActionScaling(step_len=(0.0, 0.2))
        fl = scale_clip_action(np.zeros(ACT_DIM), sc)[0]
        assert fl.step_len == pytest.approx(0.1)


    def test_leg_order(self):
        # raw entry 5k drives leg k's step length, in LEG_ORDER
        for k in range(4):
            raw = np.full(ACT_DIM, -1.0)
            raw[5 * k] = 1.0
            legs = scale_clip_action(raw)
            assert len(legs) == 4
            assert [a.step_len for a in legs] == [0.136 if j == k else 0.0 for j in range(4)]

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            scale_clip_action(np.zeros(ACT_DIM - 1))


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(ACT_DIM, OBS_DIM)) * 10.0 ** rng.integers(-8, 8, (ACT_DIM, OBS_DIM))
        path = tmp_path / "policy.txt"
        save_policy(m, path, metadata={"iteration": 5, "seed": 1})
        loaded = load_policy(path)
        assert np.array_equal(loaded, m)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("19 11\n" + "\n".join(" ".join(["0.0"] * 11) for _ in range(19)) + "\n")
        with pytest.raises(PolicyFormatError):
            load_policy(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        with pytest.raises(PolicyFormatError):
            load_policy(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "p.txt"
        rows = [" ".join(["0.0"] * 11) for _ in range(20)]
        rows[7] = "0.0 0.0"
        path.write_text("20 11\n" + "\n".join(rows) + "\n")
        with pytest.raises(PolicyFormatError):
            load_policy(path)

    def test_unparsable_entry(self, tmp_path):
        path = tmp_path / "p.txt"
        rows = [" ".join(["0.0"] * 11) for _ in range(20)]
        rows[0] = rows[0].replace("0.0", "zero", 1)
        path.write_text("20 11\n" + "\n".join(rows) + "\n")
        with pytest.raises(PolicyFormatError):
            load_policy(path)

    def test_missing_file_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_policy(tmp_path / "nope.txt")

    def test_nonfinite_rejected_on_save(self, tmp_path):
        m = zero_policy()
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            save_policy(m, tmp_path / "p.txt")
