import pytest

from slopetrot.bounds import ConfigError
from slopetrot.config import (
    SECTIONS,
    ConfigFileError,
    RunConfig,
    apply_setting,
    config_hash,
    dump_config,
    load_config,
    parse_config,
)


class TestParsing:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        text = dump_config(cfg)
        reparsed = parse_config(text)
        assert dump_config(reparsed) == text
        assert config_hash(reparsed) == config_hash(cfg)

    def test_scalar_override(self):
        cfg = parse_config("gait.max_step_len = 0.15\nars.num_directions = 8\n")
        assert cfg.gait.max_step_len == 0.15
        assert cfg.ars.num_directions == 8

    def test_bool_and_tuple(self):
        cfg = parse_config(
            "rand.push_enabled = false\nrand.friction_range = 0.6, 0.7\n"
        )
        assert cfg.rand.push_enabled is False
        assert cfg.rand.friction_range == (0.6, 0.7)

    def test_nested_tuple_polygon(self):
        cfg = parse_config(
            "geometry.workspace_polygon = -0.05,-0.18; 0.05,-0.18; 0.10,-0.30; -0.10,-0.30\n"
        )
        assert len(cfg.geometry.workspace_polygon) == 4
        assert cfg.geometry.workspace_polygon[2] == (0.10, -0.30)

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\nrun.master_seed = 9  # trailing\n")
        assert cfg.run.master_seed == 9

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigFileError):
            parse_config("nosuch.key = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigFileError):
            parse_config("gait.no_such_key = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigFileError):
            parse_config("gait.max_step_len = fast\n")

    def test_invalid_line_rejected(self):
        with pytest.raises(ConfigFileError):
            parse_config("gait.max_step_len 0.1\n")

    def test_validation_propagates(self):
        with pytest.raises(ConfigFileError):
            parse_config("gait.max_step_len = -0.1\n")

    def test_hash_changes_with_content(self):
        base = RunConfig()
        changed = apply_setting(base, "run.master_seed", "123")
        assert config_hash(base) != config_hash(changed)

    def test_hash_ignores_execution_schedule_and_output_location(self):
        base = RunConfig()
        for key, value in (("ars.workers", "8"), ("run.out_dir", "elsewhere")):
            assert config_hash(apply_setting(base, key, value)) == config_hash(base), key

    def test_hash_changes_with_direction_count(self):
        base = RunConfig()
        changed = apply_setting(base, "ars.num_directions", "8")
        assert config_hash(base) != config_hash(changed)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("reward.forward_weight = 2.5\n")
        cfg = load_config(path)
        assert cfg.reward.forward_weight == 2.5

    def test_bundle_and_hyperparams(self):
        cfg = parse_config("run.master_seed = 11\nars.step_size = 0.07\n")
        assert cfg.hyperparams().master_seed == 11
        assert cfg.hyperparams().step_size == 0.07
        assert cfg.bundle().gait.cycle_period == 0.4


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def non_finite_settings(config):
    """(key, value text) for every number position of every numeric key in
    the dump of config, with nan, inf and -inf put in its place in turn.
    The cases come from the dump, so a numeric field that declares no bound
    is swept too."""
    cases = []
    for line in dump_config(config).splitlines():
        key, _, text = line.partition(" = ")
        groups = [group.split(",") for group in text.split(";")]
        if not all(_is_number(item) for group in groups for item in group):
            continue
        for g, group in enumerate(groups):
            for i in range(len(group)):
                for bad in ("nan", "inf", "-inf"):
                    changed = [list(items) for items in groups]
                    changed[g][i] = bad
                    cases.append((key, ";".join(",".join(items) for items in changed)))
    return cases


class TestNonFiniteValues:
    def test_every_numeric_key_rejects_non_finite_values(self):
        base = RunConfig()
        cases = non_finite_settings(base)
        assert {key.partition(".")[0] for key, _ in cases} == set(SECTIONS)
        accepted = []
        for key, text in cases:
            try:
                cfg = apply_setting(base, key, text)
            except ConfigFileError:
                continue
            try:
                cfg.bundle().make_env()
            except ConfigError:
                continue
            accepted.append(f"{key}={text}")
        assert accepted == []
