"""Flat key=value run configuration covering every tunable in the stack.

Keys are section-prefixed (e.g. ``gait.max_step_len = 0.136``); sections
map one-to-one onto the per-module parameter dataclasses. Unknown keys are
rejected. Tuple fields use comma-separated scalars, nested tuples use
semicolons between groups:

    geometry.workspace_polygon = -0.05,-0.18; 0.05,-0.18; 0.11,-0.305; -0.11,-0.305
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

from .bounds import bounded, check_bounds
from .gaitgen import GaitParams
from .legkin import LegGeometry
from .policy import ActionScaling
from .reward import RewardWeights
from .runlog import text_hash
from .simenv import RandomizationConfig, SimParams
from .trainer import ArsHyperparams, EnvBundle, TrainParams


class ConfigFileError(ValueError):
    """Unparsable config text, unknown key, or bad value."""


@dataclass(frozen=True)
class RunParams:
    """Run-level knobs that belong to no single module."""

    out_dir: str = "runs"
    master_seed: int = bounded(0, 0)

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class RunConfig:
    geometry: LegGeometry = LegGeometry()
    gait: GaitParams = GaitParams()
    scaling: ActionScaling = ActionScaling()
    reward: RewardWeights = RewardWeights()
    sim: SimParams = SimParams()
    rand: RandomizationConfig = RandomizationConfig()
    ars: ArsHyperparams = ArsHyperparams()
    train: TrainParams = TrainParams()
    run: RunParams = RunParams()

    def bundle(self) -> EnvBundle:
        """The run's environment; its episodes run train.episode_len steps."""
        return EnvBundle(
            geometry=self.geometry,
            gait=self.gait,
            reward=self.reward,
            sim=replace(self.sim, episode_len=self.train.episode_len),
            scaling=self.scaling,
        )

    def rand_without_pushes(self) -> RandomizationConfig:
        """The configured randomization with scheduled pushes off, as
        `slopetrot eval` and `slopetrot rollout` run it."""
        return replace(self.rand, push_enabled=False)

    def hyperparams(self) -> ArsHyperparams:
        return replace(self.ars, master_seed=self.run.master_seed)


SECTIONS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _parse_value(text: str, default):
    """Parse text as a value of the type of the field's current value."""
    text = text.strip()
    if isinstance(default, bool):
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigFileError(f"expected boolean, got {text!r}")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, str):
        return text
    if default is None:
        return None if text.lower() in ("none", "") else int(text)
    if isinstance(default, tuple):
        if default and isinstance(default[0], tuple):
            return tuple(_parse_value(g, default[0]) for g in text.split(";") if g.strip())
        return tuple(_parse_value(v, default[0] if default else 0.0) for v in text.split(","))
    raise ConfigFileError(f"cannot parse value for default {default!r}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return "; ".join(",".join(repr(float(x)) for x in g) for g in value)
        return ",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    return str(value)


def apply_setting(config: RunConfig, dotted_key: str, text: str) -> RunConfig:
    """Return a new config with one 'section.field' setting applied."""
    if "." not in dotted_key:
        raise ConfigFileError(f"key {dotted_key!r} must be section.field")
    section, _, name = dotted_key.partition(".")
    if section not in SECTIONS:
        raise ConfigFileError(f"unknown section {section!r}")
    sub = getattr(config, section)
    field_names = {f.name for f in dataclasses.fields(sub)}
    if name not in field_names:
        raise ConfigFileError(f"unknown key {dotted_key!r}")
    try:
        value = _parse_value(text, getattr(sub, name))
        new_sub = replace(sub, **{name: value})
    except ConfigFileError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigFileError(f"bad value for {dotted_key}: {exc}") from exc
    return replace(config, **{section: new_sub})


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    config = base or RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        config = apply_setting(config, key.strip(), value)
    return config


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), base)


def dump_config(config: RunConfig) -> str:
    """Canonical text form of the full resolved configuration."""
    lines = []
    for section in SECTIONS:
        sub = getattr(config, section)
        for f in dataclasses.fields(sub):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(sub, f.name))}")
    return "\n".join(lines) + "\n"


# Keys that change where or how fast a run executes but never what it
# computes: the output directory, and the worker count (rollout results are
# reduced in submission order, so any schedule gives the same numbers).
_UNHASHED_KEYS = ("run.out_dir", "ars.workers")


def config_hash(config: RunConfig) -> str:
    """Hash of what a run computes.

    Output location and worker count are excluded, so two runs that differ
    only in them carry the same hash and produce byte-identical files.
    """
    lines = [
        ln for ln in dump_config(config).splitlines()
        if ln.partition(" = ")[0] not in _UNHASHED_KEYS
    ]
    return text_hash("\n".join(lines))
