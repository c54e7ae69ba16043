"""Linear trajectory-shaping policy: observation assembly, the 20x11 matrix
map, raw-to-physical action scaling, and policy file persistence.

The observation is [theta(t-2), theta(t-1), theta(t), plane_roll,
plane_pitch] where each theta is the torso (roll, pitch, yaw) sampled at
policy steps (one per stance exchange). Raw policy outputs are clamped to
[-1, 1] and mapped affinely onto the physical action ranges, midpoint at
raw zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaitgen import LEG_ORDER, LegAction
from .slopeest import PlaneEstimate

OBS_DIM = 11
ACT_DIM = 20

# Per-leg channel order within the flat 20-vector.
CHANNELS = ("step_len", "steer", "shift_x", "shift_y", "shift_z")


class PolicyFormatError(ValueError):
    """Policy file malformed: bad header, wrong shape or unparsable row."""


@dataclass(frozen=True)
class ActionScaling:
    """Physical (lo, hi) range per channel; raw 0 maps to the midpoint."""

    step_len: tuple = (0.0, 0.136)
    steer: tuple = (-0.35, 0.35)
    shift_x: tuple = (-0.06, 0.06)
    shift_y: tuple = (-0.035, 0.035)
    shift_z: tuple = (-0.06, 0.06)

    def __post_init__(self):
        bounds = self.bounds()
        object.__setattr__(self, "_mid", 0.5 * (bounds[:, 0] + bounds[:, 1]))
        object.__setattr__(self, "_half", 0.5 * (bounds[:, 1] - bounds[:, 0]))

    def bounds(self) -> np.ndarray:
        """(20, 2) array of per-entry (lo, hi) in flat action order."""
        per_leg = np.array([getattr(self, ch) for ch in CHANNELS], dtype=float)
        return np.tile(per_leg, (4, 1))


DEFAULT_SCALING = ActionScaling()


@dataclass(frozen=True)
class ActionVector:
    """Per-leg trajectory transforms in fixed leg order FL, FR, BL, BR."""

    fl: LegAction = LegAction()
    fr: LegAction = LegAction()
    bl: LegAction = LegAction()
    br: LegAction = LegAction()

    def leg(self, leg_id: str) -> LegAction:
        return getattr(self, leg_id.lower())

    def to_flat(self) -> np.ndarray:
        vals = []
        for leg_id in LEG_ORDER:
            act = self.leg(leg_id)
            vals.extend(getattr(act, ch) for ch in CHANNELS)
        return np.array(vals)

    @classmethod
    def from_flat(cls, flat) -> "ActionVector":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (ACT_DIM,):
            raise ValueError(f"expected {ACT_DIM} action entries, got {flat.shape}")
        vals = flat.tolist()
        return cls(*(LegAction(*vals[i : i + 5]) for i in range(0, ACT_DIM, 5)))


ZERO_ACTION_VECTOR = ActionVector()


def zero_policy() -> np.ndarray:
    return np.zeros((ACT_DIM, OBS_DIM))


def validate_policy_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (ACT_DIM, OBS_DIM):
        raise ValueError(f"policy matrix must be {ACT_DIM}x{OBS_DIM}, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("policy matrix contains non-finite entries")
    return matrix


def build_observation(history, plane: PlaneEstimate) -> np.ndarray:
    """Assemble the 11-vector [theta(t-2), theta(t-1), theta(t), roll, pitch].

    history is a sequence of 3-vectors ordered oldest first; the newest
    three are used, and a shorter history is left-padded by duplicating its
    oldest sample.
    """
    samples = [np.asarray(h, dtype=float) for h in history][-3:]
    if not samples:
        raise ValueError("need at least one orientation sample")
    samples = [samples[0]] * (3 - len(samples)) + samples
    obs = np.concatenate(samples + [np.array([plane.roll, plane.pitch])])
    if obs.shape != (OBS_DIM,):
        raise ValueError("orientation samples must be 3-vectors")
    return obs


def act(matrix: np.ndarray, observation: np.ndarray) -> np.ndarray:
    """Raw 20-vector: plain matrix-vector product, no nonlinearity."""
    matrix = np.asarray(matrix, dtype=float)
    observation = np.asarray(observation, dtype=float)
    if matrix.shape != (ACT_DIM, OBS_DIM) or observation.shape != (OBS_DIM,):
        raise ValueError("shape mismatch between policy matrix and observation")
    return matrix @ observation


def scale_clip_action(raw, scaling: ActionScaling = DEFAULT_SCALING) -> ActionVector:
    """Clamp each raw entry to [-1, 1] and map onto the physical ranges."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (ACT_DIM,):
        raise ValueError(f"expected raw vector of length {ACT_DIM}")
    clipped = np.minimum(np.maximum(raw, -1.0), 1.0)
    return ActionVector.from_flat(scaling._mid + scaling._half * clipped)


def linear_controller(matrix: np.ndarray, scaling: ActionScaling = DEFAULT_SCALING):
    """The policy as an episode controller (see SlopedTerrainEnv.run):
    observation in, scaled and clipped action out."""
    return lambda obs: scale_clip_action(act(matrix, obs), scaling)


def raw_from_action(action: ActionVector, scaling: ActionScaling = DEFAULT_SCALING) -> np.ndarray:
    """Inverse of scale_clip_action for in-range physical actions (used to
    turn scripted demonstrations into regression targets)."""
    return np.clip((action.to_flat() - scaling._mid) / scaling._half, -1.0, 1.0)


def save_policy(matrix: np.ndarray, path, metadata: dict | None = None) -> None:
    """Write the matrix as decimal text: header '20 11', one row per line,
    17 significant digits, optional trailing '#' metadata lines."""
    matrix = validate_policy_matrix(matrix)
    lines = [f"{ACT_DIM} {OBS_DIM}"]
    for row in matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    if metadata:
        for key, value in metadata.items():
            lines.append(f"# {key}: {value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_policy(path) -> np.ndarray:
    """Parse a policy file written by save_policy.

    Raises PolicyFormatError on a bad header, wrong row count or width, or
    unparsable numbers. IO errors propagate as OSError.
    """
    with open(path) as fh:
        raw_lines = fh.read().splitlines()
    lines = [ln.strip() for ln in raw_lines]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise PolicyFormatError("empty policy file")
    header = lines[0].split()
    if header != [str(ACT_DIM), str(OBS_DIM)]:
        raise PolicyFormatError(f"bad header {lines[0]!r}, expected '{ACT_DIM} {OBS_DIM}'")
    if len(lines) - 1 != ACT_DIM:
        raise PolicyFormatError(f"expected {ACT_DIM} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != OBS_DIM:
            raise PolicyFormatError(f"row has {len(parts)} entries, expected {OBS_DIM}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise PolicyFormatError(f"unparsable row {ln!r}") from exc
    return validate_policy_matrix(np.array(rows))
