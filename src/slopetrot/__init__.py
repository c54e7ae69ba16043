"""Quadruped sloped-terrain trot stack: a linear feedback policy shaping
semi-elliptic end-foot trajectories, trained with augmented random search
against a built-in simplified rigid-body environment."""

__version__ = "0.1.0"

from .gaitgen import GaitParams, LegAction
from .legkin import FootPosition, LegGeometry
from .policy import ActionScaling, load_policy, save_policy
from .reward import RewardWeights
from .simenv import RandomizationConfig, SimParams, SlopedTerrainEnv, TerrainPlane
from .slopeest import PlaneEstimate, SlopeEstimator
from .trainer import ArsHyperparams, EnvBundle, TrainParams

__all__ = [
    "__version__",
    "ActionScaling",
    "ArsHyperparams",
    "EnvBundle",
    "FootPosition",
    "GaitParams",
    "LegAction",
    "LegGeometry",
    "PlaneEstimate",
    "RandomizationConfig",
    "RewardWeights",
    "SimParams",
    "SlopedTerrainEnv",
    "SlopeEstimator",
    "TerrainPlane",
    "TrainParams",
    "load_policy",
    "save_policy",
]
