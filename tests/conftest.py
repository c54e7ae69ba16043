import numpy as np
import pytest

from slopetrot.gaitgen import GaitParams
from slopetrot.legkin import LegGeometry
from slopetrot.reward import RewardWeights
from slopetrot.simenv import RandomizationConfig, SimParams
from slopetrot.trainer import EnvBundle


@pytest.fixture(scope="session")
def geometry():
    return LegGeometry()


@pytest.fixture(scope="session")
def gait():
    return GaitParams()


@pytest.fixture(scope="session")
def bundle():
    return EnvBundle()


@pytest.fixture(scope="session")
def no_push():
    return RandomizationConfig(push_enabled=False)


def sample_workspace_points(geometry, n, seed=0):
    """Uniform rejection sampling inside the workspace polygon (planar)."""
    poly = np.asarray(geometry.workspace_polygon, dtype=float)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    rng = np.random.default_rng(seed)
    from slopetrot.legkin import _point_in_polygon

    points = []
    while len(points) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 2))
        for x, z in cand:
            if _point_in_polygon(x, z, geometry._edges):
                points.append((x, z))
                if len(points) == n:
                    break
    return points
