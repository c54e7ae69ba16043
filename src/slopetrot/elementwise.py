"""The math the kinematics use, on Python floats or elementwise on arrays,
with the same bits either way.

`ops(x)` gives the float form when x is a number and the array form when
it is an ndarray, so one function body serves a single point and the four
legs' spawn posture at once. numpy's sin, cos, sqrt and fmod round as
math's do (tests/test_numeric_forms.py checks it); its arctan2 and arccos
do not, so the array form maps math.atan2 and math.acos over the
elements. A conditional `a if c else b` becomes np.where on the same
comparison, which keeps its NaN and tie results.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

FLOAT = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    sqrt=math.sqrt,
    fmod=math.fmod,
    atan2=math.atan2,
    acos=math.acos,
    where=lambda c, a, b: a if c else b,
    any=bool,
    all=bool,
)

_atan2 = np.frompyfunc(math.atan2, 2, 1)
_acos = np.frompyfunc(math.acos, 1, 1)

ARRAY = SimpleNamespace(
    sin=np.sin,
    cos=np.cos,
    sqrt=np.sqrt,
    fmod=np.fmod,
    atan2=lambda y, x: _atan2(y, x).astype(float),
    acos=lambda x: _acos(x).astype(float),
    where=np.where,
    any=np.any,
    all=np.all,
)


def ops(x):
    """ARRAY for an ndarray, FLOAT for a number."""
    return ARRAY if isinstance(x, np.ndarray) else FLOAT
