"""Declared bounds for the settings dataclasses.

A settings field declares its bounds next to its default with `bounded`,
and the dataclass's __post_init__ calls `check_bounds`. Every number in a
bounded field's value, nested tuples included, must be finite and within
the field's bounds, and a range pair must have lo <= hi. The test is
written "not (within bounds)" so NaN fails it too.
"""

from __future__ import annotations

import dataclasses
import math


class ConfigError(ValueError):
    """Incompatible environment configuration."""


def bounded(default=dataclasses.MISSING, lo=-math.inf, hi=math.inf, *, open_lo=False,
            open_hi=False, ordered=False):
    """A dataclass field whose numbers must be finite and lie in [lo, hi],
    with lo excluded under open_lo and hi under open_hi. With ordered the
    value is a (lo, hi) range pair that also needs lo <= hi. Without a
    default the field is required."""
    return dataclasses.field(default=default,
                             metadata={"bounds": (lo, hi, open_lo, open_hi, ordered)})


def _numbers(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    else:
        yield value


def check_bounds(obj) -> None:
    """Raise ConfigError naming the first bounded field of obj whose value
    breaks its declared bounds."""
    for field in dataclasses.fields(obj):
        if "bounds" not in field.metadata:
            continue
        lo, hi, open_lo, open_hi, ordered = field.metadata["bounds"]
        value = getattr(obj, field.name)
        for x in _numbers(value):
            if not (-math.inf < x < math.inf and (lo < x if open_lo else lo <= x)
                    and (x < hi if open_hi else x <= hi)):
                low = f"{'>' if open_lo else '>='} {lo:g}" if lo > -math.inf else ""
                high = f"{'<' if open_hi else '<='} {hi:g}" if hi < math.inf else ""
                rule = " and ".join(p for p in ("finite", low, high) if p)
                raise ConfigError(f"{field.name} must be {rule}, got {value!r}")
        if ordered and not (len(value) == 2 and value[0] <= value[1]):
            raise ConfigError(f"{field.name} must be a (lo, hi) pair with lo <= hi")
