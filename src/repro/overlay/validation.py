"""The one numeric range check of every public constructor and call.

An inline ``if x < 0`` guard lets NaN through, and ``if x <= 0`` lets
infinity through.  :func:`require_range` states the interval the value must
lie in, so NaN fails every range and the default open upper end refuses
infinity.  It lives in ``overlay``, the package that imports nothing.
"""

from __future__ import annotations

import math


class ParameterError(ValueError):
    """A numeric argument outside its range; the message names the parameter."""


def require_range(name: str, value, low, high=math.inf, ends: str = "[)"):
    """Return ``value`` if it lies in the interval from ``low`` to ``high``,
    else raise :class:`ParameterError`.  ``ends`` spells the interval's ends:
    ``[`` / ``]`` closed, ``(`` / ``)`` open."""
    if ends == "[)":
        if low <= value < high:
            return value
    elif ends == "()":
        if low < value < high:
            return value
    elif low < value <= high if ends == "(]" else low <= value <= high:
        return value
    raise ParameterError(f"{name} must be in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
