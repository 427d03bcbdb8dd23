"""The one numeric range check of every public constructor, call and config.

An inline ``if x < 0`` guard lets NaN through, and ``if x <= 0`` lets
infinity through.  :func:`require_range` states the interval the value must
lie in, so NaN fails every range and the default open upper end refuses
infinity.  It lives in ``overlay``, the package that imports nothing.
"""

from __future__ import annotations

import math
from dataclasses import fields


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


#: Intervals ``(low, high, ends)`` configs name for :func:`require_fields`.
AT_LEAST_1 = (1, math.inf, "[)")
POSITIVE = (0, math.inf, "()")
FRACTION = (0.0, 1.0, "(]")
CLOSED_FRACTION = (0.0, 1.0, "[]")
RATIO = (1.0, math.inf, "[)")


class OneOf(tuple):
    """A :func:`require_fields` entry naming the values a field may take
    (scenario names, a mode): matched by type and value, so ``1`` is not ``True``."""


def require_fields(config, ranges: dict[str, tuple]) -> None:
    """Put every numeric field of dataclass ``config`` (each element of a tuple
    field) through :func:`require_range`: in ``ranges[name]`` when named, else in
    ``[0, inf)``.  ``None`` (an optional knob left off) passes.  A field named
    with :class:`OneOf` must instead be (hold only) one of its values.  Configs
    call it from ``__post_init__``, so a bad number or a misspelt choice is
    refused at construction, not minutes into a paper-scale run."""
    for spec in fields(config):
        allowed = ranges.get(spec.name, (0, math.inf, "[)"))
        value = getattr(config, spec.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(allowed, OneOf):
                if not any(type(item) is type(choice) and item == choice for choice in allowed):
                    raise ParameterError(
                        f"{spec.name} must be one of {tuple(allowed)!r}, got {item!r}")
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                require_range(spec.name, item, *allowed)
