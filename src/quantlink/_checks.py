"""Type and range rules for the counts, seeds and sizes that configs and calls take.

A bool is not an int here and a string is not a number, so a JSON `true` or
`"512"` fails where it is given instead of being carried into a later stage.
"""

from __future__ import annotations

import math


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number: an int or float that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_int(name: str, value) -> None:
    if not is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_count(name: str, value) -> None:
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def check_positive_finite(name: str, value) -> None:
    if not is_finite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def check_nonnegative_finite(name: str, value) -> None:
    if not is_finite(value) or value < 0:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
