"""Checks shared by the config dataclasses.

Python counts a bool as an int, so True passes for 1 anywhere a number is
compared or converted; these checks refuse it, and anything else that is
not a real number (a numeric string included), before a config is used.
"""

from __future__ import annotations

import numbers


def is_number(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_numbers(config, *names: str) -> None:
    """Raise ValueError unless each named field of config is a real number."""
    for name in names:
        value = getattr(config, name)
        if not is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
