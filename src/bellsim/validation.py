"""The one place where config values and the keys of input files are checked.

A refused value raises ValueError naming the field; nothing is coerced,
so a JSON integer stays an int. A number is a real number, not a bool
(Python counts True as 1) or a string, finite, and small enough for a
float (a 400-digit JSON integer is not). Bounds ge, gt and le compare
the value itself. A choice is one of a set of strings, and a flag is a
bool, not 1 or "yes". Rules that tie two fields together, such as
window_lo < window_hi, stay in their dataclass, after its field checks.
"""

from __future__ import annotations

import json
import math
import numbers
import operator


def _shown(value) -> str:
    """A refused value as a message shows it."""
    if isinstance(value, bool):
        return f"a boolean ({value!r})"
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def check_number(name: str, value, *, integer: bool = False,
                 ge=None, gt=None, le=None) -> None:
    """Raise ValueError unless value is a finite real number (an int if integer) within bounds.

    A bound of None is not checked.
    """
    # most values are a plain float, or a plain int that float() cannot
    # overflow, and pass: they return here after the same comparisons, and
    # everything else, every refusal included, takes the checks below
    kind = type(value)
    if (((kind is float and not integer and math.isfinite(value))
         or (kind is int and value.bit_length() <= 1023))
            and (ge is None or value >= ge) and (gt is None or value > gt)
            and (le is None or value <= le)):
        return
    if isinstance(value, bool) or not isinstance(value, int if integer else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {_shown(value)}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    for bound, sign, holds in ((ge, ">=", operator.ge), (gt, ">", operator.gt),
                               (le, "<=", operator.le)):
        if bound is not None and not holds(value, bound):
            raise ValueError(f"{name} must be {sign} {bound}, got {value!r}")


def require_numbers(config, *names: str, **bounds) -> None:
    """check_number on each named field of config, with the same bounds for each."""
    for name in names:
        check_number(name, getattr(config, name), **bounds)


def check_pair(name: str, value) -> None:
    """Raise ValueError unless value is a list or tuple of two numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{name} must be two numbers, got {_shown(value)}")
    for i, v in enumerate(value):
        check_number(f"{name}[{i}]", v)


def check_choice(name: str, value, choices) -> None:
    """Raise ValueError unless value is one of the strings in choices."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {_shown(value)}")
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}, expected one of {tuple(choices)}")


def check_bool(name: str, value) -> None:
    """Raise ValueError unless value is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean, got {_shown(value)}")


def check_keys(kind: str, data: dict, known, required=()) -> None:
    """Raise ValueError unless data is a dict with keys from known, all of required among them."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} must be a JSON object, got {_shown(data)}")
    for problem, names in (("unknown", set(data) - set(known)),
                           ("missing", set(required) - set(data))):
        if names:
            raise ValueError(f"{problem} {kind} field(s): {', '.join(sorted(map(str, names)))}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def parse_json(name: str, text: str):
    """json.loads on the text of the file name, refusing bad JSON with a ValueError naming it.

    A key given twice in one object is refused, not read last-wins.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # a key given twice, or an integer too long to convert
        raise ValueError(f"{name}: {exc}") from None
