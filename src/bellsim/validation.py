"""The one place where config values and the keys of input files are checked.

A refused value raises ValueError naming the field; nothing is coerced,
so a JSON integer stays an int. A number is a real number, not a bool
(Python counts True as 1) or a string, finite, and small enough for a
float (a 400-digit JSON integer is not). Bounds ge, gt and le compare
the value itself. A choice is one of a set of strings, and a flag is a
bool, not 1 or "yes". Rules that tie two fields together, such as
window_lo < window_hi, stay in their dataclass, after its field checks.
read_input is the one way an input file is read, so every refusal names
its file.
"""

from __future__ import annotations

import json
import math
import numbers


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

    A plain int, or a plain float where a number is wanted, is a number of
    the right kind; any other value is type-tested. A bound of None is not
    checked.
    """
    kind = type(value)
    if kind is not int and (kind is not float or integer):
        if isinstance(value, bool) or not isinstance(value, int if integer else numbers.Real):
            raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                             f"got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {_shown(value)}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if ge is not None and not value >= ge:
        raise ValueError(f"{name} must be >= {ge}, got {value!r}")
    if gt is not None and not value > gt:
        raise ValueError(f"{name} must be > {gt}, got {value!r}")
    if le is not None and not value <= le:
        raise ValueError(f"{name} must be <= {le}, got {value!r}")


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


def float_literal(literal: str, where: str = "number") -> float:
    """A JSON number literal as a float; one a float cannot hold is refused as written."""
    if math.isinf(value := float(literal)):
        raise ValueError(f"{where} {literal} is too large for a float")
    if value == 0 and literal.lower().partition("e")[0].strip("-.0"):  # a nonzero digit
        raise ValueError(f"{where} {literal} is too small for a float")
    return value


def parse_json(text: str):
    """json.loads on a file's text, refusing bad JSON with a ValueError at its line and column.

    A key given twice in one object is refused, not read last-wins, and so
    is a number with a fraction or an exponent that a float cannot hold.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_float=float_literal)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def read_input(path, parse):
    """parse(text) on the file at path, read as UTF-8 after an optional byte order mark.

    A ValueError from decoding or parsing names the file; an OSError passes through.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
