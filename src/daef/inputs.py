"""Reading the toolkit's input files: kernel source, machine and profile JSON.

Every failure to decode a file becomes the caller's own error class with
a message that names the path and key, so the CLI reports it on one line.

Both JSON formats are declared by their dataclasses, and one codec reads
and writes them.  A key is the field's name or its metadata "json"; a
field without a default is required, and any other key is refused.  A
value must fit the field's annotated type: a dataclass, a list of them,
str, int (not bool), or float and Fraction, a number (not bool) whose
magnitude fits a float.  A Fraction is read exactly through the number's
decimal form, so 3.4 GHz is 17/5, and written as a float.  Range checks
are each class's __post_init__.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints


def read_text(path: str | Path, error: type[Exception]) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise error(f"{path}: {e}")


def read_json(path: str | Path, error: type[Exception]):
    text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at offset {e.pos}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # An integer past the int-digit limit, or nesting past the
        # recursion limit.
        raise error(f"{path}: {e}")


@cache
def _spec(cls) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, annotated type, required), in field order."""
    hints = get_type_hints(cls)
    return {f.metadata.get("json", f.name):
            (f.name, hints[f.name],
             f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def from_json(cls, data, where: str, error: type[Exception]):
    """Build dataclass cls from decoded JSON data, or raise error with a
    message that starts with where."""
    if not isinstance(data, dict):
        raise error(f"{where}: expected an object, got {type(data).__name__}")
    spec = _spec(cls)
    unknown = data.keys() - spec.keys()
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    values = {}
    for key, (name, tp, required) in spec.items():
        if key in data:
            values[name] = _decode(tp, data[key], f"{where}: {key}", error)
        elif required:
            raise error(f"{where}: missing key {key!r}")
    try:
        return cls(**values)
    except error as e:
        raise error(f"{where}: {e}")


_KINDS = {str: (str, "a string"), int: (int, "an integer"), list: (list, "a list")}


def _decode(tp, value, where: str, error: type[Exception]):
    if is_dataclass(tp):
        return from_json(tp, value, where, error)
    kinds, noun = _KINDS.get(get_origin(tp) or tp, ((int, float), "a number"))
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise error(f"{where}: wrong type: expected {noun},"
                    f" got {type(value).__name__}")
    if kinds is list:
        item, = get_args(tp)
        return [_decode(item, v, f"{where}[{k}]", error)
                for k, v in enumerate(value)]
    if tp is str or tp is int:
        return value
    # NaN fails the comparison; an int past the float range fails it
    # before float() could overflow.
    if not abs(value) <= sys.float_info.max:
        raise error(f"{where}: expected a finite number that fits a float")
    return Fraction(str(value)) if tp is Fraction else float(value)


def to_json(obj) -> dict:
    """The JSON form of a dataclass that from_json reads back."""
    return {key: _encode(tp, getattr(obj, name))
            for key, (name, tp, _) in _spec(type(obj)).items()}


def _encode(tp, value):
    if is_dataclass(tp):
        return to_json(value)
    if get_origin(tp) is list:
        return [to_json(v) for v in value]
    if tp is Fraction or tp is float:
        return float(value)
    return value
