"""Strict parsing, field by declared annotation, of every JSON document read back:
the config, the snapshot and its ensemble, and a trace's footer. Nothing is
coerced, numbers must be finite, and a refusal is an ``InputError`` naming
document and field.
"""

from __future__ import annotations

import sys
from dataclasses import fields

from .errors import InputError


def _exactly(kind, what: str):
    """Parser of JSON values of type ``kind`` alone (``true`` is no integer)."""

    def parse(value, name: str):
        if type(value) is not kind:
            raise InputError(f"{name} must be {what}, got {value!r}")
        return value

    return parse


_int = _exactly(int, "an integer")
_bool = _exactly(bool, "true or false")
_str = _exactly(str, "a string")


def _float(value, name: str) -> float:
    # abs(NaN) <= x is false, and an int compares with a float exactly
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _shift_level(value, name: str) -> tuple[str, float] | None:
    if value is None:
        return None
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (_str(value[0], f"{name} parameter"), _float(value[1], f"{name} value"))
    raise InputError(f"{name} must be null or [param, value], got {value!r}")


def _levels(item):
    """Parser of a list of values that ``item`` parses, returned as a tuple."""

    def parse(value, name: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{name} must be a list, got {value!r}")
        return tuple(item(v, name) for v in value)

    return parse


# One parser per field annotation, spelled as the dataclasses declare it.
PARSERS = {
    "int": _int,
    "float": _float,
    "bool": _bool,
    "str": _str,
    "dict": _exactly(dict, "a JSON object"),
    "float | None": lambda value, name: None if value is None else _float(value, name),
    "tuple[str, float] | None": _shift_level,
    "tuple[float, ...]": _levels(_float),
    "tuple[int, ...]": _levels(_int),
    "tuple[tuple[str, float] | None, ...]": _levels(_shift_level),
}


def parse_object(doc, document: str, prefix: str = "") -> dict:
    """``doc`` if it is a JSON object. A section (``prefix`` is its dotted key and a dot) is refused
    as a value of the wrong type is; the document itself (no ``prefix``) as not a JSON object."""
    if prefix:
        return PARSERS["dict"](doc, f"{document} value {prefix[:-1]}")
    if not isinstance(doc, dict):
        raise InputError(f"{document} must be a JSON object, got {type(doc).__name__}")
    return doc


def parse_key(doc, key: str, annotation: str, document: str, prefix: str = ""):
    """``doc[key]`` parsed by ``annotation``'s parser; ``document`` and ``prefix`` say where ``doc`` sits."""
    if key not in parse_object(doc, document, prefix):
        raise InputError(f"{document} is missing key {prefix + key!r}")
    return PARSERS[annotation](doc[key], f"{document} value {prefix}{key}")


def refuse_unknown(doc: dict, known, document: str, where: str) -> None:
    """``InputError`` if ``doc`` has a key outside ``known``; ``where`` names its section."""
    if unknown := set(doc) - set(known):
        raise InputError(f"unknown {document} keys in {where}: {sorted(unknown)}")


def parse_fields(cls, doc, document: str, prefix: str = "", **given):
    """``cls`` with each field not in ``given`` parsed from ``doc``; see ``parse_key``."""
    parsed = {f.name: parse_key(doc, f.name, f.type, document, prefix) for f in fields(cls) if f.name not in given}
    return cls(**parsed, **given)
