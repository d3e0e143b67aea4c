"""JSON Lines framing of the token-sequence, pretraining, rated and truth
files: one compact, key-sorted JSON object per line. Each record type
supplies only its codec. Also the one rule for the values a config field
takes, from YAML, a checkpoint or a Python caller."""
from __future__ import annotations

import dataclasses
import json

from .exceptions import DataError, ParseError


def array(obj: dict, key: str, kind: type) -> tuple:
    """`obj[key]` as a tuple; it must be a JSON array of `kind` values. No
    coercion: `bool` admits only true/false, `str` only strings."""
    values = obj[key]
    if not isinstance(values, list) or not all(isinstance(v, kind) for v in values):
        raise DataError(f"{key!r} must be an array of {kind.__name__} values, got {values!r}")
    return tuple(values)


# What a field of each annotated type takes: an int is a valid float, a list
# a valid tuple (YAML and JSON have none), and a bool is no number.
_FIELD_VALUES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                 "tuple": ((list, tuple), "a list")}


def check_fields(cls, values: dict, where: str = "") -> None:
    """Reject an entry of `values` that the same-named field of dataclass `cls`
    does not take; `where` prefixes the message. No coercion."""
    for f in dataclasses.fields(cls):
        if f.name in values:
            value = values[f.name]
            kinds, what = _FIELD_VALUES[f.type.split("[")[0]]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DataError(f"{where}{f.name} must be {what}, got {value!r}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read(stream, from_json, what: str) -> list:
    """`from_json` of every non-blank line. A line that is not JSON, or that
    its record type rejects, raises ParseError with the line number."""
    out = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            out.append(from_json(line))
        except (KeyError, TypeError, ValueError, DataError) as e:
            raise ParseError(f"bad {what} record: {e!r}", line=line_no) from e
    return out
