"""JSON Lines framing of the token-sequence, pretraining, rated and truth
files: one compact, key-sorted JSON object per line. Each record type
supplies only its codec. Also the one rule for what a value read from outside
may be: a record field, checkpoint metadata, or a config field."""
from __future__ import annotations

import dataclasses
import json

from .exceptions import DataError, ParseError


# Type name -> the Python types its values may have (JSON, YAML or a Python
# caller's), and what to call them. An int is a valid float and a list a valid
# tuple (YAML and JSON have neither); a bool is never a number. No coercion.
_FIELD_VALUES = {"int": ({int}, "an integer"), "float": ({int, float}, "a number"),
                 "bool": ({bool}, "true or false"), "str": ({str}, "a string"),
                 "str | None": ({str, type(None)}, "a string or null"), "list": ({list}, "a list"),
                 "tuple": ({list, tuple}, "a list"), "dict": ({dict}, "a mapping")}


def takes(kind: str, values) -> bool:
    """Whether each of `values` is a value of the type named `kind`."""
    return set(map(type, values)) <= _FIELD_VALUES[kind][0]


def value(obj: dict, key: str, kind: str, where: str = ""):
    """`obj[key]`, a value of the type named `kind`; `where` prefixes an error."""
    v = obj[key]
    if not takes(kind, (v,)):
        raise DataError(f"{where}{key} must be {_FIELD_VALUES[kind][1]}, got {v!r}")
    return v


def array(obj: dict, key: str, kind: str) -> tuple:
    """`obj[key]` as a tuple; it must be a list of values of the type named
    `kind`. An error names the first value that is not, not the whole list."""
    values = value(obj, key, "list")
    if not takes(kind, values):
        i = next(i for i, v in enumerate(values) if not takes(kind, (v,)))
        raise DataError(f"{key}[{i}] must be {_FIELD_VALUES[kind][1]}, got {values[i]!r}")
    return tuple(values)


def check_fields(cls, values: dict, where: str = "") -> None:
    """Reject an entry of `values` that the same-named field of dataclass `cls`
    does not take; `where` prefixes the message."""
    for f in dataclasses.fields(cls):
        if f.name in values:
            value(values, f.name, f.type.split("[")[0], where)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read(stream, from_json, what: str) -> list:
    """`from_json` of every non-blank line. A line that is not JSON, nests too deep to decode,
    or that its record type rejects, raises ParseError with the line number."""
    out = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            out.append(from_json(line))
        except (KeyError, TypeError, ValueError, DataError, RecursionError) as e:
            raise ParseError(f"bad {what} record: {e!r}", line=line_no) from e
    return out
