"""JSON Lines framing of the token-sequence, pretraining, rated and truth
files: one compact, key-sorted JSON object per line. Each record type
supplies only its codec."""
from __future__ import annotations

import json

from .exceptions import DataError, ParseError


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
