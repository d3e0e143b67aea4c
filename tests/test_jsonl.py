"""JSONL framing: the compact line format and line-numbered rejections."""
import io
import json

import pytest

from breakscore import jsonl
from breakscore.exceptions import DataError, ParseError


def _positive(line):
    value = json.loads(line)["n"]
    if value <= 0:
        raise DataError(f"not positive: {value}")
    return value


def test_dumps_is_compact_and_key_sorted():
    assert jsonl.dumps({"b": [1, 2], "a": "x"}) == '{"a":"x","b":[1,2]}'


def test_read_skips_blank_lines():
    assert jsonl.read(io.StringIO('{"n":1}\n\n  \n{"n":2}\n'), _positive, "count") == [1, 2]


@pytest.mark.parametrize("line", ["{not json", '{"m":1}', '{"n":-1}', '[1]', '{"n":"a"}'])
def test_rejection_carries_the_line(line):
    with pytest.raises(ParseError, match="^line 3: bad count record") as info:
        jsonl.read(io.StringIO(f'{{"n":1}}\n\n{line}\n'), _positive, "count")
    assert info.value.line == 3


@pytest.mark.parametrize("values, kind, message", [
    ([True, True, True, 0], "bool", "m[3] must be true or false, got 0"),
    (["a"] * 1000 + [7], "str", "m[1000] must be a string, got 7"),
    ("ab", "str", "m must be a list, got 'ab'"),
], ids=["mask", "long-list", "not-a-list"])
def test_array_names_the_first_bad_element(values, kind, message):
    with pytest.raises(DataError) as e:
        jsonl.array({"m": values}, "m", kind)
    assert str(e.value) == message
    assert jsonl.array({"m": [True, False]}, "m", "bool") == (True, False)
