"""Fuzz every reader of user input: CTM, TSV, the sequence, labeled and rated
JSONL records, the vocabulary, config YAML and PBRK1 checkpoints.

The property is the exit-code contract: any input either parses or raises a
`BreakscoreError`, never another exception; an alignment reader gives only
finite word times; a JSONL reader raises a
`ParseError` that names the line, and each line it accepts holds the JSON
types its record declares: no `bool(x)` coercion of a break mask, no
string id or word that is not a JSON string, and no dataset record without a
token or with a token id that is not a JSON integer. Inputs mix raw text with
records close to valid ones, so both the tokenizer and the field checks are
reached.

`TestCliContract` then drives `cli.main` itself on such inputs: `finetune`
and `eval` on fuzzed rated JSONL, `ingest` and `score` on fuzzed CTM and TSV
files, and `score` on fuzzed checkpoint bytes.
"""
import dataclasses
import io
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from breakscore import alignment, cli, corruption, tasks
from breakscore.checkpoint import MAGIC, N_CLASSES, Checkpoint, load_checkpoint, save_checkpoint
from breakscore.config import _SECTION_TYPES, load_config
from breakscore.exceptions import BreakscoreError, ParseError
from breakscore.nn.encoder import EncoderConfig
from breakscore.nn.functional import init_params
from breakscore.rngs import make_rng
from breakscore.vocab import RESERVED_TOKENS, Vocabulary

fuzz = settings(max_examples=200, deadline=None)

numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "0x1", "1_0", "", "-0", "+.5"]),
)
tokens = st.one_of(st.text(max_size=6), numbers, st.sampled_from(["the", "fox", "u1", "#", ";;"]))
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.integers(), st.floats(), st.text(max_size=5)
)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)
small_ints = st.lists(st.integers(-2, 12), max_size=6)
flags = st.lists(st.booleans() | st.integers(0, 1), max_size=6)
classes = st.lists(st.integers(-1, 4), max_size=5)


def lines(line):
    """A document of lines drawn from `line` or from arbitrary text."""
    return st.lists(st.one_of(line, st.text()), max_size=8).map("\n".join)


def records(fields: dict):
    """JSON lines holding any subset of `fields`, each plausible or arbitrary."""
    record = st.fixed_dictionaries(
        {}, optional={k: st.one_of(v, json_any) for k, v in fields.items()}
    ).map(json.dumps)
    return lines(st.one_of(record, json_any.map(json.dumps)))


def parses_or_raises(read, *args):
    """What `read` returns, or None when it raised a `BreakscoreError`."""
    try:
        return read(*args)
    except BreakscoreError:
        return None


def has_finite_times(utts) -> bool:
    return all(math.isfinite(w.start) and math.isfinite(w.end) for u in utts for w in u.words)


def parses_or_rejects_a_line(read, text):
    try:
        read(io.StringIO(text))
    except ParseError as e:
        assert e.line is not None, e
        return []
    return [json.loads(line) for line in text.split("\n") if line.strip()]


def is_array_of(value, kind) -> bool:
    return isinstance(value, list) and all(type(v) is kind for v in value)


ctm_text = lines(st.one_of(
    st.tuples(st.sampled_from(["u1", "u2", "u3"]) | tokens, st.just("1") | tokens,
              numbers, numbers, st.sampled_from(["the", "fox"]) | tokens).map(" ".join),
    st.lists(tokens, max_size=7).map(" ".join),
))
tsv_text = lines(st.one_of(
    st.tuples(st.sampled_from(["u1", "u2", "u3"]) | tokens,
              st.sampled_from(["the", "fox"]) | tokens, numbers, numbers).map("\t".join),
    st.lists(tokens, max_size=6).map("\t".join),
))


class TestTextReaders:
    @fuzz
    @given(ctm_text)
    @example("u1 1 nan 0.4 carpet\nu1 1 0.5 inf chapel")
    @example("u1 1 0.0 0.4 carpet\nu1 1 1e308 1e308 chapel")
    def test_ctm(self, text):
        assert has_finite_times(parses_or_raises(alignment.parse_ctm, io.StringIO(text)) or [])

    @fuzz
    @given(tsv_text)
    @example("u1\tcarpet\t0.1\tinf")
    def test_tsv(self, text):
        assert has_finite_times(parses_or_raises(alignment.parse_tsv, io.StringIO(text)) or [])

    @fuzz
    @given(records({
        "id": st.text(max_size=4),
        "words": st.lists(st.sampled_from(["the", "fox", ""]) | st.text(max_size=4), max_size=5),
        "breaks": classes,
    }))
    @example('{"id":7,"words":["a","b"],"breaks":[0]}')
    @example('{"id":"a","words":[1,null],"breaks":[0]}')
    @example('{"id":"a","words":"ab","breaks":[0]}')
    def test_sequence_jsonl(self, text):
        for obj in parses_or_rejects_a_line(alignment.read_sequences, text):
            assert isinstance(obj["id"], str) and is_array_of(obj["words"], str), obj

    @fuzz
    @given(records({
        "id": st.text(max_size=4),
        "ids": small_ints,
        "break_mask": flags,
        "label": st.integers(-1, 2),
        "edits": st.lists(st.tuples(st.integers(-8, 8), st.integers(-1, 4), st.integers(-1, 4))
                          .map(list), max_size=3),
    }))
    @example('{"id":"a","ids":[1,2],"break_mask":[false,true],"label":1,"edits":[[5,1,2]]}')
    @example('{"id":"a","ids":[1,2],"break_mask":[false,true],"label":1,"edits":[[-2,1,2]]}')
    @example('{"id":"a","ids":[2,8,4,9],"break_mask":[0,"no",1,0],"label":0,"edits":[]}')
    @example('{"id":"a","ids":[],"break_mask":[],"label":0,"edits":[]}')
    @example('{"id":"a","ids":[true,8],"break_mask":[false,false],"label":0,"edits":[]}')
    @example('{"id":"a","ids":[2,8,4,9],"break_mask":[false,false,true,false],"label":"1",'
             '"edits":[[2,0,1]]}')
    @example('{"id":"a","ids":[2,8,4,9],"break_mask":[false,false,true,false],"label":true,'
             '"edits":[[2,0,1]]}')
    @example('{"id":"a","ids":[2,8,4,9],"break_mask":[false,false,true,false],"label":1,'
             '"edits":[[2,true,2]]}')
    def test_labeled_jsonl(self, text):
        for obj in parses_or_rejects_a_line(corruption.read_labeled, text):
            assert is_array_of(obj["break_mask"], bool), obj
            assert obj["ids"] and is_array_of(obj["ids"], int), obj
            assert all(is_array_of(edit, int) for edit in obj["edits"]), obj
            assert obj["label"] == int(bool(obj["edits"])) and type(obj["label"]) is int, obj

    @fuzz
    @given(records({
        "id": st.text(max_size=4),
        "ids": small_ints,
        "break_mask": flags,
        "overall": st.integers(-1, 4),
        "fine": classes,
    }))
    @example('{"id":"a","ids":[2,8,4,9],"break_mask":[0,"no",1,0]}')
    @example('{"id":"a","ids":[],"break_mask":[],"fine":[]}')
    @example('{"id":"a","ids":[2,true],"break_mask":[false,false]}')
    def test_rated_jsonl(self, text):
        for obj in parses_or_rejects_a_line(tasks.read_rated, text):
            assert is_array_of(obj["break_mask"], bool), obj
            assert obj["ids"] and is_array_of(obj["ids"], int), obj

    @fuzz
    @given(lines(st.tuples(
        st.integers(-2, 12).map(str) | numbers,
        st.sampled_from(RESERVED_TOKENS + ("fox", "the")) | tokens,
        numbers,
    ).map("\t".join)))
    @example("-9\tx\t0")
    def test_vocab(self, text):
        parses_or_raises(Vocabulary.from_lines, io.StringIO(text))


# -- file readers ------------------------------------------------------------

yaml_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 200), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=5),
    st.lists(st.integers(-1, 5) | st.floats(0, 1) | st.text(max_size=2), max_size=4),
)
_KEYS = sorted({f.name for cls, _ in _SECTION_TYPES.values() for f in dataclasses.fields(cls)}
               | {"bogus"})
config_mapping = st.dictionaries(
    st.sampled_from(sorted(_SECTION_TYPES) + ["seed", "bogus"]),
    st.one_of(yaml_leaf, st.dictionaries(st.sampled_from(_KEYS), yaml_leaf, max_size=4)),
    max_size=4,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, data: bytes) -> str:
    with open(path, "wb") as f:
        f.write(data)
    return str(path)


def _load_and_build(path):
    """Read a config and build every section, as the commands do."""
    cfg = load_config(path)
    for section in _SECTION_TYPES:
        runtime = {"vocab_size": 20} if section in ("encoder", "bilstm") else {}
        cfg.build(section, **runtime)


class TestConfigYaml:
    @fuzz
    @given(data=st.one_of(
        config_mapping.map(lambda m: yaml.safe_dump(m).encode("utf-8")),
        st.text().map(lambda t: t.encode("utf-8")),
        st.binary(max_size=40),
    ))
    @example(data=b"seed: .inf\n")
    @example(data=b"encoder:\n  n_heads: 0\n")
    @example(data=b"eval:\n  k: 1\n")
    @example(data=b"eval:\n  k: true\n")
    def test_config(self, workdir, data):
        parses_or_raises(_load_and_build, _write(workdir / "cfg.yaml", data))


def _valid_checkpoint_bytes(path, kind="fine") -> bytes:
    """A tiny encoder checkpoint of `kind` with the parameters its config implies."""
    cfg = EncoderConfig(vocab_size=10, d_model=4, n_heads=2, n_layers=1, ffn_dim=8, max_len=8)
    params = init_params(cfg.param_shapes(), make_rng(3, "init"))
    n_classes = N_CLASSES[kind]
    params["head_w"] = np.arange(4 * n_classes, dtype=np.float32).reshape(4, n_classes)
    params["head_b"] = np.ones(n_classes, np.float32)
    save_checkpoint(Checkpoint(
        kind=kind, model_cfg=cfg,
        vocab=Vocabulary(word_to_id={"fox": 8, "the": 9}, counts={"fox": 1}),
        seed=3, params=params,
    ), str(path))
    with open(path, "rb") as f:
        return f.read()


@st.composite
def checkpoint_bytes(draw, valid: bytes):
    """Bytes around a valid checkpoint: random, spliced, truncated, or with
    fuzzed metadata fields."""
    head, _, blob = valid[len(MAGIC):].partition(b"\n")
    meta = json.loads(head)
    kind = draw(st.sampled_from(["random", "magic", "splice", "truncate", "meta"]))
    if kind == "random":
        return draw(st.binary(max_size=60))
    if kind == "magic":
        return MAGIC + draw(st.binary(max_size=60))
    if kind == "splice":
        at = draw(st.integers(0, len(valid)))
        return valid[:at] + draw(st.binary(min_size=1, max_size=8)) + valid[at + 1:]
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    for key in draw(st.lists(st.sampled_from(sorted(meta)), max_size=3, unique=True)):
        if draw(st.booleans()):
            meta.pop(key)
        elif key == "model_cfg":
            meta[key] = draw(st.dictionaries(
                st.sampled_from(sorted(meta[key]) + ["hidden_size", "bogus"]),
                st.integers(-1, 4) | json_leaf, max_size=7))
        else:
            meta[key] = draw(st.sampled_from(["encoder", "bilstm"]) | st.integers(-1, 4) | json_any)
    return MAGIC + json.dumps(meta).encode("utf-8") + b"\n" + blob


class TestCheckpointBytes:
    @pytest.fixture(scope="class")
    def valid(self, workdir):
        return _valid_checkpoint_bytes(workdir / "valid.pbrk")

    def test_valid_bytes_load(self, workdir, valid):
        ckpt = load_checkpoint(_write(workdir / "copy.pbrk", valid))
        assert ckpt.kind == "fine" and ckpt.params["head_w"].shape == (4, 3)

    @fuzz
    @given(data=st.data())
    def test_pbrk1(self, workdir, valid, data):
        path = _write(workdir / "fuzz.pbrk", data.draw(checkpoint_bytes(valid)))
        parses_or_raises(load_checkpoint, path)

    def test_zero_heads_is_a_data_error(self, workdir, valid):
        head, _, blob = valid[len(MAGIC):].partition(b"\n")
        meta = json.loads(head)
        meta["model_cfg"]["n_heads"] = 0
        path = _write(workdir / "zero_heads.pbrk", MAGIC + json.dumps(meta).encode() + b"\n" + blob)
        with pytest.raises(BreakscoreError, match="n_heads"):
            load_checkpoint(path)


# -- the CLI's exit-code contract ---------------------------------------------

_TINY_CONFIG = (
    "encoder: {d_model: 4, n_heads: 1, n_layers: 1, ffn_dim: 8, max_len: 16}\n"
    "bilstm: {embed_dim: 4, hidden_size: 3}\n"
    "train: {batch_size: 3, epochs: 1, lr: 0.001}\n"
)
_VOCAB = [f"{i}\t{tok}\t0" for i, tok in enumerate(RESERVED_TOKENS)] + ["8\tfox\t2", "9\tthe\t1"]


@st.composite
def rated_record(draw):
    """One rated JSONL line whose fields agree with each other. Its ids may
    be empty or run past the encoder's 16 tokens; they stay inside the 10-id
    vocabulary in most records and reach past it in about one in ten."""
    n = draw(st.integers(0, 24))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    top_id = 10 if draw(st.integers(0, 9)) == 9 else 9
    return json.dumps({
        "id": draw(st.text(max_size=3)),
        "ids": draw(st.lists(st.integers(0, top_id), min_size=n, max_size=n)),
        "break_mask": mask,
        "overall": draw(st.integers(1, 3)),
        "fine": draw(st.lists(st.integers(1, 3), min_size=sum(mask), max_size=sum(mask))),
    })


rated_files = st.one_of(
    st.lists(rated_record(), max_size=7).map("\n".join),
    records({"id": st.text(max_size=4), "ids": small_ints, "break_mask": flags,
             "overall": st.integers(-1, 4), "fine": classes}),
)
train_commands = st.sampled_from([
    ("finetune", "--model", model) for model in ("encoder", "bilstm")
] + [("eval", "--k", "2", "--model", model) for model in ("scratch", "bilstm")])


class TestCliContract:
    """`cli.main` returns 0 or 2 on any input file and raises nothing. A tiny
    model trained for one epoch at lr 1e-3 cannot overflow, so exit 3 here
    would be a data fault reported as a numeric failure."""

    @pytest.fixture(scope="class")
    def cli_dir(self, workdir):
        (workdir / "vocab.tsv").write_text("\n".join(_VOCAB) + "\n")
        (workdir / "tiny.yaml").write_text(_TINY_CONFIG)
        (workdir / "a.ctm").write_text(
            "u1 1 0.00 0.30 fox\nu1 1 0.31 0.30 the\nu1 1 0.90 0.30 owl\nu2 1 0.0 0.2 the\n")
        return workdir

    @pytest.fixture(scope="class")
    def valid_ckpts(self, cli_dir):
        return {kind: _valid_checkpoint_bytes(cli_dir / f"valid-{kind}.pbrk", kind)
                for kind in ("overall", "fine")}

    @fuzz
    @given(command=train_commands, task=st.sampled_from(["overall", "fine"]), text=rated_files)
    @example(command=("finetune", "--model", "encoder"), task="overall",
             text='{"id":"a","ids":[],"break_mask":[],"overall":2,"fine":[]}')
    @example(command=("finetune", "--model", "bilstm"), task="overall",
             text='{"id":"a","ids":[2,8],"break_mask":[false,false],"overall":2,"fine":[]}\n'
                  '{"id":"b","ids":[],"break_mask":[],"overall":2,"fine":[]}')
    def test_finetune_and_eval_on_rated_files(self, cli_dir, command, task, text):
        data = _write(cli_dir / "rated.jsonl", text.encode("utf-8"))
        argv = [command[0], "--config", str(cli_dir / "tiny.yaml"), "--task", task,
                "--in", data, "--vocab", str(cli_dir / "vocab.tsv"), *command[1:]]
        if command[0] == "finetune":
            argv += ["--out", str(cli_dir / "out.pbrk")]
        assert cli.main(argv) in (0, 2)

    @fuzz
    @given(fmt=st.sampled_from(["ctm", "tsv"]), data=st.data())
    def test_ingest_on_alignment_files(self, cli_dir, fmt, data):
        text = data.draw(ctm_text if fmt == "ctm" else tsv_text)
        path = _write(cli_dir / f"fuzz.{fmt}", text.encode("utf-8"))
        argv = ["ingest", path, "--format", fmt, "--out", str(cli_dir / "seqs.jsonl")]
        assert cli.main(argv) in (0, 2)

    @fuzz
    @given(fmt=st.sampled_from(["ctm", "tsv"]), data=st.data())
    def test_score_on_alignment_files(self, cli_dir, valid_ckpts, fmt, data):
        text = data.draw(ctm_text if fmt == "ctm" else tsv_text)
        path = _write(cli_dir / f"fuzz.{fmt}", text.encode("utf-8"))
        argv = ["score", "--overall-ckpt", str(cli_dir / "valid-overall.pbrk"),
                "--fine-ckpt", str(cli_dir / "valid-fine.pbrk"), "--align", path, "--format", fmt]
        assert cli.main(argv) in (0, 2)

    @fuzz
    @given(data=st.data())
    def test_score_on_checkpoint_bytes(self, cli_dir, valid_ckpts, data):
        kind = data.draw(st.sampled_from(sorted(valid_ckpts)))
        path = _write(cli_dir / "fuzz.pbrk", data.draw(checkpoint_bytes(valid_ckpts[kind])))
        argv = ["score", f"--{kind}-ckpt", path, "--align", str(cli_dir / "a.ctm")]
        assert cli.main(argv) in (0, 2)
