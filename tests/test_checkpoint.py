"""On-disk model format: round trips, corruption detection, atomicity."""
import json
import math
import os

import numpy as np
import pytest

from breakscore.checkpoint import (
    MAGIC,
    N_CLASSES,
    Checkpoint,
    load_checkpoint,
    param_count,
    param_shapes,
    save_checkpoint,
)
from breakscore.exceptions import DataError
from breakscore.nn.bilstm import BiLstmConfig
from breakscore.nn.encoder import EncoderConfig
from breakscore.nn.functional import init_params
from breakscore.rngs import make_rng
from breakscore.vocab import Vocabulary


def make_ckpt(kind="rbtd", model="encoder"):
    """A checkpoint holding the parameters its config and kind imply."""
    if model == "encoder":
        cfg = EncoderConfig(vocab_size=10, d_model=8, n_heads=2, ffn_dim=16, max_len=8)
    else:
        cfg = BiLstmConfig(vocab_size=10, embed_dim=4, hidden_size=3)
    params = init_params(cfg.param_shapes(), make_rng(0, "init"))
    n_classes = N_CLASSES.get(kind, 3)
    rng = np.random.default_rng(0)
    params["head_w"] = rng.normal(size=(cfg.hidden_dim, n_classes)).astype(np.float32)
    params["head_b"] = rng.normal(size=n_classes).astype(np.float32)
    return Checkpoint(
        kind=kind,
        model_cfg=cfg,
        vocab=Vocabulary(word_to_id={"fox": 8, "runs": 9}, counts={"fox": 2, "runs": 1}),
        seed=42,
        params=params,
        init_from=None,
        extra={"note": 1},
    )


# Edits to an overall encoder checkpoint that leave a well-formed file whose
# stored model, class count or parameter table disagree with its kind and
# model_cfg.
UNDERIVABLE = {
    "n_classes": lambda m, p: m.update(n_classes=2),
    "missing-param": lambda m, p: p.pop("lnf_g"),
    "extra-param": lambda m, p: p.update(spare=np.zeros(3, np.float32)),
    "head_w-shape": lambda m, p: p.update(head_w=np.zeros((8, 2), np.float32)),
    "short-tok_emb": lambda m, p: p.update(tok_emb=p["tok_emb"][:-1]),
    "d_model": lambda m, p: m["model_cfg"].update(d_model=4),
    "unknown-model": lambda m, p: m.update(model="transformer"),
    "vocab_size": lambda m, p: (m["model_cfg"].update(vocab_size=9),
                                p.update(tok_emb=p["tok_emb"][:-1])),
}


class TestRoundTrip:
    def test_fields_and_params_survive(self, tmp_path):
        ckpt = make_ckpt()
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(ckpt, path)
        got = load_checkpoint(path)
        assert (got.kind, got.model, got.seed, got.n_classes) == ("rbtd", "encoder", 42, 2)
        assert got.model_cfg == ckpt.model_cfg
        assert got.vocab == ckpt.vocab
        assert got.extra == {"note": 1}
        assert sorted(got.params) == sorted(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(got.params[name], ckpt.params[name])

    def test_byte_identical_resave(self, tmp_path):
        for model in ("encoder", "bilstm"):
            p1, p2 = str(tmp_path / f"{model}1.pbrk"), str(tmp_path / f"{model}2.pbrk")
            save_checkpoint(make_ckpt(model=model), p1)
            save_checkpoint(load_checkpoint(p1), p2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read(), model

    def test_loaded_params_are_writable_and_separate(self, tmp_path):
        # The blob is read into one array and each parameter is a view of it.
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        params = load_checkpoint(path).params
        before = {name: p.copy() for name, p in params.items()}
        for p in params.values():
            assert p.flags.writeable
        params["head_b"] += 1.0
        for name, p in params.items():
            np.testing.assert_array_equal(p, before[name] + (name == "head_b"))

    def test_magic_line_leads_the_file(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        with open(path, "rb") as f:
            assert f.read(len(MAGIC)) == MAGIC


class TestCorruptionDetection:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        with open(path, "wb") as f:
            f.write(b"NOPE!\n{}")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        size = os.path.getsize(path)
        for short in (1, 5):
            with open(path, "r+b") as f:
                f.truncate(size - short)
            with pytest.raises(DataError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        with open(path, "ab") as f:
            f.write(b"x")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_kind_check(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(kind="overall"), path)
        with pytest.raises(DataError, match="kind"):
            load_checkpoint(path, expect_kind="rbtd")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("kind"),
            lambda m: m.pop("init_from"),
            lambda m: m.update(seed="42"),
            lambda m: m.update(model_cfg=[]),
            lambda m: m.update(model_cfg={"vocab_size": 10, "colour": 1}),
            lambda m: m.update(vocab=[7]),
            lambda m: m.update(params=[["a"]]),
            lambda m: m.update(params=[["a", [-5]]]),
            lambda m: m.update(params=[["a", [2**40, 2**40]]]),
            lambda m: m.update(seed=True),
            lambda m: m.update(init_from="anything"),
            lambda m: m.update(n_classes=float(m["n_classes"])),
            lambda m: m["vocab"].__setitem__(9, 7),
        ],
        ids=["no-kind", "no-init_from", "str-seed", "list-model_cfg", "unknown-cfg-key",
             "int-vocab-line", "short-param-entry", "negative-dim", "huge-shape", "bool-seed",
             "unknown-init_from", "float-n_classes", "int-vocab-line-9"],
    )
    def test_bad_metadata_field_names_path(self, tmp_path, edit):
        path = self._edited(tmp_path, edit)
        with pytest.raises(DataError, match="m.pbrk"):
            load_checkpoint(path, expect_kind="rbtd")

    @staticmethod
    def _edited(tmp_path, edit) -> str:
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        with open(path, "rb") as f:
            f.readline()
            meta, blob = json.loads(f.readline()), f.read()
        edit(meta)
        with open(path, "wb") as f:
            f.write(MAGIC + json.dumps(meta).encode() + b"\n" + blob)
        return path

    def test_deeply_nested_metadata_is_corrupt(self, tmp_path):
        # Nested past the recursion limit, json.loads raises RecursionError.
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        with open(path, "rb") as f:
            magic, meta, blob = f.readline(), f.readline(), f.read()
        deep = b"[" * 10_000 + b"]" * 10_000
        with open(path, "wb") as f:
            f.write(magic + meta.replace(b'{"note":1}', deep) + blob)
        with pytest.raises(DataError, match="m.pbrk: corrupt metadata"):
            load_checkpoint(path)

    def test_non_string_vocab_line_named_by_index(self, tmp_path):
        # The message names the one bad line, not the whole vocabulary.
        path = self._edited(tmp_path, lambda m: m["vocab"].__setitem__(9, 7))
        with pytest.raises(DataError) as e:
            load_checkpoint(path)
        assert str(e.value) == f"{path}: bad metadata: vocab[9] must be a string, got 7"

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(DataError):
            make_ckpt(kind="mystery")


class TestDerivedMetadata:
    """`model`, `n_classes` and the parameter table are written for the
    format; on load they must match what `kind` and `model_cfg` imply."""

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    @pytest.mark.parametrize("kind", sorted(N_CLASSES))
    def test_model_and_class_count_come_from_config_and_kind(self, tmp_path, kind, model):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(kind=kind, model=model), path)
        with open(path, "rb") as f:
            f.readline()
            meta = json.loads(f.readline())
        assert (meta["model"], meta["n_classes"]) == (model, N_CLASSES[kind])
        got = load_checkpoint(path)
        assert (got.model, got.n_classes) == (model, N_CLASSES[kind])

    @pytest.mark.parametrize("cfg", [
        EncoderConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=0, ffn_dim=16, max_len=8),
        EncoderConfig(vocab_size=13, d_model=6, n_heads=3, n_layers=3, ffn_dim=5, max_len=9),
        BiLstmConfig(vocab_size=10, embed_dim=4, hidden_size=3),
        BiLstmConfig(vocab_size=7, embed_dim=1, hidden_size=11),
    ], ids=["encoder-0-layers", "encoder-3-layers", "bilstm", "bilstm-wide"])
    @pytest.mark.parametrize("kind", sorted(N_CLASSES))
    def test_parameter_count_is_the_table_total(self, kind, cfg):
        assert param_count(kind, cfg) == sum(map(math.prod, param_shapes(kind, cfg).values()))

    @pytest.mark.parametrize("edit", list(UNDERIVABLE.values()), ids=list(UNDERIVABLE))
    def test_mismatch_is_a_data_error_naming_path(self, tmp_path, rewrite_checkpoint, edit):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(kind="overall"), path)
        load_checkpoint(path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(DataError, match="m.pbrk"):
            load_checkpoint(path)

    def test_huge_derived_shape_allocates_nothing(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        with open(path, "rb") as f:
            f.readline()
            meta, blob = json.loads(f.readline()), f.read()
        # A consistent table for a 2**40-row position embedding: only the
        # blob's size can refuse it, before anything is read. The message
        # counts pos_emb's 2**43 parameters and the 1,314 others.
        meta["model_cfg"]["max_len"] = 2**40
        meta["params"] = [[n, [2**40, 8] if n == "pos_emb" else s] for n, s in meta["params"]]
        with open(path, "wb") as f:
            f.write(MAGIC + json.dumps(meta).encode() + b"\n" + blob)
        with pytest.raises(DataError, match=f"truncated parameter blob: .* give {2**43 + 1314} "
                                            f"parameters, {4 * (2**43 + 1314)} bytes, but 5512 bytes"):
            load_checkpoint(path)


class TestAtomicity:
    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        assert os.listdir(tmp_path) == ["m.pbrk"]

    def test_overwrite_is_replace(self, tmp_path):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        before = os.path.getsize(path)
        save_checkpoint(make_ckpt(model="bilstm"), path)
        assert load_checkpoint(path).model == "bilstm"
        assert os.path.getsize(path) != before
