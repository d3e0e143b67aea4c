"""On-disk model format: round trips, corruption detection, atomicity."""
import json
import os

import numpy as np
import pytest

from breakscore.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from breakscore.exceptions import DataError
from breakscore.nn import BiLstmConfig, EncoderConfig
from breakscore.vocab import Vocabulary


def make_ckpt(kind="rbtd", model="encoder"):
    rng = np.random.default_rng(0)
    params = {
        "b": rng.normal(size=(3, 4)).astype(np.float32),
        "a": rng.normal(size=(5,)).astype(np.float32),
        "head.w": rng.normal(size=(4, 2)).astype(np.float32),
    }
    cfg = (
        EncoderConfig(vocab_size=10, d_model=8, n_heads=2, ffn_dim=16)
        if model == "encoder"
        else BiLstmConfig(vocab_size=10)
    )
    return Checkpoint(
        kind=kind,
        model=model,
        model_cfg=cfg,
        vocab=Vocabulary(word_to_id={"fox": 8, "runs": 9}, counts={"fox": 2, "runs": 1}),
        seed=42,
        params=params,
        n_classes=2,
        init_from=None,
        extra={"note": 1},
    )


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
        ckpt = make_ckpt(model="bilstm")
        p1, p2 = str(tmp_path / "a.pbrk"), str(tmp_path / "b.pbrk")
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

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
        with open(path, "r+b") as f:
            f.truncate(size - 5)
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
        ],
        ids=["no-kind", "no-init_from", "str-seed", "list-model_cfg", "unknown-cfg-key",
             "int-vocab-line", "short-param-entry", "negative-dim", "huge-shape"],
    )
    def test_bad_metadata_field_names_path(self, tmp_path, edit):
        path = str(tmp_path / "m.pbrk")
        save_checkpoint(make_ckpt(), path)
        with open(path, "rb") as f:
            f.readline()
            meta, blob = json.loads(f.readline()), f.read()
        edit(meta)
        with open(path, "wb") as f:
            f.write(MAGIC + json.dumps(meta).encode() + b"\n" + blob)
        with pytest.raises(DataError, match="m.pbrk"):
            load_checkpoint(path, expect_kind="rbtd")

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(DataError):
            make_ckpt(kind="mystery")


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
