"""Command-line surface: exit codes, outputs, determinism."""
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml
from conftest import blas_threads, run_capped

from breakscore import corruption, metrics, shards, synth, tasks
from breakscore.cli import build_parser, main
from breakscore.checkpoint import load_checkpoint
from breakscore.config import _SECTION_TYPES, RunConfig
from breakscore.exceptions import DataError, NumericError
from breakscore.jsonl import check_fields
from breakscore.rngs import make_rng
from breakscore.vocab import CLS_ID, break_flags

CTM = """\
u1 1 0.00 0.40 Hello
u1 1 0.46 0.40 world
u2 1 0.00 0.30 good
u2 1 0.65 0.30 morning
"""


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def ctm_file(tmp_path):
    path = tmp_path / "a.ctm"
    path.write_text(CTM)
    return str(path)


def _readme_commands() -> list[list[str]]:
    """The arguments of each `breakscore ...` command in the README's sh blocks."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["breakscore"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_parse():
    # An option the parser no longer knows makes the README's walkthrough fail.
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "synth", "corrupt", "pretrain", "finetune", "eval", "ingest", "score"}
    unknown = []
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            unknown.append(shlex.join(["breakscore", *argv]))
    assert not unknown, f"README commands the parser rejects: {unknown}"


class TestIngest:
    def test_writes_jsonl(self, tmp_path, ctm_file):
        out = str(tmp_path / "seqs.jsonl")
        assert run("ingest", ctm_file, "--out", out) == 0
        lines = [json.loads(l) for l in open(out)]
        assert [l["id"] for l in lines] == ["u1", "u2"]
        assert lines[0]["breaks"] == [2]  # 60ms gap
        assert lines[1]["breaks"] == [3]  # 350ms gap

    def test_bad_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ctm"
        bad.write_text("only three fields\n")
        assert run("ingest", str(bad), "--out", str(tmp_path / "x")) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run("ingest", str(tmp_path / "nope.ctm"), "--out", str(tmp_path / "x")) == 2

    def test_usage_error_exits_1(self):
        assert run("ingest") == 1

    def test_duplicate_ids_across_files(self, tmp_path, ctm_file):
        out = str(tmp_path / "x.jsonl")
        assert run("ingest", ctm_file, ctm_file, "--out", out) == 2
        assert not os.path.exists(out)  # atomic: nothing written on failure


class TestSynth:
    def test_outputs_and_config_echo(self, tmp_path):
        out_dir = str(tmp_path / "data")
        assert run("synth", "--n-sentences", "30", "--seed", "5", "--out-dir", out_dir) == 0
        names = set(os.listdir(out_dir))
        assert {
            "native.jsonl", "vocab.tsv", "esl.jsonl", "esl_truth.jsonl",
            "stats.json", "synth.config.yaml",
        } <= names
        stats = json.loads(open(os.path.join(out_dir, "stats.json")).read())
        assert stats["native"]["clips"] == 30
        assert sum(stats["esl"]["overall"].values()) == 30
        echoed = yaml.safe_load(open(os.path.join(out_dir, "synth.config.yaml")))
        assert echoed["seed"] == 5

    def test_deterministic_across_runs(self, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (d1, d2):
            assert run("synth", "--n-sentences", "20", "--seed", "9", "--out-dir", d) == 0
        for name in ("native.jsonl", "esl.jsonl", "vocab.tsv"):
            assert open(os.path.join(d1, name)).read() == open(os.path.join(d2, name)).read()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("synth:\n  n_sentence: 5\n")
        assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "d")) == 2

    @pytest.mark.parametrize(
        "text", ["seed: [1\n", "eval: 5\n", "seed: abc\n", "eval:\n  k: abc\n",
                 "eval:\n  k: true\n", "encoder:\n  d_model: true\n",
                 "synth:\n  class_shape: 0.5\n", "seed: 5.9\n", "seed: true\n",
                 'seed: "7"\n', "synth: {seed: 3}\n", "train: {seed: 9}\n",
                 pytest.param("seed: " + "[" * 10_000 + "]" * 10_000 + "\n", id="deep")])
    def test_bad_config_exits_2_naming_file(self, tmp_path, caplog, text):
        # Malformed YAML, YAML nested past the recursion limit, a non-mapping
        # section, a non-integer seed and k, section values of the wrong type,
        # and a section seed: the global seed is the only one, and it is not
        # coerced.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "d")) == 2
        assert str(cfg) in caplog.text

    @pytest.mark.parametrize("key,value", [
        ("max_conjuncts", "0"), ("max_conjuncts", "3"), ("max_conjuncts", "-1"),
        ("max_conjuncts", "a"), ("max_conjuncts", "1.5"), ("max_conjuncts", "true"),
        ("max_conjuncts", "[1, 2]"),
        ("class_shape", "[a]"), ("class_shape", "[1.0]"), ("class_shape", "[0.5, 0.5]"),
        ("class_shape", "[0.5, 0.6, -0.1]"), ("class_shape", "[.nan, 0.5, 0.5]"),
        ("words_per_sentence", "[6, 14]"), ("words_per_sentence", "[1, 2, 3]"),
        ("words_per_sentence", "[a, b]"), ("words_per_sentence", "[0, 4]"),
        ("words_per_sentence", "[7, 6]"), ("error_rates", "{spurious: 0.5}"),
        ("fair_intensity", "0.35"), ("poor_intensity", "0.40"),
    ])
    def test_bad_synth_value_exits_2_naming_key(self, tmp_path, caplog, key, value):
        # Wrong tuple shapes and element types, values out of range, and keys
        # that no longer exist: `max_conjuncts` replaced `words_per_sentence`,
        # which is rejected in any form, and the corruption intensities are
        # constants.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"synth:\n  {key}: {value}\n")
        out_dir = tmp_path / "d"
        assert run("synth", "--config", str(cfg), "--n-sentences", "5", "--out-dir", str(out_dir)) == 2
        assert key in caplog.text
        assert not (out_dir / "native.jsonl").exists()

    def test_seeded_corpus_bytes(self, tmp_path):
        """`synth --seed 11` writes exactly these corpora. The digests were
        recorded under numpy 2.4.6, whose Generator streams they rest on."""
        assert run("synth", "--seed", "11", "--n-sentences", "200", "--out-dir", str(tmp_path)) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("native.jsonl", "esl.jsonl", "esl_truth.jsonl")}
        assert digests == {
            "native.jsonl": "1a4a4fa030711424f4b65e2d3a8a84c4ec9ebaf8752aceea67e9864a856fa476",
            "esl.jsonl": "dab767e68fddafc4f5273aa16c98651e81bccbb458f2f71b35bdf44bf8708a91",
            "esl_truth.jsonl": "487b7871916aa44290b49e1e135a6ecf016f4b8a9ca50185830a36d6a5c403a4",
        }

    def test_config_echo_round_trips(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("seed: 4\ntrain:\n  epochs: 2\neval:\n  k: 3\n")
        out_dir = tmp_path / "d"
        assert run("synth", "--config", str(cfg), "--n-sentences", "5", "--out-dir", str(out_dir)) == 0
        assert (out_dir / "synth.config.yaml").read_text() == (
            "bilstm: {}\ncorruption: {}\nencoder: {}\neval:\n  k: 3\nseed: 4\n"
            "synth:\n  n_sentences: 5\ntrain:\n  epochs: 2\n"
        )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    out_dir = str(root / "data")
    cfg = root / "cfg.yaml"
    cfg.write_text(
        "seed: 3\n"
        "synth:\n  n_sentences: 40\n"
        "encoder:\n  d_model: 16\n  n_heads: 2\n  n_layers: 1\n  ffn_dim: 32\n"
        "train:\n  batch_size: 16\n  epochs: 1\n"
    )
    assert run("synth", "--config", str(cfg), "--out-dir", out_dir) == 0
    vocab = os.path.join(out_dir, "vocab.tsv")
    native = os.path.join(out_dir, "native.jsonl")
    esl = os.path.join(out_dir, "esl.jsonl")
    pretrain_data = str(root / "pretrain.jsonl")
    assert run("corrupt", "--config", str(cfg), "--in", native, "--vocab", vocab,
               "--out", pretrain_data) == 0
    rbtd = str(root / "rbtd.pbrk")
    assert run("pretrain", "--config", str(cfg), "--in", pretrain_data, "--vocab", vocab,
               "--out", rbtd) == 0
    return {"root": root, "cfg": str(cfg), "vocab": vocab, "native": native,
            "esl": esl, "pretrain": pretrain_data, "rbtd": rbtd,
            "out_dir": out_dir}


class TestPipeline:
    def test_corrupt_ratio(self, pipeline):
        lines = [json.loads(l) for l in open(pipeline["pretrain"])]
        assert len(lines) == 160  # 40 originals + 3 copies each
        assert all(set(l) == {"id", "ids", "break_mask", "label", "edits"} for l in lines)

    def test_pretrain_checkpoint_loads(self, pipeline):
        ckpt = load_checkpoint(pipeline["rbtd"], expect_kind="rbtd")
        assert ckpt.model == "encoder" and ckpt.n_classes == 2
        assert os.path.exists(pipeline["rbtd"] + ".config.yaml")

    def test_finetune_and_score(self, pipeline, tmp_path):
        root = pipeline["root"]
        overall = str(root / "overall.pbrk")
        fine = str(root / "fine.pbrk")
        for task, out in (("overall", overall), ("fine", fine)):
            assert run("finetune", "--config", pipeline["cfg"], "--task", task,
                       "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                       "--init", pipeline["rbtd"], "--out", out) == 0
        assert load_checkpoint(overall).kind == "overall"
        ctm = tmp_path / "s.ctm"
        ctm.write_text("u1 1 0.0 0.4 the\nu1 1 0.41 0.3 fox\nu1 1 1.0 0.3 runs\n")
        assert run("score", "--overall-ckpt", overall, "--fine-ckpt", fine,
                   "--align", str(ctm)) == 0

    def test_eval_bilstm(self, pipeline, tmp_path):
        out = str(tmp_path / "eval.json")
        assert run("eval", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--model", "bilstm", "--k", "3", "--out", out) == 0
        report = json.loads(open(out).read())
        assert report["k"] == 3 and "macro_f1" in report
        assert os.path.exists(out + ".txt")
        # Each fold counts its predictions per class; the text pools them.
        for fold in report["folds"]:
            assert fold["predicted"] == [sum(column) for column in zip(*fold["confusion"])]
        pooled = [sum(fold["predicted"][c] for fold in report["folds"]) for c in range(3)]
        assert open(out + ".txt").read().splitlines()[-1] == \
            "Predicted: Poor {}, Fair {}, Great {}".format(*pooled)

    @pytest.mark.parametrize("task", ["fine", "overall"])
    @pytest.mark.parametrize("model", ["scratch", "bilstm"])
    def test_eval_predicts_each_fold_in_one_call(self, pipeline, monkeypatch, model, task):
        # Every fold runs in this process, so each of its predict calls is counted.
        monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
        name = "predict_finegrained" if task == "fine" else "predict_overall"
        predict, calls = getattr(tasks, name), []

        def counted(ckpt, seqs):
            calls.append(len(seqs))
            return predict(ckpt, seqs)

        monkeypatch.setattr(tasks, name, counted)
        assert run("eval", "--config", pipeline["cfg"], "--task", task, "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", model, "--k", "3") == 0
        assert len(calls) == 3
        assert sum(calls) == sum(1 for _ in open(pipeline["esl"]))

    def test_eval_k_is_echoed_and_reruns_identically(self, pipeline, tmp_path):
        # --k lands in the echoed config, so a run from that file alone repeats it.
        first, again = str(tmp_path / "r.json"), str(tmp_path / "again.json")
        args = ("eval", "--task", "overall", "--in", pipeline["esl"],
                "--vocab", pipeline["vocab"], "--model", "bilstm")
        assert run(*args, "--config", pipeline["cfg"], "--k", "3", "--out", first) == 0
        echoed = first + ".config.yaml"
        assert yaml.safe_load(open(echoed))["eval"] == {"k": 3}
        assert run(*args, "--config", echoed, "--out", again) == 0
        assert open(again, "rb").read() == open(first, "rb").read()

    def test_eval_against_ref(self, pipeline, tmp_path):
        out = str(tmp_path / "ref.json")
        assert run("eval", "--task", "overall", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "against-ref",
                   "--refs", pipeline["native"], "--k", "3", "--out", out) == 0
        report = json.loads(open(out).read())
        assert 0.0 <= report["accuracy"]["mean"] <= 1.0

    def test_eval_against_ref_fine_scores_every_break(self, pipeline, tmp_path):
        out = str(tmp_path / "ref_fine.json")
        assert run("eval", "--task", "fine", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "against-ref",
                   "--refs", pipeline["native"], "--k", "3", "--out", out) == 0
        report = json.loads(open(out).read())
        n_breaks = sum(sum(break_flags(json.loads(l)["ids"])) for l in open(pipeline["esl"]))
        assert sum(fold["total"] for fold in report["folds"]) == n_breaks

    def test_eval_against_ref_needs_refs(self, pipeline):
        assert run("eval", "--task", "overall", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "against-ref") == 2

    def test_eval_against_ref_reads_no_truth_file(self, pipeline):
        # The learner's breaks are the dataset record's break ids; eval reads no other file.
        truth = os.path.join(pipeline["out_dir"], "esl_truth.jsonl")
        assert run("eval", "--task", "overall", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "against-ref",
                   "--refs", pipeline["native"], "--truth", truth) == 1

    def test_eval_against_ref_reference_word_outside_vocab_exits_2(self, pipeline, tmp_path,
                                                                    caplog):
        # [UNK] would match any other unknown word, so such a reference is refused.
        records = [json.loads(l) for l in open(pipeline["native"])]
        records[1]["words"][0] = "zyzzyva"
        refs = tmp_path / "refs.jsonl"
        refs.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run("eval", "--task", "overall", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "against-ref",
                   "--refs", str(refs), "--k", "3") == 2
        assert f"{refs}: reference {records[1]['id']!r}: word 'zyzzyva' is not in the " \
               "vocabulary" in caplog.text

    @pytest.mark.parametrize("task", ["overall", "fine"])
    def test_eval_against_ref_word_mismatch_names_both_ids(self, pipeline, tmp_path, caplog,
                                                           task):
        # A learner record without its last word and break no longer encodes
        # its reference's words.
        records = [json.loads(l) for l in open(pipeline["esl"])]
        short = records[2]
        short["ids"], short["break_mask"] = short["ids"][:-2], short["break_mask"][:-2]
        short["fine"] = short["fine"][:-1]
        esl = tmp_path / "esl.jsonl"
        esl.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run("eval", "--task", task, "--in", str(esl), "--vocab", pipeline["vocab"],
                   "--model", "against-ref", "--refs", pipeline["native"], "--k", "3") == 2
        ref_id = short["id"].removeprefix("esl-")
        assert f"between test {short['id']!r} and reference {ref_id!r}" in caplog.text

    def test_finetune_vocab_mismatch_exits_2(self, pipeline, tmp_path):
        # An init checkpoint trained against a different vocabulary is refused.
        other = str(tmp_path / "other")
        assert run("synth", "--n-sentences", "10", "--seed", "77", "--out-dir", other) == 0
        assert run("finetune", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", os.path.join(other, "vocab.tsv"),
                   "--init", pipeline["rbtd"], "--out", str(tmp_path / "x.pbrk")) == 2

    def test_eval_numeric_failure_exits_3(self, pipeline, monkeypatch):
        # A non-finite loss inside a CV fold is a numeric failure, not a data error.
        from breakscore import tasks

        def nan_loss(logits, targets, weights=None):
            return float("nan"), np.zeros_like(logits)

        monkeypatch.setattr(tasks, "batched_cross_entropy", nan_loss)
        assert run("eval", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--model", "scratch", "--k", "3") == 3

    def test_eval_fine_without_overall_labels(self, pipeline, tmp_path):
        # Folds fall back to one stratum when items carry no overall rank.
        esl = tmp_path / "fine_only.jsonl"
        records = [json.loads(l) for l in open(pipeline["esl"])]
        esl.write_text("".join(
            json.dumps({k: v for k, v in r.items() if k != "overall"}) + "\n" for r in records))
        argv = ("eval", "--config", pipeline["cfg"], "--in", str(esl),
                "--vocab", pipeline["vocab"], "--model", "bilstm", "--k", "2")
        assert run(*argv, "--task", "fine") == 0
        assert run(*argv, "--task", "overall") == 2

    def test_checkpoint_without_kind_exits_2(self, pipeline, tmp_path):
        with open(pipeline["rbtd"], "rb") as f:
            magic, meta, blob = f.readline(), json.loads(f.readline()), f.read()
        del meta["kind"]
        ckpt = tmp_path / "nokind.pbrk"
        ckpt.write_bytes(magic + json.dumps(meta).encode() + b"\n" + blob)
        assert run("eval", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--model", str(ckpt), "--k", "3") == 2

    def test_score_reads_past_token_128_with_longer_max_len(self, pipeline, tmp_path, capsys):
        # A checkpoint trained at max_len 256 scores every break of a 100-word
        # utterance (199 tokens), not only those within the default 128.
        cfg = tmp_path / "long.yaml"
        cfg.write_text(open(pipeline["cfg"]).read().replace(
            "ffn_dim: 32\n", "ffn_dim: 32\n  max_len: 256\n"))
        fine = str(tmp_path / "fine256.pbrk")
        assert run("finetune", "--config", str(cfg), "--task", "fine",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--out", fine) == 0
        assert load_checkpoint(fine).model_cfg.max_len == 256
        n_words = 100
        ctm = tmp_path / "long.ctm"
        ctm.write_text("".join(
            f"u1 1 {0.5 * i:.2f} 0.40 the\n" for i in range(n_words)))
        capsys.readouterr()
        assert run("score", "--fine-ckpt", fine, "--align", str(ctm)) == 0
        break_lines = [l for l in capsys.readouterr().out.splitlines() if "[br" in l]
        assert len(break_lines) == n_words - 1

    def test_score_warns_when_utterance_exceeds_max_len(self, pipeline, tmp_path, capsys, caplog):
        # Checkpoints trained at max_len 16 read [CLS] and the first 15 tokens
        # of a 20-word utterance: 7 of its 19 breaks. The other 12 go unscored,
        # and the overall rank reads only those tokens; both are logged, while
        # standard output still lists only the scored breaks.
        cfg = tmp_path / "short.yaml"
        cfg.write_text(open(pipeline["cfg"]).read()
                       .replace("ffn_dim: 32\n", "ffn_dim: 32\n  max_len: 16\n"))
        ckpts = {task: str(tmp_path / f"{task}16.pbrk") for task in ("overall", "fine")}
        for task, ckpt in ckpts.items():
            assert run("finetune", "--config", str(cfg), "--task", task,
                       "--in", pipeline["esl"], "--vocab", pipeline["vocab"], "--out", ckpt) == 0
        ctm = tmp_path / "long.ctm"
        ctm.write_text("".join(f"long1 1 {0.5 * i:.2f} 0.40 the\n" for i in range(20))
                       + "short1 1 0.00 0.40 the\nshort1 1 0.50 0.40 fox\n")
        capsys.readouterr()
        caplog.clear()
        assert run("score", "--overall-ckpt", ckpts["overall"], "--fine-ckpt", ckpts["fine"],
                   "--align", str(ctm)) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if "[br" in l]) == 7 + 1
        assert "max_len" not in out
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2
        assert all("long1" in w and "40 tokens" in w and "max_len 16" in w for w in warnings)
        assert "overall checkpoint's" in warnings[0] and "break positions" not in warnings[0]
        assert "overall rank reads only the first 16 of them" in warnings[0]
        assert "fine checkpoint's" in warnings[1]
        assert "last 12 break positions" in warnings[1]

    def test_finetune_cuts_to_encoder_max_len(self, tmp_path, caplog):
        # Synth writes whole records, many longer than the encoder's 16 tokens:
        # training cuts them to what the encoder reads, with one warning,
        # instead of failing on the first long batch.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 3\n"
            "synth:\n  n_sentences: 20\n"
            "encoder:\n  d_model: 16\n  n_heads: 2\n  n_layers: 1\n  ffn_dim: 32\n  max_len: 16\n"
            "train:\n  batch_size: 16\n  epochs: 1\n"
        )
        out_dir = tmp_path / "data"
        assert run("synth", "--config", str(cfg), "--out-dir", str(out_dir)) == 0
        esl = [json.loads(l) for l in open(out_dir / "esl.jsonl")]
        n_long = sum(len(s["ids"]) > 16 for s in esl)
        assert n_long > 0
        caplog.clear()
        assert run("finetune", "--config", str(cfg), "--task", "fine",
                   "--in", str(out_dir / "esl.jsonl"), "--vocab", str(out_dir / "vocab.tsv"),
                   "--out", str(tmp_path / "fine.pbrk")) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert f"{n_long} of {len(esl)} fine samples" in warnings[0]
        assert "max_len 16" in warnings[0]

    def test_eval_fine_scores_the_breaks_within_encoder_max_len(self, pipeline, tmp_path,
                                                                 caplog):
        # Each fold's encoder reads 16 tokens, so the report holds the breaks
        # among them. The items are cut once, before the folds, so one warning
        # says how many reach past them.
        cfg = tmp_path / "short.yaml"
        cfg.write_text(open(pipeline["cfg"]).read()
                       .replace("ffn_dim: 32\n", "ffn_dim: 32\n  max_len: 16\n"))
        out = tmp_path / "eval.json"
        caplog.clear()
        assert run("eval", "--config", str(cfg), "--task", "fine", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "scratch", "--k", "3",
                   "--out", str(out)) == 0
        esl = [json.loads(l) for l in open(pipeline["esl"])]
        n_long = sum(len(s["ids"]) > 16 for s in esl)
        assert n_long > 0
        folds = json.loads(out.read_text())["folds"]
        assert len(folds) == 3
        assert sum(f["total"] for f in folds) == sum(sum(s["break_mask"][:16]) for s in esl)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"{n_long} of {len(esl)} fine samples are longer than max_len 16 "
                            "and are cut to it"]

    def test_train_max_len_is_an_unknown_key(self, pipeline, tmp_path, caplog):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("train:\n  max_len: 64\n")
        assert run("finetune", "--config", str(cfg), "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--out", str(tmp_path / "x.pbrk")) == 2
        assert "unknown key(s) in [train]: ['max_len']" in caplog.text


class TestConfigValueTypes:
    @pytest.mark.parametrize("entry", ["batch_size: abc", "lr: abc", "epochs: 2.5"])
    def test_bad_train_value_exits_2(self, pipeline, tmp_path, caplog, entry):
        # A value of the wrong type is a data error naming file, section and
        # key, not a TypeError from deep inside training.
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"train:\n  {entry}\n")
        assert run("finetune", "--config", str(cfg), "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--out", str(tmp_path / "x.pbrk")) == 2
        key = entry.split(":")[0]
        assert f"{cfg}: [train] {key} must be" in caplog.text

    def test_int_accepted_as_float_and_list_as_tuple(self, tmp_path):
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(
            "train:\n  lr: 1\nsynth:\n  n_sentences: 5\n  class_shape: [0.2, 0.3, 0.5]\n")
        assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "d")) == 0

    @pytest.mark.parametrize("make", [
        lambda: tasks.TrainConfig(batch_size=2.5),
        lambda: metrics.EvalConfig(k=2.5),
        lambda: corruption.CorruptionConfig(copies_per_original=1.5),
        lambda: synth.SynthConfig(n_sentences=True),
    ], ids=["train-batch_size", "eval-k", "corruption-copies", "synth-n_sentences"])
    def test_python_callers_meet_the_same_rule(self, make):
        with pytest.raises(DataError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("cls", [RunConfig, *_SECTION_TYPES.values()],
                             ids=lambda cls: cls.__name__)
    def test_rule_covers_every_field_type(self, cls):
        # A field of a type the rule does not know (a set, say; bool and str
        # are known) fails here with a KeyError, not in a user's YAML.
        # RunConfig's sections are mappings checked key by key; its seed is
        # the one value.
        names = ["seed"] if cls is RunConfig else [f.name for f in dataclasses.fields(cls)]
        for name in names:
            with pytest.raises(DataError, match=f"^{name} must be"):
                check_fields(cls, {name: None})


# Tiny synth -> corrupt -> pretrain runs at edge values: (config sections over
# _TINY, --n-sentences, native lines kept or None for all, --seed or None, and
# the command that ends the run with its exit code).
_TINY = {"encoder": "{d_model: 4, n_heads: 1, n_layers: 1, ffn_dim: 8, max_len: 16}",
         "train": "{batch_size: 8, epochs: 1, lr: 0.001}"}
_EDGE_RUNS = {
    "class-shape-all-poor": ({"synth": "{class_shape: [1, 0, 0]}"}, 6, None, None,
                             ("pretrain", 0)),
    # Every sample is an original, so there is nothing to discriminate.
    "replace-prob-0": ({"corruption": "{replace_prob: 0}"}, 6, None, None, ("pretrain", 2)),
    "replace-prob-1": ({"corruption": "{replace_prob: 1}"}, 6, None, None, ("pretrain", 0)),
    "copies-per-original-0": ({"corruption": "{copies_per_original: 0}"}, 6, None, None,
                              ("pretrain", 2)),
    "one-sentence": ({}, 1, None, None, ("pretrain", 0)),
    "empty-corpus": ({}, 6, 0, None, ("corrupt", 2)),
    "n-layers-0": ({"encoder": "{d_model: 4, n_heads: 1, n_layers: 0, ffn_dim: 8}"}, 6, None,
                   None, ("pretrain", 0)),
    "n-layers--1": ({"encoder": "{d_model: 4, n_heads: 1, n_layers: -1, ffn_dim: 8}"}, 6, None,
                    None, ("pretrain", 2)),
    "max-len-4": ({"encoder": "{d_model: 4, n_heads: 1, n_layers: 1, ffn_dim: 8, max_len: 4}"},
                  6, None, None, ("pretrain", 0)),
    # No break lies within two tokens, so every sample reads as an original.
    "max-len-2": ({"encoder": "{d_model: 4, n_heads: 1, n_layers: 1, ffn_dim: 8, max_len: 2}"},
                  6, None, None, ("pretrain", 2)),
    "seed-minus-1": ({}, 6, None, -1, ("pretrain", 0)),
    "seed-minus-5": ({}, 6, None, -5, ("pretrain", 0)),
    "seed-10e23": ({}, 6, None, 10**23, ("pretrain", 0)),
    "lr-1e30": ({"train": "{batch_size: 8, epochs: 1, lr: 1.0e+30}"}, 6, None, None,
                ("pretrain", 3)),
}


class TestPipelineEdgeValues:
    """`synth`, `corrupt` and `pretrain` through `main` at edge config values and
    corpus sizes: each run ends in its documented exit code and raises nothing."""

    @pytest.mark.parametrize("name", sorted(_EDGE_RUNS))
    def test_run_ends_in_its_exit_code(self, tmp_path, name):
        sections, n_sentences, keep, seed, want = _EDGE_RUNS[name]
        cfg = tmp_path / "c.yaml"
        cfg.write_text("".join(f"{k}: {v}\n" for k, v in {**_TINY, **sections}.items()))
        common = ["--config", str(cfg)] + ([] if seed is None else ["--seed", str(seed)])
        native, vocab = tmp_path / "native.jsonl", str(tmp_path / "vocab.tsv")
        got = ("synth", run("synth", *common, "--n-sentences", str(n_sentences),
                            "--out-dir", str(tmp_path)))
        if keep is not None:
            native.write_text("".join(native.read_text().splitlines(keepends=True)[:keep]))
        data = ["--in", str(native), "--vocab", vocab, "--out", str(tmp_path / "pre.jsonl")]
        if got[1] == 0:
            got = ("corrupt", run("corrupt", *common, *data))
        if got[1] == 0:
            got = ("pretrain", run("pretrain", *common, "--in", str(tmp_path / "pre.jsonl"),
                                   "--vocab", vocab, "--out", str(tmp_path / "r.pbrk")))
        assert got == want
        assert (tmp_path / "r.pbrk").exists() == (want == ("pretrain", 0))

    def test_diverging_runs_print_no_numpy_warnings(self, tmp_path):
        # At lr 1e30 the first step overflows. Pretrain stops at the non-finite
        # loss (exit 3); a Bi-LSTM finetune trains on (exit 0), its later steps
        # reading overflowed weights. Neither the parent nor the forked shard
        # worker (batches of 16 and 64 rows are split) prints numpy's
        # RuntimeWarnings.
        cfg = tmp_path / "c.yaml"
        cfg.write_text("synth: {n_sentences: 60}\n"
                       "encoder: {d_model: 16, n_heads: 2, n_layers: 1, ffn_dim: 32}\n"
                       "train: {epochs: 1, lr: 1.0e+30}\n")
        d = tmp_path / "d"
        assert run("synth", "--config", str(cfg), "--out-dir", str(d)) == 0
        data = ["--vocab", str(d / "vocab.tsv"), "--config", str(cfg)]
        assert run("corrupt", "--in", str(d / "native.jsonl"), *data,
                   "--out", str(d / "pre.jsonl")) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for argv, code in (
            (["pretrain", "--in", str(d / "pre.jsonl"), "--out", str(d / "r.pbrk")], 3),
            (["finetune", "--model", "bilstm", "--task", "fine", "--batch-size", "16",
              "--in", str(d / "esl.jsonl"), "--out", str(d / "f.pbrk")], 0),
        ):
            proc = subprocess.run([sys.executable, "-m", "breakscore.cli", *argv, *data],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == code, proc.stderr
            assert "Warning" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("n", [10**23, 2**63, -(10**23), 0])
    def test_huge_n_sentences_validated_without_generating(self, tmp_path, monkeypatch, n):
        # The count is checked when the config is built; a valid one is handed
        # to generation as given, which is stopped here before it runs.
        built = []

        def stop(scfg):
            built.append(scfg.n_sentences)
            raise DataError("stopped before generating")

        monkeypatch.setattr(synth, "generate_native", stop)
        assert run("synth", "--n-sentences", str(n), "--out-dir", str(tmp_path)) == 2
        assert built == ([n] if n >= 1 else [])


def _first_line(path):
    with open(path) as f:
        return f.readline()


# Per dataset file kind: the command that reads it, given the pipeline and the
# bad file, and a line 2 that parses as JSON or text but breaks the record's
# contract.
_BAD_LINE_2 = {
    "rated": (lambda p, bad: ("eval", "--task", "overall", "--in", bad, "--vocab", p["vocab"],
                              "--model", "bilstm"),
              "esl", '{"id":"b","ids":[2,8,4],"break_mask":[false,false]}\n'),
    "rated-mask-type": (lambda p, bad: ("eval", "--task", "overall", "--in", bad,
                                        "--vocab", p["vocab"], "--model", "bilstm"),
                        "esl", '{"id":"b","ids":[2,8,4],"break_mask":[0,1,0],"overall":1}\n'),
    "rated-ids-type": (lambda p, bad: ("eval", "--task", "overall", "--in", bad,
                                       "--vocab", p["vocab"], "--model", "bilstm"),
                       "esl", '{"id":"b","ids":[2,true],"break_mask":[false,false],"overall":1}\n'),
    "rated-overall-type": (lambda p, bad: ("finetune", "--config", p["cfg"], "--task", "overall",
                                           "--in", bad, "--vocab", p["vocab"],
                                           "--out", str(p["root"] / "x.pbrk")),
                           "esl", '{"id":"b","ids":[2,8,4,9],"break_mask":[false,false,true,'
                                  'false],"overall":true,"fine":[3]}\n'),
    "rated-fine-type": (lambda p, bad: ("eval", "--task", "fine", "--k", "2", "--in", bad,
                                        "--vocab", p["vocab"], "--model", "bilstm"),
                        "esl", '{"id":"b","ids":[2,8,4,9],"break_mask":[false,false,true,'
                               'false],"overall":3,"fine":[2.0]}\n'),
    # The ids say where the breaks are; a mask that flags a word is bad data.
    "rated-mask-on-word": (lambda p, bad: ("finetune", "--config", p["cfg"], "--task", "overall",
                                           "--in", bad, "--vocab", p["vocab"],
                                           "--out", str(p["root"] / "x.pbrk")),
                           "esl", '{"id":"b","ids":[2,8,4,9],"break_mask":[false,true,false,'
                                  'false],"overall":1}\n'),
    "labeled": (lambda p, bad: ("pretrain", "--in", bad, "--vocab", p["vocab"],
                                "--out", str(p["root"] / "x.pbrk")),
                "pretrain",
                '{"id":"b","ids":[2,8],"break_mask":[false,false],"label":1,"edits":[]}\n'),
    "labeled-mask-type": (lambda p, bad: ("pretrain", "--in", bad, "--vocab", p["vocab"],
                                          "--out", str(p["root"] / "x.pbrk")),
                          "pretrain",
                          '{"id":"b","ids":[2,8,4],"break_mask":[0,"no",0],"label":0,"edits":[]}\n'),
    "labeled-label-type": (lambda p, bad: ("pretrain", "--in", bad, "--vocab", p["vocab"],
                                           "--out", str(p["root"] / "x.pbrk")),
                           "pretrain", '{"id":"b","ids":[2,8,5,9],"break_mask":[false,false,true,'
                                       'false],"label":"1","edits":[[2,0,1]]}\n'),
    "labeled-edit-type": (lambda p, bad: ("pretrain", "--in", bad, "--vocab", p["vocab"],
                                          "--out", str(p["root"] / "x.pbrk")),
                          "pretrain", '{"id":"b","ids":[2,8,6,9],"break_mask":[false,false,true,'
                                      'false],"label":1,"edits":[[2,true,2]]}\n'),
    "labeled-mask-on-word": (lambda p, bad: ("pretrain", "--config", p["cfg"], "--in", bad,
                                             "--vocab", p["vocab"], "--out", str(p["root"] / "x.pbrk")),
                             "pretrain", '{"id":"b","ids":[2,8,4,9],"break_mask":[false,true,false,'
                                         'false],"label":0,"edits":[]}\n'),
    # Id 4 is br0, so no edit can have made it br1. An original follows, so
    # that the file would train if line 2 were read.
    "labeled-edit-disagrees": (lambda p, bad: ("pretrain", "--config", p["cfg"], "--in", bad,
                                               "--vocab", p["vocab"],
                                               "--out", str(p["root"] / "x.pbrk")),
                               "pretrain", '{"id":"b","ids":[2,8,4,9],"break_mask":[false,false,'
                                           'true,false],"label":1,"edits":[[2,0,1]]}\n'
                                           '{"id":"c","ids":[2,8,4,9],"break_mask":[false,false,'
                                           'true,false],"label":0,"edits":[]}\n'),
    "sequence": (lambda p, bad: ("corrupt", "--in", bad, "--vocab", p["vocab"],
                                 "--out", str(p["root"] / "x.jsonl")),
                 "native", '{"id":"b","words":["a","b"],"breaks":[]}\n'),
    "sequence-id-type": (lambda p, bad: ("corrupt", "--in", bad, "--vocab", p["vocab"],
                                         "--out", str(p["root"] / "x.jsonl")),
                         "native", '{"id":7,"words":["a","b"],"breaks":[0]}\n'),
    "sequence-word-type": (lambda p, bad: ("corrupt", "--in", bad, "--vocab", p["vocab"],
                                           "--out", str(p["root"] / "x.jsonl")),
                           "native", '{"id":"b","words":["a",null],"breaks":[0]}\n'),
    "sequence-break-bool": (lambda p, bad: ("corrupt", "--in", bad, "--vocab", p["vocab"],
                                            "--out", str(p["root"] / "x.jsonl")),
                            "native", '{"id":"b","words":["a","b"],"breaks":[true]}\n'),
    "sequence-break-float": (lambda p, bad: ("corrupt", "--in", bad, "--vocab", p["vocab"],
                                             "--out", str(p["root"] / "x.jsonl")),
                             "native", '{"id":"b","words":["a","b"],"breaks":[0.0]}\n'),
    # Nested past the recursion limit: json.loads raises RecursionError.
    "sequence-deep": (lambda p, bad: ("corrupt", "--in", bad, "--vocab", p["vocab"],
                                      "--out", str(p["root"] / "x.jsonl")),
                      "native", "[" * 10_000 + "]" * 10_000 + "\n"),
    "vocab": (lambda p, bad: ("corrupt", "--in", p["native"], "--vocab", bad,
                              "--out", str(p["root"] / "x.jsonl")),
              "vocab", "1\t[CLS]\t0\n"),
    "vocab-repeated-token": (lambda p, bad: ("corrupt", "--in", p["native"], "--vocab", bad,
                                             "--out", str(p["root"] / "x.jsonl")),
                             None, "8\tfox\t2\n9\tfox\t1\n"),
    "vocab-id-gap": (lambda p, bad: ("corrupt", "--in", p["native"], "--vocab", bad,
                                     "--out", str(p["root"] / "x.jsonl")),
                     None, "8\tfox\t2\n10\tthe\t1\n"),
    "ctm": (lambda p, bad: ("ingest", bad, "--out", str(p["root"] / "x.jsonl")),
            None, "u1 1 0.00 0.40 hello\nu1 1 0.50 -0.40 world\n"),
    "ctm-non-finite": (lambda p, bad: ("ingest", bad, "--out", str(p["root"] / "x.jsonl")),
                       None, "u1 1 0.00 0.40 hello\nu1 1 nan 0.40 world\n"),
    "tsv-non-finite": (lambda p, bad: ("ingest", "--format", "tsv", bad,
                                       "--out", str(p["root"] / "x.jsonl")),
                       None, "u1\thello\t0.00\t0.40\nu1\tworld\t0.50\tinf\n"),
}


class TestBadInputFiles:
    @pytest.mark.parametrize("kind", sorted(_BAD_LINE_2))
    def test_bad_line_names_file_and_line(self, pipeline, tmp_path, caplog, kind):
        argv, good_from, line2 = _BAD_LINE_2[kind]
        bad = str(tmp_path / f"bad_{kind}")
        with open(bad, "w") as f:
            f.write((_first_line(pipeline[good_from]) if good_from else "") + line2)
        caplog.clear()
        assert run(*argv(pipeline, bad)) == 2
        assert f"{bad}: line 2: " in caplog.text

    def test_non_utf8_input_names_file(self, pipeline, tmp_path, caplog):
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(_first_line(pipeline["esl"]).encode() + b'{"id":"caf\xe9"}\n')
        assert run("finetune", "--task", "overall", "--in", str(bad),
                   "--vocab", pipeline["vocab"], "--out", str(tmp_path / "x.pbrk")) == 2
        assert f"{bad}: not UTF-8 text" in caplog.text

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_empty_training_input_exits_2(self, pipeline, tmp_path, model):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        assert run("finetune", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", str(empty), "--vocab", pipeline["vocab"], "--model", model,
                   "--out", str(tmp_path / "x.pbrk")) == 2

    def test_token_id_beyond_the_vocabulary_names_file_and_sample(self, pipeline, tmp_path,
                                                                  caplog):
        # The vocabulary without its last word: some learner items still hold its id.
        short_vocab = tmp_path / "vocab.tsv"
        with open(pipeline["vocab"]) as f:
            short_vocab.write_text("".join(f.readlines()[:-1]))
        assert run("finetune", "--task", "overall", "--in", pipeline["esl"],
                   "--vocab", str(short_vocab), "--out", str(tmp_path / "x.pbrk")) == 2
        assert f"{pipeline['esl']}: sample " in caplog.text
        assert "is outside the vocabulary of size" in caplog.text

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval"])
    def test_missing_out_dir_exits_2_before_training(self, pipeline, tmp_path, monkeypatch,
                                                     caplog, command):
        def must_not_train(*args, **kwargs):
            raise AssertionError(f"{command} trained although --out cannot be written")

        monkeypatch.setattr(tasks, "pretrain_rbtd", must_not_train)
        monkeypatch.setattr(tasks, "finetune", must_not_train)
        out = str(tmp_path / "missing" / "x.pbrk")
        argv = {
            "pretrain": ("--in", pipeline["pretrain"]),
            "finetune": ("--task", "overall", "--in", pipeline["esl"]),
            "eval": ("--task", "overall", "--in", pipeline["esl"], "--model", "bilstm"),
        }[command]
        assert run(command, "--config", pipeline["cfg"], *argv, "--vocab", pipeline["vocab"],
                   "--out", out) == 2
        assert f"{out}: output directory {tmp_path / 'missing'} does not exist" in caplog.text

    @pytest.mark.parametrize("command", ["corrupt", "ingest"])
    def test_missing_out_dir_exits_2_before_any_work(self, pipeline, tmp_path, monkeypatch,
                                                     caplog, ctm_file, command):
        def must_not_corrupt(*args, **kwargs):
            raise AssertionError("corrupt built its dataset although --out cannot be written")

        monkeypatch.setattr(corruption, "build_pretrain_dataset", must_not_corrupt)
        out = str(tmp_path / "missing" / "z.jsonl")
        argv = {
            "corrupt": ("corrupt", "--config", pipeline["cfg"], "--in", pipeline["native"],
                        "--vocab", pipeline["vocab"]),
            "ingest": ("ingest", ctm_file),
        }[command]
        assert run(*argv, "--out", out) == 2
        assert f"{out}: output directory {tmp_path / 'missing'} does not exist" in caplog.text
        assert ".tmp" not in caplog.text

    @pytest.mark.parametrize("command, model", [
        ("finetune", "encoder"), ("finetune", "bilstm"), ("pretrain", None),
    ], ids=["finetune-encoder", "finetune-bilstm", "pretrain"])
    def test_record_without_tokens_names_file_and_line(self, pipeline, tmp_path, caplog,
                                                       command, model):
        # A record whose ids hold no token, after good ones. At batch size 1
        # it would be a batch of its own, with nothing to pad.
        if command == "finetune":
            good = open(pipeline["esl"]).readlines()[:3]
            empty = '{"id":"e","ids":[],"break_mask":[],"overall":2,"fine":[]}\n'
            argv = ("--task", "overall", "--model", model, "--batch-size", "1")
        else:
            good = open(pipeline["pretrain"]).readlines()
            empty = '{"id":"e","ids":[],"break_mask":[],"label":0,"edits":[]}\n'
            argv = ()
        bad = tmp_path / "empty_ids.jsonl"
        bad.write_text("".join(good) + empty)
        caplog.clear()
        assert run(command, "--config", pipeline["cfg"], "--in", str(bad),
                   "--vocab", pipeline["vocab"], "--out", str(tmp_path / "x.pbrk"), *argv) == 2
        assert f"{bad}: line {len(good) + 1}: " in caplog.text
        assert "ids holds no token" in caplog.text

    @pytest.mark.parametrize("command, argv, config, message", [
        pytest.param("finetune", ("--lr", "nan"), "", "lr must be", id="lr-nan"),
        pytest.param("finetune", ("--lr", "0"), "", "lr must be", id="lr-0"),
        pytest.param("finetune", ("--lr", "inf"), "", "lr must be", id="lr-inf"),
        *(pytest.param(command, (flag, value), "", "batch_size and epochs must be >= 1",
                       id=f"{command}-{flag[2:]}-{value}")
          for command in ("finetune", "pretrain")
          for flag in ("--epochs", "--batch-size") for value in ("0", "-1")),
        *(pytest.param("eval", ("--k", value), "", "k must be >= 2", id=f"eval-k-{value}")
          for value in ("0", "1", "-1")),
    ])
    def test_bad_train_setting_exits_2_before_training(self, pipeline, tmp_path, caplog,
                                                       command, argv, config, message):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(config)
        out = tmp_path / "x.out"
        data = {"finetune": ("--task", "overall", "--in", pipeline["esl"]),
                "pretrain": ("--in", pipeline["pretrain"]),
                "eval": ("--task", "overall", "--model", "scratch", "--in", pipeline["esl"])}
        assert run(command, "--config", str(cfg), *data[command], "--vocab", pipeline["vocab"],
                   "--out", str(out), *argv) == 2
        assert not out.exists()
        assert message in caplog.text


    @pytest.mark.parametrize("model, config, message", [
        ("encoder", "encoder:\n  d_model: -4\n  n_heads: 2\n", "d_model must be >= 1"),
        ("encoder", "encoder:\n  ffn_dim: 0\n", "ffn_dim must be >= 1"),
        ("encoder", "encoder:\n  dropout_prob: 1.0\n", "dropout_prob must be in [0, 1)"),
        ("encoder", "encoder:\n  dropout_prob: -0.5\n", "dropout_prob must be in [0, 1)"),
        ("encoder", "encoder:\n  max_len: 0\n", "max_len must be >= 2"),
        ("encoder", "encoder:\n  max_len: 1\n", "max_len must be >= 2"),
        ("bilstm", "bilstm:\n  embed_dim: -1\n", "embed_dim must be >= 1"),
    ], ids=["encoder-d_model", "encoder-ffn_dim", "encoder-dropout-1", "encoder-dropout-neg",
            "encoder-max_len-0", "encoder-max_len-1", "bilstm-embed_dim"])
    def test_bad_model_setting_exits_2_before_training(self, pipeline, tmp_path, caplog,
                                                       model, config, message):
        # Each is a data error found before any training starts.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(config)
        assert run("finetune", "--config", str(cfg), "--task", "overall", "--model", model,
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--out", str(tmp_path / "x.pbrk")) == 2
        assert message in caplog.text


def _run_capped(*argv):
    """`main(argv)` under `run_capped`'s address-space cap."""
    return run_capped("from breakscore.cli import main; sys.exit(main(sys.argv[1:]))", *argv)


class TestModelSizes:
    """A model too large to hold exits 2 with a message naming its config and
    the bytes or parameters it needs, before its table of parameter shapes is
    built: 10**8 layers would be a table of 1.6 billion entries. Each probe
    runs under an address-space cap, never without it."""

    @pytest.mark.parametrize("command, model, config, message", [
        ("pretrain", "encoder", "encoder: {n_layers: 100000000}", "n_layers=100000000"),
        ("finetune", "bilstm", "bilstm: {hidden_size: 1000000000000}",
         "hidden_size=1000000000000"),
        ("finetune", "encoder", "encoder: {d_model: 4000000}", "d_model=4000000"),
        ("finetune", "encoder", "encoder: {ffn_dim: 1000000000000}", "ffn_dim=1000000000000"),
        ("finetune", "encoder", "encoder: {max_len: 1000000000000}", "max_len=1000000000000"),
    ], ids=["n_layers", "bilstm-hidden_size", "d_model", "ffn_dim", "max_len"])
    def test_oversized_model_exits_2_naming_config_and_bytes(self, pipeline, tmp_path, command,
                                                             model, config, message):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(config + "\n")
        data = {"pretrain": ("--in", pipeline["pretrain"]),
                "finetune": ("--task", "fine", "--model", model, "--in", pipeline["esl"])}
        code, err = _run_capped(command, "--config", str(cfg), *data[command],
                                "--vocab", pipeline["vocab"], "--out", str(tmp_path / "x.pbrk"))
        assert code == 2, err
        assert re.search(r"cannot map \d+ bytes for the parameters and gradients of "
                         rf"\w+Config\(.*{message}", err), err
        assert not (tmp_path / "x.pbrk").exists()

    def test_checkpoint_claiming_huge_model_exits_2_naming_count(self, pipeline, tmp_path,
                                                                 rewrite_checkpoint):
        path = tmp_path / "huge.pbrk"
        assert run("finetune", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"], "--out", str(path)) == 0
        rewrite_checkpoint(path, lambda meta, params: meta["model_cfg"].update(n_layers=10**8))
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        code, err = _run_capped("score", "--overall-ckpt", str(path), "--align", str(ctm))
        assert code == 2, err
        assert re.search(r"huge.pbrk: truncated parameter blob: its model_cfg and kind 'overall' "
                         r"give \d{12} parameters", err), err


class TestScoreChecks:
    def test_checkpoints_with_different_vocabularies_exit_2(self, pipeline, tmp_path, capsys,
                                                             caplog):
        # The fine checkpoint would read the overall vocabulary's ids as other words.
        other = tmp_path / "other"
        assert run("synth", "--n-sentences", "10", "--seed", "77", "--out-dir", str(other)) == 0
        checkpoints = {}
        for task, data in (("overall", pipeline["out_dir"]), ("fine", str(other))):
            checkpoints[task] = str(tmp_path / f"{task}.pbrk")
            assert run("finetune", "--config", pipeline["cfg"], "--task", task,
                       "--in", os.path.join(data, "esl.jsonl"),
                       "--vocab", os.path.join(data, "vocab.tsv"), "--out", checkpoints[task]) == 0
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        capsys.readouterr()
        caplog.clear()
        assert run("score", "--overall-ckpt", checkpoints["overall"],
                   "--fine-ckpt", checkpoints["fine"], "--align", str(ctm)) == 2
        assert capsys.readouterr().out == ""
        assert checkpoints["overall"] in caplog.text and checkpoints["fine"] in caplog.text
        assert "different vocabularies" in caplog.text

    @pytest.mark.parametrize("text, line", [
        ("u1 1 nan 0.4 carpet\nu1 1 0.5 0.4 chapel\n", 1),
        ("u1 1 0.0 0.4 carpet\nu1 1 0.5 inf chapel\n", 2),
        ("u1 1 0.0 0.4 carpet\nu1 1 1e308 1e308 chapel\n", 2),
    ], ids=["nan-start", "inf-duration", "end-overflows"])
    def test_non_finite_ctm_time_exits_2_naming_the_line(self, pipeline, tmp_path, capsys,
                                                        caplog, text, line):
        fine = str(tmp_path / "fine.pbrk")
        assert run("finetune", "--config", pipeline["cfg"], "--task", "fine",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"], "--out", fine) == 0
        ctm = tmp_path / "times.ctm"
        ctm.write_text(text)
        capsys.readouterr()
        caplog.clear()
        assert run("score", "--fine-ckpt", fine, "--align", str(ctm)) == 2
        assert capsys.readouterr().out == ""
        assert f"{ctm}: line {line}: " in caplog.text

    @pytest.mark.parametrize("edit", [
        lambda m, p: m.update(n_classes=2),
        lambda m, p: p.pop("lnf_g"),
        lambda m, p: p.update(tok_emb=p["tok_emb"][:4]),
        lambda m, p: m["model_cfg"].update(d_model=8),
        lambda m, p: m.update(model="transformer"),
    ], ids=["n_classes", "missing-param", "short-tok_emb", "d_model", "unknown-model"])
    def test_checkpoint_that_disagrees_with_its_config_exits_2(
            self, score_ckpts, tmp_path, capsys, caplog, rewrite_checkpoint, edit):
        # Each file is well formed; only its kind and model_cfg show it is wrong.
        bad = tmp_path / "overall.pbrk"
        shutil.copy(score_ckpts["encoder-overall"], bad)
        rewrite_checkpoint(str(bad), edit)
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        capsys.readouterr()
        caplog.clear()
        assert run("score", "--overall-ckpt", str(bad), "--fine-ckpt",
                   score_ckpts["encoder-fine"], "--align", str(ctm)) == 2
        assert capsys.readouterr().out == ""
        assert str(bad) in caplog.text

    @pytest.mark.parametrize("key, value", [("seed", True), ("init_from", "anything")])
    def test_checkpoint_with_a_bad_top_level_value_exits_2_naming_the_key(
            self, score_ckpts, tmp_path, capsys, caplog, rewrite_checkpoint, key, value):
        # A bool seed is no integer, and init_from names the kind of the
        # checkpoint a model was fine-tuned from, or is null.
        bad = tmp_path / "overall.pbrk"
        shutil.copy(score_ckpts["encoder-overall"], bad)
        rewrite_checkpoint(str(bad), lambda meta, params: meta.update({key: value}))
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        capsys.readouterr()
        assert run("score", "--overall-ckpt", str(bad), "--align", str(ctm)) == 2
        assert capsys.readouterr().out == ""
        assert re.search(f"{re.escape(str(bad))}: .*{key}", caplog.text), caplog.text

    def test_closed_stdout_exits_141_without_an_error(self, score_ckpts, tmp_path):
        # `score ... | head -1`: stdout's reader is gone before anything is
        # written. That is no data error, so nothing is logged.
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "breakscore.cli", "score", "--overall-ckpt",
             score_ckpts["encoder-overall"], "--fine-ckpt", score_ckpts["encoder-fine"],
             "--align", str(ctm)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 141, stderr
        assert "ERROR" not in stderr and "Error" not in stderr, stderr

    @pytest.mark.parametrize("ckpt", ["encoder-overall", "bilstm-fine"])
    def test_checkpoint_with_a_non_int_size_exits_2_naming_the_key(
            self, score_ckpts, tmp_path, caplog, rewrite_checkpoint, ckpt):
        # A size stored as a float equal to its integer (d_model 16.0) passed
        # every range and count check, then failed in the blob read or the
        # forward with a TypeError; a bool is no size either.
        kind = ckpt.split("-")[1]
        with open(score_ckpts[ckpt], "rb") as f:
            f.readline()
            model_cfg = json.loads(f.readline())["model_cfg"]
        keys = [k for k, v in model_cfg.items() if type(v) is int]
        assert len(keys) == {"encoder": 6, "bilstm": 3}[ckpt.split("-")[0]]
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        for key in keys:
            for value in (float(model_cfg[key]), True):
                bad = tmp_path / f"{key}.pbrk"
                shutil.copy(score_ckpts[ckpt], bad)
                rewrite_checkpoint(str(bad), lambda meta, params: meta["model_cfg"].update(
                    {key: value}))
                caplog.clear()
                assert run("score", f"--{kind}-ckpt", str(bad), "--align", str(ctm)) == 2, key
                message = f"{bad}: bad metadata: {key} must be an integer, got {value!r}"
                assert message in caplog.text

    @pytest.mark.parametrize("ckpt, names, value", [
        ("encoder-overall", ("layer0.wq", "layer0.wk"), 1e20),
        ("encoder-fine", ("head_w",), np.nan),
        ("bilstm-overall", ("head_b",), np.inf),
    ], ids=["encoder-overflow", "encoder-nan", "bilstm-inf"])
    def test_checkpoint_with_non_finite_logits_exits_2(
            self, score_ckpts, tmp_path, capsys, caplog, rewrite_checkpoint, ckpt, names, value):
        # Well formed, but with the first row of each named array set to value
        # its forward overflows or carries a NaN: bad data, and no numpy
        # warning or garbage ranks on stdout.
        def edit(meta, params):
            for name in names:
                params[name] = params[name].copy()
                params[name][0] = value

        kind = ckpt.split("-")[1]
        bad = tmp_path / f"{kind}.pbrk"
        shutil.copy(score_ckpts[ckpt], bad)
        rewrite_checkpoint(str(bad), edit)
        ctm = tmp_path / "a.ctm"
        ctm.write_text(CTM)
        capsys.readouterr()
        caplog.clear()
        assert run("score", f"--{kind}-ckpt", str(bad), "--align", str(ctm)) == 2
        assert capsys.readouterr().out == ""
        assert f"the {kind} checkpoint gives non-finite logits" in caplog.text

    def test_programming_fault_in_a_fold_propagates(self, pipeline, monkeypatch):
        # Only a BreakscoreError maps to an exit code; anything else is a bug
        # and keeps its traceback.
        def broken_finetune(*args, **kwargs):
            raise AssertionError("fault inside fold training")

        monkeypatch.setattr(tasks, "finetune", broken_finetune)
        with pytest.raises(AssertionError, match="fault inside fold training"):
            run("eval", "--config", pipeline["cfg"], "--task", "overall",
                "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                "--model", "scratch", "--k", "3")


@pytest.mark.skipif(shards.usable_cpus() < 2 or blas_threads() is None,
                    reason="the shard worker needs two CPUs and a BLAS thread pin")
class TestShardWorkerFaults:
    """A fault in the forked shard worker ends the command as it would in the
    parent, and leaves no process behind and BLAS at its old thread count."""

    @pytest.fixture()
    def fault_in_worker(self, monkeypatch):
        """Make `encoder_forward` run `fault()` in the worker only, that is on shard 1."""
        monkeypatch.setattr(shards, "SHARD_TOKENS", 1)
        parent, forward = os.getpid(), tasks.encoder_forward

        def install(fault):
            def faulty(*args, **kwargs):
                if os.getpid() != parent:
                    fault()
                return forward(*args, **kwargs)

            monkeypatch.setattr(tasks, "encoder_forward", faulty)

        return install

    def _pretrain(self, pipeline, tmp_path):
        threads = blas_threads()
        code = run("pretrain", "--config", pipeline["cfg"], "--in", pipeline["pretrain"],
                   "--vocab", pipeline["vocab"], "--out", str(tmp_path / "x.pbrk"))
        assert multiprocessing.active_children() == []
        assert blas_threads() == threads
        assert not (tmp_path / "x.pbrk").exists()
        return code

    @pytest.mark.parametrize("error, code", [(NumericError, 3), (DataError, 2)])
    def test_error_keeps_its_exit_code(self, pipeline, tmp_path, caplog, fault_in_worker,
                                       error, code):
        def fault():
            raise error("fault on shard 1")

        fault_in_worker(fault)
        assert self._pretrain(pipeline, tmp_path) == code
        assert "fault on shard 1" in caplog.text

    def test_dead_worker_exits_2_naming_its_exit_code(self, pipeline, tmp_path, caplog,
                                                      fault_in_worker):
        fault_in_worker(lambda: os._exit(7))
        assert self._pretrain(pipeline, tmp_path) == 2
        assert "shard worker exited with code 7" in caplog.text


class TestFoldWorker:
    """`eval` runs every other fold in a forked worker when it can. A fault in
    either process ends the command as it would on one, and leaves no process
    behind and BLAS at its old thread count."""

    @staticmethod
    def fault_in_fold(monkeypatch, fold, fault):
        """Make `tasks.finetune` run `fault()` when it trains `fold`, which it
        knows by the fold's derived seed (the pipeline's seed is 3)."""
        fold_seed = int(make_rng(3, f"fold{fold}").integers(2**31))
        finetune = tasks.finetune

        def faulty(dataset, init, tcfg, *args, **kwargs):
            if tcfg.seed == fold_seed:
                fault()
            return finetune(dataset, init, tcfg, *args, **kwargs)

        monkeypatch.setattr(tasks, "finetune", faulty)

    @staticmethod
    def _eval(pipeline):
        threads = blas_threads()
        code = run("eval", "--config", pipeline["cfg"], "--task", "overall",
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--model", "scratch", "--k", "3")
        assert multiprocessing.active_children() == []
        assert blas_threads() == threads
        return code

    @pytest.mark.parametrize("fold", [0, 1])
    def test_data_error_in_one_fold_exits_2_naming_it(self, pipeline, monkeypatch, caplog, fold):
        def fault():
            raise DataError("fault in this fold")

        self.fault_in_fold(monkeypatch, fold, fault)
        assert self._eval(pipeline) == 2
        assert f"training failed on fold {fold}: fault in this fold" in caplog.text

    @pytest.mark.parametrize("fold", [0, 1])
    def test_prediction_error_exits_2_naming_its_fold(self, pipeline, monkeypatch, caplog, fold):
        # A fold's checkpoint carries the fold's derived seed (the pipeline's seed is 3).
        fold_seed = int(make_rng(3, f"fold{fold}").integers(2**31))
        predict = tasks.predict_finegrained

        def faulty(ckpt, seqs):
            if ckpt.seed == fold_seed:
                raise DataError("the fine checkpoint gives non-finite logits")
            return predict(ckpt, seqs)

        monkeypatch.setattr(tasks, "predict_finegrained", faulty)
        assert run("eval", "--config", pipeline["cfg"], "--task", "fine", "--in", pipeline["esl"],
                   "--vocab", pipeline["vocab"], "--model", "scratch", "--k", "3") == 2
        assert multiprocessing.active_children() == []
        message = f"prediction failed on fold {fold}: the fine checkpoint gives non-finite logits"
        assert message in caplog.text

    def test_fold_with_nothing_to_score_exits_2_naming_it(self, pipeline, tmp_path, caplog):
        # Two items with breaks, rated Poor, and eight one-word items, rated
        # Great: stratified, the two go to folds 0 and 1, so every fold trains
        # on breaks but fold 2 has none to score.
        records = [json.loads(l) for l in open(pipeline["esl"])]
        records = [dict(r, overall=1) for r in records if any(r["break_mask"])][:2] + [
            {"id": f"one{i}", "ids": [CLS_ID, 8], "break_mask": [False, False],
             "overall": 3, "fine": []} for i in range(8)]
        esl = tmp_path / "mostly_one_word.jsonl"
        esl.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run("eval", "--config", pipeline["cfg"], "--task", "fine", "--in", str(esl),
                   "--vocab", pipeline["vocab"], "--model", "scratch", "--k", "5") == 2
        assert "fold 2: its 2 test items give nothing to score" in caplog.text
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(shards.usable_cpus() < 2 or blas_threads() is None,
                        reason="the fold worker needs two CPUs and a BLAS thread pin")
    def test_dead_fold_worker_exits_2_naming_its_exit_code(self, pipeline, monkeypatch, caplog):
        parent = os.getpid()

        def fault():
            if os.getpid() != parent:
                os._exit(7)

        self.fault_in_fold(monkeypatch, 1, fault)
        assert self._eval(pipeline) == 2
        assert "fold worker exited with code 7" in caplog.text


def test_default_eval_warns_that_it_predicts_one_class(tmp_path, caplog):
    # At the default config every fold's model predicts Great at every break,
    # so its macro-F1 is a constant predictor's; the report's values stay.
    data = tmp_path / "data"
    assert run("synth", "--seed", "11", "--out-dir", str(data)) == 0
    caplog.clear()
    assert run("eval", "--seed", "11", "--task", "fine", "--in", str(data / "esl.jsonl"),
               "--vocab", str(data / "vocab.tsv"), "--model", "scratch") == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["every cross-validation prediction is Great: the model scores as a "
                        "constant predictor"]


_OVERALL_LINE = re.compile(r"  overall: (\w+)  \(Poor=([0-9.]+) Fair=([0-9.]+) Great=([0-9.]+)\)")


@pytest.fixture(scope="module")
def score_ckpts(pipeline):
    """Overall and fine checkpoints of each model, and an encoder fine one at max_len 16."""
    root = pipeline["root"]
    short_cfg = root / "short16.yaml"
    short_cfg.write_text(open(pipeline["cfg"]).read()
                         .replace("ffn_dim: 32\n", "ffn_dim: 32\n  max_len: 16\n"))
    ckpts = {}
    for name, task, model, cfg in (
        ("encoder-overall", "overall", "encoder", pipeline["cfg"]),
        ("encoder-fine", "fine", "encoder", pipeline["cfg"]),
        ("bilstm-overall", "overall", "bilstm", pipeline["cfg"]),
        ("bilstm-fine", "fine", "bilstm", pipeline["cfg"]),
        ("encoder-fine16", "fine", "encoder", str(short_cfg)),
    ):
        ckpts[name] = str(root / f"score-{name}.pbrk")
        assert run("finetune", "--config", cfg, "--task", task, "--model", model,
                   "--in", pipeline["esl"], "--vocab", pipeline["vocab"],
                   "--out", ckpts[name]) == 0
    return ckpts


def _write_ctm(path, utts):
    """A CTM file of (id, words) utterances, its gaps cycling through the break classes."""
    lines = []
    for utt_id, words in utts:
        t = 0.0
        for i, word in enumerate(words):
            lines.append(f"{utt_id} 1 {t:.3f} 0.300 {word}\n")
            t += 0.3 + (0.005, 0.03, 0.1, 0.3)[i % 4]
    path.write_text("".join(lines))


class TestBatchedScore:
    """Scoring a file predicts its utterances in batches; the output must be what
    scoring each utterance alone prints."""

    @pytest.fixture()
    def utts(self, pipeline):
        words = [w for l in open(pipeline["native"]) for w in json.loads(l)["words"]]
        # One word (no breaks), then mixed lengths, so the file forms several
        # batches and the longest rows reach past 16 tokens.
        lengths = (1, 5, 2, 33, 8, 3, 21, 40, 13, 40, 2, 40, 60, 40, 7)
        return [(f"utt{i}", [words[(7 * i + j) % len(words)] for j in range(n)])
                for i, n in enumerate(lengths)]

    def score(self, argv, ctm, capsys):
        capsys.readouterr()
        assert run("score", *argv, "--align", str(ctm)) == 0
        return capsys.readouterr().out

    def assert_equivalent(self, argv, utts, tmp_path, capsys, monkeypatch):
        forwards = []
        for name in ("encoder_forward", "bilstm_forward"):
            def counting_forward(ids, *args, real_forward=getattr(tasks, name), **kwargs):
                forwards.append(ids.shape[0])
                return real_forward(ids, *args, **kwargs)

            monkeypatch.setattr(tasks, name, counting_forward)
        whole = tmp_path / "all.ctm"
        _write_ctm(whole, utts)
        batched = self.score(argv, whole, capsys).splitlines()
        n_ckpts = len(argv) // 2
        assert len(forwards) >= 2 * n_ckpts and max(forwards) > 1, forwards
        single = []
        for utt in utts:
            one = tmp_path / f"{utt[0]}.ctm"
            _write_ctm(one, [utt])
            single += self.score(argv, one, capsys).splitlines()
        assert len(batched) == len(single)
        assert [l for l in batched if l.startswith("utterance ")] == [
            f"utterance {utt_id}:" for utt_id, _ in utts]
        for got, want in zip(batched, single):
            m_got, m_want = _OVERALL_LINE.fullmatch(got), _OVERALL_LINE.fullmatch(want)
            if m_want is None:
                assert got == want
                continue
            assert m_got is not None and m_got.group(1) == m_want.group(1), (got, want)
            np.testing.assert_allclose([float(p) for p in m_got.groups()[1:]],
                                       [float(p) for p in m_want.groups()[1:]], atol=0.001)
        return batched

    @pytest.mark.parametrize("model", ["encoder", "bilstm"])
    def test_file_equals_utterances_scored_alone(self, score_ckpts, utts, tmp_path, capsys,
                                                 monkeypatch, model):
        argv = ("--overall-ckpt", score_ckpts[f"{model}-overall"],
                "--fine-ckpt", score_ckpts[f"{model}-fine"])
        out = self.assert_equivalent(argv, utts, tmp_path, capsys, monkeypatch)
        n_breaks = sum(len(words) - 1 for _, words in utts)
        assert len([l for l in out if "[br" in l]) == n_breaks
        assert out[2] == "utterance utt1:"   # utt0 has one word, so no break lines

    def test_short_checkpoint_warns_once_per_long_utterance(self, score_ckpts, utts, tmp_path,
                                                            capsys, caplog, monkeypatch):
        # The fine checkpoint reads 16 tokens: [CLS] and up to 7 breaks.
        argv = ("--overall-ckpt", score_ckpts["encoder-overall"],
                "--fine-ckpt", score_ckpts["encoder-fine16"])
        whole = tmp_path / "file.ctm"
        _write_ctm(whole, utts)
        caplog.clear()
        out = self.score(argv, whole, capsys).splitlines()
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        long_ids = [utt_id for utt_id, words in utts if 2 * len(words) > 16]
        assert len(warnings) == len(long_ids)
        for utt_id, warning in zip(long_ids, warnings):
            assert warning.startswith(f"utterance {utt_id}: ")
            assert "fine checkpoint's max_len 16" in warning
        assert len([l for l in out if "[br" in l]) == sum(min(len(w) - 1, 7) for _, w in utts)
        self.assert_equivalent(argv, utts, tmp_path, capsys, monkeypatch)

    def test_empty_alignment_file_prints_nothing(self, score_ckpts, tmp_path, capsys):
        empty = tmp_path / "empty.ctm"
        empty.write_text("")
        argv = ("--overall-ckpt", score_ckpts["encoder-overall"],
                "--fine-ckpt", score_ckpts["encoder-fine"])
        assert self.score(argv, empty, capsys) == ""
