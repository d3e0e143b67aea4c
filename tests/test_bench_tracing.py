"""The benchmark tracer patches names the package must keep providing, and
calls what it wraps the way the package does."""
import json
import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from bench.tracing import Tracer  # noqa: E402
from breakscore import cli, shards  # noqa: E402


def test_tracer_installs_and_uninstalls_against_the_package():
    tracer = Tracer()
    tracer.install()   # raises AttributeError if a traced name is gone
    patched = list(tracer._patches)
    assert patched and all(getattr(m, a) is not o for m, a, o in patched)
    tracer.uninstall()
    assert all(getattr(m, a) is o for m, a, o in patched)


def tiny_corpus(tmp_path):
    """A tiny run config and the corpus `synth` writes for it."""
    config = tmp_path / "tiny.yaml"
    config.write_text(
        "seed: 2\nsynth: {n_sentences: 12}\n"
        "encoder: {d_model: 8, n_heads: 2, n_layers: 1, ffn_dim: 16}\n"
        "train: {batch_size: 8, epochs: 1}\n"
    )
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(config), "--out-dir", str(data)]) == 0
    return str(config), data


def traced_main(argv) -> tuple[int, Tracer]:
    """`cli.main(argv)` under an enabled tracer; its exit code and the tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        tracer.start_operation("")
        return cli.main(argv), tracer
    finally:
        tracer.uninstall()


def test_traced_eval_times_each_fold_and_item(tmp_path, monkeypatch):
    # The tracer wraps cli.make_trained_predictor by its name and calls it
    # with whatever arguments cmd_eval passes, so this guards the call
    # contract: train_fn(train_items, fold_seed) returns predictor(item).
    # Spans made in the fold worker die with it, so every fold runs here.
    monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
    config, data = tiny_corpus(tmp_path)
    code, tracer = traced_main(["eval", "--task", "fine", "--config", config, "--k", "2",
                                "--in", str(data / "esl.jsonl"), "--vocab", str(data / "vocab.tsv"),
                                "--model", "scratch"])
    assert code == 0
    requests = {name: [s[5] for s in tracer.spans if s[1] == name]
                for name in ("metrics.cv_train", "metrics.cv_predict")}
    assert [r.split("/")[0] for r in requests["metrics.cv_train"]] == ["fold0", "fold1"]
    with open(data / "esl.jsonl") as f:
        item_ids = sorted(json.loads(line)["id"] for line in f)
    predicted = requests["metrics.cv_predict"]
    assert {r.split("/")[0] for r in predicted} == {"fold0", "fold1"}
    assert sorted(r.split("/", 1)[1] for r in predicted) == item_ids


def test_traced_score_times_each_head(tmp_path):
    # `score` predicts the whole file once per head, through the names the
    # tracer wraps, so each head's forwards fall inside its one predict span.
    config, data = tiny_corpus(tmp_path)
    ckpts = []
    for task in ("overall", "fine"):
        ckpts += [f"--{task}-ckpt", str(tmp_path / f"{task}.pbrk")]
        assert cli.main(["finetune", "--task", task, "--config", config,
                         "--in", str(data / "esl.jsonl"), "--vocab", str(data / "vocab.tsv"),
                         "--out", ckpts[-1]]) == 0
    with open(data / "native.jsonl") as f:
        words = [json.loads(line)["words"] for line in f][:3]
    ctm = tmp_path / "three.ctm"
    ctm.write_text("".join(f"u{u} 1 {0.5 * i:.2f} 0.40 {w}\n"
                           for u, ws in enumerate(words) for i, w in enumerate(ws)))
    code, tracer = traced_main(["score", *ckpts, "--align", str(ctm)])
    assert code == 0
    names = {s[0]: s[1] for s in tracer.spans}
    heads = {name: [s[0] for s in tracer.spans if s[1] == name]
             for name in ("tasks.predict_overall", "tasks.predict_finegrained")}
    assert all(len(ids) == 1 for ids in heads.values()), heads
    forwards = [names[s[4]] for s in tracer.spans if s[1] == "nn.encoder.forward"]
    assert sorted(forwards) == sorted(heads)
    # Each utterance is tokenized and encoded once, each call under its id.
    for name in ("alignment.build_sequence", "vocab.encode"):
        assert sorted(s[5] for s in tracer.spans if s[1] == name) == ["u0", "u1", "u2"], name


@pytest.mark.parametrize("model, net", [("encoder", "nn.encoder"), ("bilstm", "nn.bilstm")])
def test_traced_finetune_pairs_each_forward_with_its_backward(tmp_path, monkeypatch, model, net):
    # A train step's backward runs in the closure `tasks._head_rows` returns,
    # so the tracer sees it only if the closure looks the network's backward
    # up in `tasks` when it runs, and passes (dhidden, cache) positionally as
    # the tracer reads them. Shard 1's spans would die with the shard worker,
    # so both shards run here.
    monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
    config, data = tiny_corpus(tmp_path)
    code, tracer = traced_main(["finetune", "--task", "overall", "--model", model,
                                "--config", config, "--in", str(data / "esl.jsonl"),
                                "--vocab", str(data / "vocab.tsv"),
                                "--out", str(tmp_path / "overall.pbrk")])
    assert code == 0
    spans = Counter(s[1] for s in tracer.spans)
    assert spans[f"{net}.forward"] == spans[f"{net}.backward"] >= spans["nn.adam.step"] > 0
