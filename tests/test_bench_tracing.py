"""The benchmark tracer patches names the package must keep providing, and
calls what it wraps the way the package does."""
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from bench.tracing import Tracer  # noqa: E402
from breakscore import cli  # noqa: E402


def test_tracer_installs_and_uninstalls_against_the_package():
    tracer = Tracer()
    tracer.install()   # raises AttributeError if a traced name is gone
    patched = list(tracer._patches)
    assert patched and all(getattr(m, a) is not o for m, a, o in patched)
    tracer.uninstall()
    assert all(getattr(m, a) is o for m, a, o in patched)


def test_traced_eval_times_each_fold_and_item(tmp_path):
    # The tracer wraps cli.make_trained_predictor by its name and calls it
    # with whatever arguments cmd_eval passes, so this guards the call
    # contract: train_fn(train_items, fold_seed) returns predictor(item).
    config = tmp_path / "tiny.yaml"
    config.write_text(
        "seed: 2\nsynth: {n_sentences: 12}\n"
        "encoder: {d_model: 8, n_heads: 2, n_layers: 1, ffn_dim: 16}\n"
        "train: {batch_size: 8, epochs: 1}\n"
    )
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(config), "--out-dir", str(data)]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        tracer.start_operation("")
        code = cli.main(["eval", "--task", "fine", "--config", str(config), "--k", "2",
                         "--in", str(data / "esl.jsonl"), "--vocab", str(data / "vocab.tsv"),
                         "--model", "scratch"])
    finally:
        tracer.uninstall()
    assert code == 0
    requests = {name: [s[5] for s in tracer.spans if s[1] == name]
                for name in ("metrics.cv_train", "metrics.cv_predict")}
    assert [r.split("/")[0] for r in requests["metrics.cv_train"]] == ["fold0", "fold1"]
    with open(data / "esl.jsonl") as f:
        item_ids = sorted(json.loads(line)["id"] for line in f)
    predicted = requests["metrics.cv_predict"]
    assert {r.split("/")[0] for r in predicted} == {"fold0", "fold1"}
    assert sorted(r.split("/", 1)[1] for r in predicted) == item_ids
