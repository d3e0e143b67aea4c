"""The benchmark's workloads: set-up, one measured round, output checks, metrics.

Every operation is one in-process call of `breakscore.cli.main`, the entry
point behind the `breakscore` command. A call that exits non-zero, raises, or
prints output that fails its check counts as failed.
"""
from __future__ import annotations

import io
import json
import os
import random
import re
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout

import yaml

from breakscore import cli

ENCODER = {"d_model": 64, "n_heads": 4, "n_layers": 2, "ffn_dim": 128}

# Gap ranges (seconds) well inside each break class of the alignment quantizer:
# br0 (0, 10ms], br1 (10, 50ms], br2 (50, 200ms], br3 over 200ms.
GAP_RANGES = ((0.0, 0.008), (0.015, 0.045), (0.06, 0.19), (0.25, 0.6))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class SetupError(Exception):
    """A set-up command failed, so the workload has no inputs to run on."""


class Runner:
    """Runs CLI calls in-process, timing each and counting failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str], check=None, request: str = "") -> float | None:
        """Wall seconds of one `breakscore` call, or None if it failed.

        `request` is the traced request id its spans start with.
        """
        self.attempted += 1
        out = io.StringIO()
        self.tracer.start_operation(request)
        start = time.perf_counter()
        try:
            with redirect_stdout(out):
                code = cli.main(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            code = "exception"
        wall = time.perf_counter() - start
        problem = f"exit code {code}" if code != 0 else (check(out.getvalue()) if check else None)
        if problem:
            self.failed += 1
            print(f"FAILED breakscore {' '.join(argv[:2])}: {problem}", file=sys.stderr)
            return None
        return wall


def write_config(path: str, seed: int, n_sentences: int, train: dict, k: int) -> None:
    config = {"seed": seed, "synth": {"n_sentences": n_sentences}, "encoder": ENCODER,
              "train": train, "eval": {"k": k}}
    with open(path, "w") as f:
        yaml.safe_dump(config, f)


def read_jsonl(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class Workload:
    """One workload: `setup` builds inputs, `round` runs one measured round."""

    name = ""
    n_sentences = 120
    train: dict = {}
    k = 5
    warm_up = True   # run one unmeasured round before measuring

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def prepare(self, argv: list[str]) -> None:
        """Run one set-up command; without its output the workload cannot go on."""
        if self.runner.call(argv) is None:
            raise SetupError(f"breakscore {argv[0]} failed during set-up")

    def setup(self, directory: str) -> None:
        self.dir = directory
        os.makedirs(directory, exist_ok=True)
        self.config = self.path("run.yaml")
        write_config(self.config, self.seed, self.n_sentences, self.train, self.k)
        self.prepare(["synth", "--config", self.config, "--out-dir", directory])

    def round(self, samples: dict) -> None:
        raise NotImplementedError

    def metrics(self, samples: dict) -> tuple[dict, list]:
        """(end-to-end values by name, [(report name, value, unit, sample count)])."""
        raise NotImplementedError


class Pretrain(Workload):
    """One epoch of `breakscore pretrain` at the acceptance operating point.

    One command trains on 7600 samples in 119 steps, so it is its own warm-up
    and a run measures a single command.
    """

    name = "pretrain"
    n_sentences = 2000
    train = {"batch_size": 64, "epochs": 1, "lr": 1.0e-4}
    warm_up = False

    def setup(self, directory):
        super().setup(directory)
        self.prepare(["corrupt", "--config", self.config, "--in", self.path("native.jsonl"),
                      "--vocab", self.path("vocab.tsv"), "--out", self.path("pretrain.jsonl")])
        samples = read_jsonl(self.path("pretrain.jsonl"))
        n_held = max(1, int(round(0.05 * len(samples))))
        self.n_train = (len(samples) - n_held) * self.train["epochs"]
        self.tokens = sum(len(s["ids"]) for s in samples)

    @staticmethod
    def check(out: str) -> str | None:
        m = re.search(r"Accuracy ([0-9.]+)%", out)
        if m is None:
            return "no held-out accuracy printed"
        if float(m.group(1)) <= 50.0:
            return f"held-out accuracy {m.group(1)}% is not above two-class chance"
        return None

    def round(self, samples):
        wall = self.runner.call(
            ["pretrain", "--config", self.config, "--in", self.path("pretrain.jsonl"),
             "--vocab", self.path("vocab.tsv"), "--out", self.path("rbtd.pbrk")],
            self.check, request="step1")
        if wall is not None:
            samples.setdefault("pretrain", []).append(wall)

    def metrics(self, samples):
        walls = samples["pretrain"]
        wall = statistics.median(walls)
        e2e = {"tokens_per_s": self.tokens / wall, "latency_p50_ms": 1000 * wall}
        return e2e, [("pretrain_samples_per_s", self.n_train / wall, "1/s", len(walls))]


class EvalFine(Workload):
    """`breakscore eval --task fine` k-fold cross-validation, once with a scratch
    encoder and once with the Bi-LSTM; one round runs both commands."""

    name = "eval_fine"
    n_sentences = 120
    train = {"batch_size": 16, "epochs": 2, "lr": 3.0e-5}
    models = (("scratch", "cv_encoder_s"), ("bilstm", "cv_bilstm_s"))

    def setup(self, directory):
        super().setup(directory)
        items = read_jsonl(self.path("esl.jsonl"))
        self.n_breaks = sum(sum(item["break_mask"]) for item in items)
        self.tokens = sum(len(item["ids"]) for item in items)

    def check(self, out: str) -> str | None:
        with open(self.path("eval.json")) as f:
            report = json.load(f)
        folds = report["folds"]
        if len(folds) != self.k:
            return f"{len(folds)} folds, expected {self.k}"
        if not all(0.0 <= fold["macro_f1"] <= 1.0 for fold in folds):
            return "macro-F1 outside [0, 1]"
        total = sum(fold["total"] for fold in folds)
        if total != self.n_breaks:
            return f"confusion totals {total} != {self.n_breaks} break positions"
        return None

    def round(self, samples):
        for model, _ in self.models:
            wall = self.runner.call(
                ["eval", "--task", "fine", "--config", self.config, "--in", self.path("esl.jsonl"),
                 "--vocab", self.path("vocab.tsv"), "--model", model,
                 "--out", self.path("eval.json")], self.check)
            if wall is not None:
                samples.setdefault(model, []).append(wall)

    def metrics(self, samples):
        rounds = [sum(walls) for walls in zip(*(samples[model] for model, _ in self.models))]
        wall = statistics.median(rounds)
        e2e = {"tokens_per_s": len(self.models) * self.tokens / wall, "latency_p50_ms": 1000 * wall}
        named = [(name, statistics.median(samples[model]), "s", len(samples[model]))
                 for model, name in self.models]
        return e2e, named


_OVERALL = re.compile(r"  overall: (Poor|Fair|Great)  \(Poor=([0-9.]+) Fair=([0-9.]+) Great=([0-9.]+)\)")
_FINE = re.compile(r"  (\S+ \[br[0-3]\] \S+): (Poor|Fair|Great)")


class Score(Workload):
    """`breakscore score` on synthesized CTM alignments: one file, then single calls."""

    name = "score"
    n_sentences = 120
    train = {"batch_size": 16, "epochs": 1, "lr": 1.0e-4}
    calls_per_round = 60

    def setup(self, directory):
        super().setup(directory)
        for task in ("overall", "fine"):
            self.prepare(["finetune", "--task", task, "--config", self.config,
                          "--in", self.path("esl.jsonl"), "--vocab", self.path("vocab.tsv"),
                          "--out", self.path(f"{task}.pbrk")])
        rng = random.Random(self.seed)
        self.utts = []   # (id, ["left [brN] right" per break], ctm path)
        self.tokens = 0  # encoder input length: [CLS], words and breaks
        lines_all = []
        for item in read_jsonl(self.path("esl_truth.jsonl")):
            lines, t = [], rng.uniform(0.1, 0.5)
            for i, word in enumerate(item["words"]):
                if i:
                    t += rng.uniform(*GAP_RANGES[item["breaks"][i - 1]])
                dur = rng.uniform(0.12, 0.45)
                lines.append(f"{item['id']} 1 {t:.6f} {dur:.6f} {word}")
                t += dur
            single = self.path(f"utt{len(self.utts)}.ctm")
            with open(single, "w") as f:
                f.write("\n".join(lines) + "\n")
            words, breaks = item["words"], item["breaks"]
            sites = [f"{a} [br{b}] {c}" for a, b, c in zip(words, breaks, words[1:])]
            self.utts.append((item["id"], sites, single))
            self.tokens += 2 * len(item["words"])
            lines_all.extend(lines)
        self.ctm = self.path("all.ctm")
        with open(self.ctm, "w") as f:
            f.write("\n".join(lines_all) + "\n")
        self.next_call = 0

    def argv(self, ctm: str) -> list[str]:
        return ["score", "--overall-ckpt", self.path("overall.pbrk"),
                "--fine-ckpt", self.path("fine.pbrk"), "--align", ctm]

    @staticmethod
    def check_blocks(out: str, expected: list[tuple[str, list[str]]]) -> str | None:
        """One block per utterance: its overall line, with probabilities summing to 1
        within print rounding, then one fine line per break position showing the
        break class the alignment's gap was drawn from."""
        lines = out.splitlines()
        i = 0
        for utt_id, sites in expected:
            if lines[i : i + 1] != [f"utterance {utt_id}:"]:
                return f"no block for utterance {utt_id!r}"
            m = _OVERALL.fullmatch(lines[i + 1]) if i + 1 < len(lines) else None
            if m is None:
                return f"{utt_id}: no overall line"
            if abs(sum(float(p) for p in m.groups()[1:]) - 1.0) > 3 * 0.0005 + 1e-9:
                return f"{utt_id}: overall probabilities do not sum to 1"
            fine = [_FINE.fullmatch(line) for line in lines[i + 2 : i + 2 + len(sites)]]
            if [f and f.group(1) for f in fine] != sites:
                return f"{utt_id}: fine lines do not match its {len(sites)} break positions"
            i += 2 + len(sites)
        return None if i == len(lines) else f"{len(lines) - i} unexpected output lines"

    def round(self, samples):
        expected = [(utt_id, sites) for utt_id, sites, _ in self.utts]
        wall = self.runner.call(self.argv(self.ctm), lambda out: self.check_blocks(out, expected))
        if wall is not None:
            samples.setdefault("file", []).append(wall)
        for _ in range(self.calls_per_round):
            utt_id, sites, ctm = self.utts[self.next_call % len(self.utts)]
            self.next_call += 1
            wall = self.runner.call(
                self.argv(ctm), lambda out: self.check_blocks(out, [(utt_id, sites)]))
            if wall is not None:
                samples.setdefault("call", []).append(wall)

    def metrics(self, samples):
        files, calls = samples["file"], samples["call"]
        wall = statistics.median(files)
        p50, p90 = 1000 * percentile(calls, 50), 1000 * percentile(calls, 90)
        e2e = {"tokens_per_s": self.tokens / wall, "latency_p50_ms": p50}
        return e2e, [("score_utt_per_s", len(self.utts) / wall, "1/s", len(files)),
                     ("score_call_p50_ms", p50, "ms", len(calls)),
                     ("score_call_p90_ms", p90, "ms", len(calls))]


WORKLOADS = {w.name: w for w in (Pretrain, EvalFine, Score)}
