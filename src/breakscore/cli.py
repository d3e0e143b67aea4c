"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Set BREAKSCORE_LOG=debug for verbose logging. Outputs are written atomically
(temp file + rename) and each command echoes its resolved configuration to
`<output>.config.yaml`.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

from . import alignment, baseline, corruption, metrics, shards, synth, tasks
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, dump_config, load_config
from .exceptions import BreakscoreError, DataError, NumericError, ParseError
from .ranks import Rank, rank_to_class
from .vocab import Vocabulary, build_vocab, encode

log = logging.getLogger("breakscore")


def _setup_logging():
    level = os.environ.get("BREAKSCORE_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(message)s")


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _echo_config(cfg: RunConfig, out_path: str) -> None:
    write_atomic(out_path + ".config.yaml", dump_config(cfg))


def _read(path: str, parse):
    """`parse` the text file at `path`; its errors name the path and keep their line."""
    with open(path) as f:
        try:
            return parse(f)
        except BreakscoreError as e:
            e.args = (f"{path}: {e}",)
            raise
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e}") from e


def _read_samples(path: str, parse, vocab: Vocabulary) -> list:
    """The dataset records in `path`, each of whose token ids has a row in `vocab`."""
    samples = _read(path, parse)
    for s in samples:
        top = max(s.ids, default=0)
        if top >= vocab.size:
            raise DataError(f"{path}: sample {s.id!r}: token id {top} is outside the "
                            f"vocabulary of size {vocab.size}")
    return samples


def _check_out_dir(path: str) -> None:
    """Fail before any work when `path` could not be written at the end."""
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        raise DataError(f"{path}: output directory {out_dir} does not exist")


def _load_config(args) -> RunConfig:
    """The run configuration of --config, with the command's flags over it."""
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    for flag, section, key in (
        ("epochs", "train", "epochs"),
        ("batch_size", "train", "batch_size"),
        ("lr", "train", "lr"),
        ("n_sentences", "synth", "n_sentences"),
        ("k", "eval", "k"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            getattr(cfg, section)[key] = value
    return cfg


# -- commands ----------------------------------------------------------------

def cmd_ingest(args) -> int:
    _check_out_dir(args.out)
    parse = alignment.parse_ctm if args.format == "ctm" else alignment.parse_tsv
    utts = []
    for path in args.inputs:
        utts.extend(_read(path, parse))
    seen = set()
    for u in utts:
        if u.id in seen:
            raise DataError(f"duplicate utterance id across files: {u.id!r}")
        seen.add(u.id)
    lines = [alignment.sequence_to_json(alignment.build_sequence(u)) for u in utts]
    write_atomic(args.out, "\n".join(lines) + ("\n" if lines else ""))
    log.info("ingested %d utterances -> %s", len(utts), args.out)
    return 0


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    scfg = cfg.build("synth")
    os.makedirs(args.out_dir, exist_ok=True)

    native = synth.generate_native(scfg)
    esl = synth.generate_esl(scfg, native)
    vocab = build_vocab(native)
    rated = [synth.encode_rated(s, vocab) for s in esl]

    def out(name):
        return os.path.join(args.out_dir, name)

    write_atomic(out("native.jsonl"), "\n".join(alignment.sequence_to_json(s) for s in native) + "\n")
    write_atomic(out("vocab.tsv"), "\n".join(vocab.to_lines()) + "\n")
    write_atomic(out("esl.jsonl"), "\n".join(tasks.rated_to_json(r) for r in rated) + "\n")
    truth_lines = [
        alignment.sequence_to_json(
            s.seq, overall=int(s.overall), fine=[int(r) for r in s.fine], trace=list(s.trace)
        )
        for s in esl
    ]
    write_atomic(out("esl_truth.jsonl"), "\n".join(truth_lines) + "\n")
    stats = {"native": synth.corpus_stats(native), "esl": synth.esl_stats(esl)}
    write_atomic(out("stats.json"), json.dumps(stats, indent=2, sort_keys=True) + "\n")
    _echo_config(cfg, out("synth"))
    log.info("synthesized %d native / %d esl utterances in %s", len(native), len(esl), args.out_dir)
    return 0


def cmd_corrupt(args) -> int:
    _check_out_dir(args.out)
    cfg = _load_config(args)
    ccfg = cfg.build("corruption")
    vocab = _read(args.vocab, Vocabulary.from_lines)
    seqs = _read(args.infile, alignment.read_sequences)
    corpus = [(s.id, encode(s, vocab)) for s in seqs]
    dataset = corruption.build_pretrain_dataset(corpus, ccfg)
    write_atomic(args.out, "\n".join(corruption.labeled_to_json(s) for s in dataset) + "\n")
    _echo_config(cfg, args.out)
    n_corrupt = sum(s.label == corruption.LABEL_CORRUPTED for s in dataset)
    log.info("wrote %d samples (%d corrupted) -> %s", len(dataset), n_corrupt, args.out)
    return 0


def cmd_pretrain(args) -> int:
    _check_out_dir(args.out)
    cfg = _load_config(args)
    vocab = _read(args.vocab, Vocabulary.from_lines)
    dataset = _read_samples(args.infile, corruption.read_labeled, vocab)
    tcfg = cfg.build("train")
    enc_cfg = cfg.build("encoder", vocab_size=vocab.size)
    ckpt, report = tasks.pretrain_rbtd(dataset, tcfg, enc_cfg, vocab)
    save_checkpoint(ckpt, args.out)
    _echo_config(cfg, args.out)
    print(f"Discriminator held-out ({report['held_out']} samples):")
    print(f"  Accuracy {100 * report['accuracy']:.1f}%   F-score {100 * report['f_score']:.1f}%")
    return 0


def cmd_finetune(args) -> int:
    _check_out_dir(args.out)
    cfg = _load_config(args)
    vocab = _read(args.vocab, Vocabulary.from_lines)
    dataset = _read_samples(args.infile, tasks.read_rated, vocab)
    tcfg = cfg.build("train")
    init = load_checkpoint(args.init) if args.init else None
    # --model names the config section of the network to train.
    model_cfg = cfg.build(args.model, vocab_size=vocab.size)
    ckpt = tasks.finetune(dataset, init, tcfg, args.task, model_cfg, vocab)
    save_checkpoint(ckpt, args.out)
    _echo_config(cfg, args.out)
    log.info("fine-tuned %s (%s) -> %s", args.task, args.model, args.out)
    return 0


def _class_pairs(item: tasks.RatedSample, task: str, preds) -> list[tuple[int, int]]:
    """(true, predicted) class pairs of the item's `task` labels and their predicted ranks."""
    labels = [item.overall] if task == "overall" else item.fine
    return [(rank_to_class(t), rank_to_class(p)) for t, p in zip(labels, preds, strict=True)]


def _against_ref_predictor(task, refs_by_id):
    def predictor(item: tasks.RatedSample):
        refs = refs_by_id.get(item.id.removeprefix("esl-")) or refs_by_id.get(item.id)
        if not refs:
            raise DataError(f"no reference sequence for {item.id!r}")
        if task == "overall":
            preds = [baseline.rank_from_similarity(baseline.best_of_references(item, refs))]
        else:
            preds = baseline.fine_rank_against_reference(item, refs[0])
        return _class_pairs(item, task, preds)

    return predictor


def make_trained_predictor(task, model_cfg, vocab, tcfg, init_ckpt, items):
    """train_fn for cross_validate over `items`, a list of RatedSamples.

    `train_fn(train_items, fold_seed)` fine-tunes on the fold's training items.
    On its first call, the predictor it returns predicts every record of `items`
    the fold did not train on in one `predict_*` call, under the PREDICT_TOKENS
    budget of `score`; each call returns its item's pairs from that result.
    Records are matched by identity, since two records can be equal by value."""

    def train_fn(train_items, fold_seed):
        fold_tcfg = dataclasses.replace(tcfg, seed=int(fold_seed))
        ckpt = tasks.finetune(train_items, init_ckpt, fold_tcfg, task, model_cfg, vocab)
        trained = set(map(id, train_items))
        pairs = {}

        def predictor(item: tasks.RatedSample):
            if not pairs:
                held_out = [it for it in items if id(it) not in trained]
                seqs = [it.ids for it in held_out]
                if task == "overall":
                    preds = [[rank] for rank in tasks.predict_overall(ckpt, seqs)[0]]
                else:
                    preds = tasks.predict_finegrained(ckpt, seqs)
                for it, ranks in zip(held_out, preds, strict=True):
                    pairs[id(it)] = _class_pairs(it, task, ranks)
            return pairs[id(item)]

        return predictor

    return train_fn


def cmd_eval(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    cfg = _load_config(args)
    k = cfg.build("eval").k
    vocab = _read(args.vocab, Vocabulary.from_lines)
    dataset = _read_samples(args.infile, tasks.read_rated, vocab)
    if any(getattr(s, args.task) is None for s in dataset):
        raise DataError(f"eval --task {args.task} needs {args.task} labels on every item")
    # Stratify folds on the overall rank when every item has one.
    if all(s.overall is not None for s in dataset):
        labels = [rank_to_class(s.overall) for s in dataset]
    else:
        labels = [0] * len(dataset)

    if args.model == "against-ref":
        if not args.refs:
            raise DataError("--model against-ref needs --refs")
        # Each reference is encoded with the run's vocabulary and compared id for
        # id with the learner's record, so a word outside it is an error, not [UNK].
        refs_by_id: dict[str, list] = {}
        for seq in _read(args.refs, alignment.read_sequences):
            unknown = next((w for w in seq.words if w not in vocab.word_to_id), None)
            if unknown is not None:
                raise DataError(f"{args.refs}: reference {seq.id!r}: word {unknown!r} is not "
                                "in the vocabulary")
            ref = tasks.RatedSample(seq.id, tuple(encode(seq, vocab)))
            refs_by_id.setdefault(seq.id, []).append(ref)
        predictor = _against_ref_predictor(args.task, refs_by_id)
        train_fn = lambda items, fold_seed: predictor
        name = "Against-Ref"
    else:
        tcfg = cfg.build("train")
        if args.model == "bilstm":
            model_cfg, init, name = cfg.build("bilstm", vocab_size=vocab.size), None, "Bi-LSTM"
        elif args.model == "scratch":
            model_cfg, init, name = cfg.build("encoder", vocab_size=vocab.size), None, "Scratch"
        else:
            init = load_checkpoint(args.model, expect_kind="rbtd")
            model_cfg, name = init.model_cfg, "Break-Pretrained"
        # Cut once here, so the folds train and score on what the model reads.
        dataset = tasks.cut_to_max_len(dataset, args.task, model_cfg)
        train_fn = make_trained_predictor(args.task, model_cfg, vocab, tcfg, init, dataset)

    report = metrics.cross_validate(dataset, labels, train_fn, k=k, seed=cfg.seed)
    text = metrics.format_report(report, title=f"{name} / {args.task}")
    print(text)
    if args.out:
        write_atomic(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        write_atomic(args.out + ".txt", text + "\n")
        _echo_config(cfg, args.out)
    return 0


def cmd_score(args) -> int:
    overall_ckpt = load_checkpoint(args.overall_ckpt, expect_kind="overall") if args.overall_ckpt else None
    fine_ckpt = load_checkpoint(args.fine_ckpt, expect_kind="fine") if args.fine_ckpt else None
    if overall_ckpt is None and fine_ckpt is None:
        raise DataError("score needs --overall-ckpt and/or --fine-ckpt")
    if overall_ckpt and fine_ckpt and overall_ckpt.vocab.word_to_id != fine_ckpt.vocab.word_to_id:
        raise DataError(f"{args.overall_ckpt} and {args.fine_ckpt} were trained on different "
                        "vocabularies; score needs both checkpoints to share one")
    vocab = (overall_ckpt or fine_ckpt).vocab
    parse = alignment.parse_ctm if args.format == "ctm" else alignment.parse_tsv
    seqs, encoded = [], []
    for utt in _read(args.align, parse):
        seqs.append(alignment.build_sequence(utt))
        encoded.append(encode(seqs[-1], vocab))
    # Each checkpoint predicts the whole file in length-sorted batches; the
    # blocks come out in file order.
    if overall_ckpt is not None:
        overall, probs = tasks.predict_overall(overall_ckpt, encoded)
    if fine_ckpt is not None:
        fine = tasks.predict_finegrained(fine_ckpt, encoded)
    lines = []
    for u, seq in enumerate(seqs):
        n_tokens = len(encoded[u])
        if overall_ckpt is not None and n_tokens > overall_ckpt.model_cfg.max_len:
            log.warning("utterance %s: %d tokens exceed the overall checkpoint's max_len %d; "
                        "its overall rank reads only the first %d of them", seq.id, n_tokens,
                        overall_ckpt.model_cfg.max_len, overall_ckpt.model_cfg.max_len)
        if fine_ckpt is not None and n_tokens > fine_ckpt.model_cfg.max_len:
            log.warning("utterance %s: %d tokens exceed the fine checkpoint's max_len %d; "
                        "its last %d break positions are left unscored", seq.id, n_tokens,
                        fine_ckpt.model_cfg.max_len, len(seq.breaks) - len(fine[u]))
        lines.append(f"utterance {seq.id}:")
        if overall_ckpt is not None:
            probs_text = " ".join(f"{r.label}={p:.3f}" for r, p in zip(Rank, probs[u].tolist()))
            lines.append(f"  overall: {overall[u].label}  ({probs_text})")
        if fine_ckpt is not None:
            sites = zip(seq.words, seq.breaks, seq.words[1:], fine[u])
            lines.extend(f"  {left} [{br.token}] {right}: {r.label}" for left, br, right, r in sites)
    if lines:
        print("\n".join(lines))
    return 0


# -- entry point -------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; a subcommand `x` runs `cmd_x`."""
    p = argparse.ArgumentParser(prog="breakscore", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="YAML run configuration")
        sp.add_argument("--seed", type=int, help="override the global seed")

    def dataset(sp):
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--vocab", required=True)

    def training(sp):
        sp.add_argument("--epochs", type=int)
        sp.add_argument("--batch-size", type=int, dest="batch_size")
        sp.add_argument("--lr", type=float)

    sp = sub.add_parser("ingest", help="alignment files -> token-sequence JSONL")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--format", choices=("ctm", "tsv"), default="ctm")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("synth", help="generate native + learner corpora")
    common(sp)
    sp.add_argument("--n-sentences", type=int, dest="n_sentences")
    sp.add_argument("--out-dir", required=True)

    sp = sub.add_parser("corrupt", help="token sequences -> pretraining dataset")
    common(sp)
    dataset(sp)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("pretrain", help="train the break-corruption discriminator")
    common(sp)
    dataset(sp)
    training(sp)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("finetune", help="train an assessment head")
    common(sp)
    sp.add_argument("--task", choices=("overall", "fine"), required=True)
    dataset(sp)
    sp.add_argument("--init", help="checkpoint to initialize the encoder from")
    sp.add_argument("--model", choices=("encoder", "bilstm"), default="encoder")
    training(sp)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("eval", help="cross-validated evaluation report")
    common(sp)
    sp.add_argument("--task", choices=("overall", "fine"), required=True)
    dataset(sp)
    sp.add_argument(
        "--model",
        required=True,
        help="'scratch', 'bilstm', 'against-ref', or a pretrained checkpoint path",
    )
    sp.add_argument("--refs", help="reference token-sequence JSONL (against-ref)")
    sp.add_argument("--k", type=int)
    training(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("score", help="score an alignment file with trained models")
    sp.add_argument("--overall-ckpt")
    sp.add_argument("--fine-ckpt")
    sp.add_argument("--align", required=True)
    sp.add_argument("--format", choices=("ctm", "tsv"), default="ctm")

    return p


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    log.debug("freed heap memory kept for reuse: %s", shards.keep_freed_memory())
    try:
        # Looked up per call, so a patched cmd_x takes effect.
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone (`breakscore score ... | head -1`): exit quietly
        # with the code a shell shows for `cat` there. stdout points at devnull,
        # so its flush at exit cannot fail again (Python `signal` docs, SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NumericError as e:
        log.error("numeric failure: %s", e)
        return 3
    except (ParseError, DataError, BreakscoreError, OSError) as e:
        log.error("%s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
