"""breakscore benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload pretrain --seed 11 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 11 --seconds 24

Run from the root of a checkout; the package is imported from its `src/`.
Inputs are generated from `--seed` through the package's own `synth`,
`corrupt` and `finetune` commands, and every measured operation is one
in-process call of `breakscore.cli.main` (see workloads.py).

`--trace 0` sets up several times (reporting the median set-up time), runs one
warm-up round, then measures rounds of the workload for `--seconds` and
reports medians. `--trace 1` sets up once with tracing on, measures untraced
rounds for half of `--seconds`, then as many traced rounds, and reports
per-layer metrics per round plus the tracing overhead (traced minus untraced
round time); its spans go to `.bench_out/spans-<workload>-s<seed>.jsonl`.
`bench/layer_map.json` says which end-to-end metric each layer should move.

`--workload all` runs every workload in its own process, prints their metrics
under their report names (pretrain_samples_per_s, cv_encoder_s, cv_bilstm_s,
score_utt_per_s, score_call_p50_ms, score_call_p90_ms, setup_s, peak_rss_mb)
and exits non-zero if any output check failed.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exit status is 0 only when every
operation succeeded and passed its output check.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up runs at least this many times and for at least this long; its
# median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Layers that run only while setting up some workloads; where a workload's
# rounds never call them, their time per set-up is reported instead.
SETUP_LAYERS = ("synth.generate_native_s", "synth.generate_esl_s",
                "corruption.build_pretrain_dataset_s", "checkpoint.save_s")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure_rounds(workload, samples: dict, seconds: float = 0.0, rounds: int = 1) -> list:
    """Run at least `rounds` rounds and for at least `seconds`; wall time of each."""
    walls, start = [], time.perf_counter()
    while len(walls) < rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.round(samples)
        walls.append(time.perf_counter() - t0)
    return walls


def run_untraced(workload, work: str, seconds: float) -> tuple[dict | None, list]:
    """End-to-end metrics, or None when an operation failed."""
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup(os.path.join(work, "setup"))
        setup_times.append(time.perf_counter() - t0)
    if workload.warm_up:
        workload.round({})
    samples: dict = {}
    measure_rounds(workload, samples, seconds=seconds)
    if workload.runner.failed:
        return None, []
    e2e, named = workload.metrics(samples)
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named += [("setup_s", e2e["setup_s"], "s", len(setup_times)),
              ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1)]
    return e2e, named


def run_traced(workload, tracer, work: str, seconds: float, spans_path: str) -> dict:
    tracer.install()
    try:
        tracer.enabled = True
        setup_mark = tracer.mark()
        workload.setup(os.path.join(work, "setup"))
        setup_layers = tracer.per_layer(setup_mark, 1)
        tracer.enabled = False
        if workload.warm_up:
            workload.round({})
        untraced = measure_rounds(workload, {}, seconds=seconds / 2)
        tracer.enabled = True
        round_mark = tracer.mark()
        traced = measure_rounds(workload, {}, rounds=len(untraced))
        tracer.enabled = False
        layers = tracer.per_layer(round_mark, len(traced))
    finally:
        tracer.uninstall()
    for name in SETUP_LAYERS:
        if not layers[name]:
            layers[name] = setup_layers[name]
    layers["bench.round_s"] = statistics.median(untraced)
    layers["bench.traced_round_s"] = statistics.median(traced)
    layers["bench.trace_overhead_s"] = layers["bench.traced_round_s"] - layers["bench.round_s"]
    tracer.write_spans(spans_path)
    return layers


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "breakscore")):
        print(f"no breakscore package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from host import host_record
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, Runner, SetupError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    spec = load_benchmark()["end_to_end"]
    out_dir = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(out_dir, tag)
    os.makedirs(work)
    host = host_record(ROOT, SRC, args.seed)
    print("host " + json.dumps(host, sort_keys=True))

    tracer = Tracer()
    runner = Runner(tracer)
    workload = WORKLOADS[args.workload](runner, args.seed)
    metrics = {}
    try:
        if args.trace:
            layers = run_traced(workload, tracer, work, args.seconds,
                                os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.jsonl"))
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
            for name, unit, _ in PER_LAYER:
                print(f"layer {name} {layers[name]:.6g} {unit}")
        else:
            e2e, named = run_untraced(workload, work, args.seconds)
            if e2e is not None:
                metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec}
            for name, value, unit, n in named:
                print(f"metric {name} {value:.6g} {unit} n={n}")
    except SetupError as e:
        print(e, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; echo its report lines, fail if any fails."""
    names = [w["name"] for w in load_benchmark()["workloads"]]
    results, ok = {}, True
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        ok = ok and proc.returncode == 0 and bool(result and result["correct"])
        print(f"== {name}: exit {proc.returncode}, "
              f"{result['attempted'] if result else '?'} calls, "
              f"{result['failed'] if result else '?'} failed")
        for line in lines[:-1]:
            if line.startswith(("metric ", "layer ")):
                print("  " + line)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
        results[name] = result
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
