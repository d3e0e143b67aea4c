"""In-memory span tracing of breakscore's layers, from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper under
the name its caller looks it up by (for example `breakscore.tasks.encoder_forward`
or `breakscore.nn.encoder.gelu`), so no file of the package changes and every
layer runs at the shapes the real pipeline gives it. `uninstall()` puts the
original functions back.

While `enabled` is false a wrapper only calls through. While it is true, a
span records its name, start, end, parent span and request id, and is kept in
memory until `write_spans`. The request id is the utterance id while scoring,
`fold<f>/step<s>` while training inside cross-validation, `step<s>` while
pretraining, and `fold<f>/<item id>` while a cross-validation predictor runs.
Counts are taken from tensor shapes at the same boundaries: rows, real and
padded tokens, scanned timesteps, and flops, which are computed, not measured.

A `*_s` metric is the time inside a layer's spans, its children included; a
`*_self_s` metric excludes the part its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

FUNCTIONAL_OPS = (
    "gelu", "gelu_backward", "linear", "linear_backward", "layer_norm",
    "layer_norm_backward", "softmax", "softmax_backward", "dropout",
    "dropout_backward", "batched_cross_entropy",
)
# Per-layer metrics, in report order: (name, unit, better). Times and counts
# are per measured round; rows per call and pad efficiency are ratios.
PER_LAYER = (
    *((f"nn.functional.{op}_s", "s", "lower") for op in FUNCTIONAL_OPS),
    ("nn.functional.linear_gflop", "GFLOP", "lower"),
    ("nn.encoder.forward_s", "s", "lower"),
    ("nn.encoder.forward_self_s", "s", "lower"),
    ("nn.encoder.backward_s", "s", "lower"),
    ("nn.encoder.backward_self_s", "s", "lower"),
    ("nn.encoder.attention_gflop", "GFLOP", "lower"),
    ("nn.bilstm.forward_s", "s", "lower"),
    ("nn.bilstm.backward_s", "s", "lower"),
    ("nn.bilstm.steps", "count", "lower"),
    ("nn.adam.step_s", "s", "lower"),
    ("nn.adam.steps", "count", "lower"),
    ("tasks.predict_overall_s", "s", "lower"),
    ("tasks.predict_finegrained_s", "s", "lower"),
    ("tasks.encoder_forward_calls", "count", "lower"),
    ("tasks.encoder_rows_per_call", "rows", "higher"),
    ("tasks.pad_efficiency", "ratio", "higher"),
    ("metrics.cv_train_s", "s", "lower"),
    ("metrics.cv_predict_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("alignment.parse_ctm_s", "s", "lower"),
    ("alignment.build_sequence_s", "s", "lower"),
    ("vocab.encode_s", "s", "lower"),
    ("synth.generate_native_s", "s", "lower"),
    ("synth.generate_esl_s", "s", "lower"),
    ("corruption.build_pretrain_dataset_s", "s", "lower"),
    ("bench.round_s", "s", "lower"),
    ("bench.traced_round_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.spans_per_round", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, start_ns, end_ns, parent_id, request_id)
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = ""
        self.enabled = False
        self._stack: list[int] = []
        self._fold = None
        self._step = 0
        self._patches: list[tuple] = []

    # -- span recording ------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            request = self.request_id
            spans.append(None)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, request)
                if on_return is not None:
                    on_return()

        return traced

    def _replace(self, module_name, attr, make):
        """Rebind `module.attr` to `make(original)`, remembering the original."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def _patch(self, module_name, attr, span, on_call=None, on_return=None):
        self._replace(module_name, attr, lambda fn: self._wrap(span, fn, on_call, on_return))

    # -- shape-derived counts ------------------------------------------------

    def _on_linear(self, args):
        x, w = args[0], args[1]
        self.counts["linear_flop"] += 2.0 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]

    def _on_linear_backward(self, args):
        x, w = args[1]
        self.counts["linear_flop"] += 4.0 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]

    def _on_encoder_forward(self, args):
        ids, pad_mask, cfg = args[0], args[1], args[3]
        b, l = ids.shape
        self.counts["encoder_forward_calls"] += 1
        self.counts["encoder_rows"] += b
        self.counts["real_tokens"] += int(pad_mask.sum())
        self.counts["padded_tokens"] += b * l
        self.counts["attention_flop"] += 4.0 * b * l * l * cfg.d_model

    def _on_encoder_backward(self, args):
        cache = args[1]
        b, l = cache["ids"].shape
        self.counts["attention_flop"] += 8.0 * b * l * l * cache["cfg"].d_model

    def _on_bilstm_forward(self, args):
        self.counts["bilstm_steps"] += 2 * args[0].shape[1]   # both directions

    def _set_step(self, step: int):
        self._step = step
        prefix = f"fold{self._fold}/" if self._fold is not None else ""
        self.request_id = f"{prefix}step{step}"

    def _after_adam_step(self):
        """Forward, backward and update of one step share its request id."""
        self.counts["adam_steps"] += 1
        self._set_step(self._step + 1)

    def _on_build_sequence(self, args):
        self.request_id = args[0].id

    def _trace_cv(self, make_trained_predictor):
        """Wrap cli.make_trained_predictor so train_fn and predictors are timed."""
        tracer = self

        def on_predict(args):
            tracer.request_id = f"fold{tracer._fold}/{args[0].id}"

        def factory(*args, **kwargs):
            timed_train = tracer._wrap("metrics.cv_train", make_trained_predictor(*args, **kwargs))

            def fold_train(train_items, fold_seed):
                tracer._fold = 0 if tracer._fold is None else tracer._fold + 1
                tracer._set_step(1)
                return tracer._wrap("metrics.cv_predict", timed_train(train_items, fold_seed),
                                    on_predict)

            return fold_train

        return factory

    # -- install / uninstall -------------------------------------------------

    def install(self):
        for op in FUNCTIONAL_OPS:
            if op == "batched_cross_entropy":
                continue
            hook = {"linear": self._on_linear, "linear_backward": self._on_linear_backward}.get(op)
            self._patch("breakscore.nn.encoder", op, f"nn.functional.{op}", hook)
        self._patch("breakscore.tasks", "batched_cross_entropy", "nn.functional.batched_cross_entropy")
        self._patch("breakscore.tasks", "softmax", "nn.functional.softmax")
        self._patch("breakscore.tasks", "encoder_forward", "nn.encoder.forward", self._on_encoder_forward)
        self._patch("breakscore.tasks", "encoder_backward", "nn.encoder.backward", self._on_encoder_backward)
        self._patch("breakscore.tasks", "bilstm_forward", "nn.bilstm.forward", self._on_bilstm_forward)
        self._patch("breakscore.tasks", "bilstm_backward", "nn.bilstm.backward")
        self._patch("breakscore.tasks", "adam_step", "nn.adam.step", on_return=self._after_adam_step)
        self._patch("breakscore.tasks", "predict_overall", "tasks.predict_overall")
        self._patch("breakscore.tasks", "predict_finegrained", "tasks.predict_finegrained")
        self._patch("breakscore.cli", "load_checkpoint", "checkpoint.load")
        self._patch("breakscore.cli", "save_checkpoint", "checkpoint.save")
        self._patch("breakscore.cli", "encode", "vocab.encode")
        self._patch("breakscore.alignment", "parse_ctm", "alignment.parse_ctm")
        self._patch("breakscore.alignment", "build_sequence", "alignment.build_sequence",
                    self._on_build_sequence)
        self._patch("breakscore.synth", "generate_native", "synth.generate_native")
        self._patch("breakscore.synth", "generate_esl", "synth.generate_esl")
        self._patch("breakscore.corruption", "build_pretrain_dataset",
                    "corruption.build_pretrain_dataset")
        self._replace("breakscore.cli", "make_trained_predictor", self._trace_cv)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def start_operation(self, request_id: str):
        """Reset the request state before one CLI call."""
        self._fold = None
        self._step = 1
        self.request_id = request_id

    # -- reduction -----------------------------------------------------------

    @staticmethod
    def totals(spans) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the part of it that its child
        spans cover.
        """
        children = defaultdict(list)
        for span in spans:
            if span[4] >= 0:
                children[span[4]].append((span[2], span[3]))
        inclusive, self_time = defaultdict(float), defaultdict(float)
        for span_id, name, start, end, _, _ in spans:
            covered, cursor = 0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            inclusive[name] += (end - start) / 1e9
            self_time[name] += (end - start - covered) / 1e9
        return inclusive, self_time

    def mark(self) -> tuple[int, dict]:
        """A point in the record; `per_layer` reduces what came after it."""
        return len(self.spans), dict(self.counts)

    def per_layer(self, since: tuple[int, dict], rounds: int) -> dict:
        """Per-layer metric values recorded after `since`, divided by `rounds`."""
        inclusive, self_time = self.totals(self.spans[since[0]:])
        c = defaultdict(float, {k: v - since[1].get(k, 0.0) for k, v in self.counts.items()})
        out = {}
        for name, _, _ in PER_LAYER:
            if name.endswith("_self_s"):
                out[name] = self_time[name[: -len("_self_s")]] / rounds
            elif name.endswith("_s") and not name.startswith("bench."):
                out[name] = inclusive[name[: -len("_s")]] / rounds
        out["nn.functional.linear_gflop"] = c["linear_flop"] / 1e9 / rounds
        out["nn.encoder.attention_gflop"] = c["attention_flop"] / 1e9 / rounds
        out["nn.bilstm.steps"] = c["bilstm_steps"] / rounds
        out["nn.adam.steps"] = c["adam_steps"] / rounds
        calls = c["encoder_forward_calls"]
        out["tasks.encoder_forward_calls"] = calls / rounds
        out["tasks.encoder_rows_per_call"] = c["encoder_rows"] / calls if calls else 0.0
        padded = c["padded_tokens"]
        out["tasks.pad_efficiency"] = c["real_tokens"] / padded if padded else 0.0
        out["bench.spans_per_round"] = (len(self.spans) - since[0]) / rounds
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for span_id, name, start, end, parent, request in self.spans:
                f.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": None if parent < 0 else parent, "request": request,
                }, separators=(",", ":")) + "\n")

