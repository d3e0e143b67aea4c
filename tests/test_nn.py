"""Numerical core: primitives, encoder, BiLSTM, Adam, gradient checking."""
import math
import time
import tracemalloc

import numpy as np
import pytest

from breakscore.exceptions import DataError
from breakscore.nn.adam import adam_step
from breakscore.nn.bilstm import BiLstmConfig, bilstm_backward, bilstm_forward
from breakscore.nn.encoder import EncoderConfig, encoder_backward, encoder_forward
from breakscore.nn.functional import (
    batched_cross_entropy,
    dropout,
    dropout_backward,
    embedding_backward,
    gelu,
    gelu_backward,
    init_params,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    softmax,
    softmax_backward,
    trunc_normal,
)
from breakscore.rngs import make_rng
from gradcheck import grad_check


def softmax_cross_entropy(logits, target: int):
    """Reference loss and d(loss)/d(logits) for one sample: -log softmax[target]."""
    p = softmax(np.asarray(logits))
    grad = p.copy()
    grad[target] -= 1.0
    return float(-np.log(p[target])), grad


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self):
        rng = make_rng(0, "t")
        x = rng.normal(size=(4, 7))
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_softmax_shift_invariant(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 1000.0), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_in_place_bitwise_equal(self, dtype):
        # The in-place form must round exactly like exp(x - max) / sum, on an
        # attention-shaped input and along a non-last axis; x stays unchanged.
        x = (make_rng(3, "t").normal(size=(2, 4, 9, 9)) * 5).astype(dtype)
        before = x.copy()
        for axis in (-1, 1):
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            ref = e / e.sum(axis=axis, keepdims=True)
            got = softmax(x, axis=axis)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(x, before)

    def test_layer_norm_statistics(self):
        rng = make_rng(1, "t")
        x = rng.normal(size=(3, 5, 16)) * 4 + 2
        y, _ = layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-4)

    def test_gelu_reference_values(self):
        # tanh approximation of x * Phi(x); spot values straight from the formula.
        for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
            u = math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)
            want = 0.5 * x * (1 + math.tanh(u))
            got, _ = gelu(np.array([x]))
            assert got[0] == pytest.approx(want, abs=1e-12)

    def test_gelu_not_much_slower_than_tanh(self):
        # Speed guard: a machine-independent ratio. The tanh-approximation GELU
        # is a handful of elementwise ops around one tanh; a float32 `x**3`
        # goes through `pow` and costs more than ten tanh calls on its own.
        x = make_rng(4, "t").normal(size=(64, 100, 128)).astype(np.float32)

        def best_of(fn, repeats=15):
            fn(x)   # warm-up: first touches of fresh temporaries page-fault
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(x)
                times.append(time.perf_counter() - t0)
            return min(times)

        ratio = best_of(gelu) / best_of(np.tanh)
        assert ratio <= 10.0, f"gelu takes {ratio:.1f}x the time of np.tanh"

    def test_linear_3d_matches_per_row_reference(self):
        rng = make_rng(5, "t")
        x = rng.normal(size=(3, 5, 7)).astype(np.float32)
        w = rng.normal(size=(7, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        dy = rng.normal(size=(3, 5, 4)).astype(np.float32)
        x64, w64, dy64 = (a.astype(np.float64) for a in (x, w, dy))
        y_ref = np.empty((3, 5, 4))
        dx_ref = np.empty((3, 5, 7))
        dw_ref = np.zeros((7, 4))
        for i in range(3):
            for j in range(5):
                y_ref[i, j] = x64[i, j] @ w64 + b
                dx_ref[i, j] = w64 @ dy64[i, j]
                dw_ref += np.outer(x64[i, j], dy64[i, j])
        y, cache = linear(x, w, b)
        dx, dw, db = linear_backward(dy, cache)
        assert y.shape == (3, 5, 4) and y.dtype == np.float32
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        np.testing.assert_allclose(y, y_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dw, dw_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(db, dy64.sum(axis=(0, 1)), rtol=1e-5, atol=1e-5)

    def test_cross_entropy_uniform_logits(self):
        loss, grad = softmax_cross_entropy(np.zeros(3), 1)
        assert loss == pytest.approx(math.log(3))
        np.testing.assert_allclose(grad, [1 / 3, -2 / 3, 1 / 3], atol=1e-12)

    def test_batched_cross_entropy_matches_single(self):
        rng = make_rng(2, "t")
        logits = rng.normal(size=(6, 3))
        targets = rng.integers(0, 3, size=6)
        loss, dl = batched_cross_entropy(logits, targets)
        singles = [softmax_cross_entropy(logits[i], int(targets[i])) for i in range(6)]
        assert loss == pytest.approx(np.mean([s for s, _ in singles]))
        np.testing.assert_allclose(dl, np.stack([g for _, g in singles]) / 6, atol=1e-12)

    def test_trunc_normal_clipped(self):
        x = trunc_normal((10000,), make_rng(3, "t"), std=0.02)
        assert x.dtype == np.float32
        assert np.abs(x).max() <= 0.04 + 1e-9


class TestInPlaceOps:
    """The ops that work in place on their own buffers: float64 finite
    differences, no clobbered inputs, and the dropout random stream."""

    @staticmethod
    def _probe(shape, seed):
        return make_rng(seed, "probe").normal(size=shape)

    def test_layer_norm_gradients(self):
        rng = make_rng(6, "t")
        params = {"x": rng.normal(size=(2, 3, 8)) * 3 + 1,
                  "gain": rng.normal(size=8), "bias": rng.normal(size=8)}
        w = self._probe((2, 3, 8), 1)

        def loss_fn(p):
            y, cache = layer_norm(p["x"], p["gain"], p["bias"])
            dx, dgain, dbias = layer_norm_backward(w, cache)
            return float((y * w).sum()), {"x": dx, "gain": dgain, "bias": dbias}

        assert grad_check(loss_fn, params) < 1e-5

    def test_layer_norm_matches_two_pass_reference(self):
        x = make_rng(7, "t").normal(size=(4, 5, 16)) * 4 + 2
        gain, bias = np.linspace(0.5, 2, 16), np.linspace(-1, 1, 16)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
        y, _ = layer_norm(x, gain, bias)
        np.testing.assert_allclose(y, want, rtol=0, atol=1e-12)

    def test_gelu_gradient(self):
        params = {"x": make_rng(8, "t").normal(size=(3, 4, 6))}
        w = self._probe((3, 4, 6), 2)

        def loss_fn(p):
            y, cache = gelu(p["x"])
            return float((y * w).sum()), {"x": gelu_backward(w, cache)}

        assert grad_check(loss_fn, params) < 1e-5

    def test_softmax_gradient_over_axis_minus_2(self):
        # Keys-major attention scores [B, H, keys, queries] normalize over keys.
        params = {"x": make_rng(9, "t").normal(size=(2, 2, 5, 4))}
        w = self._probe((2, 2, 5, 4), 3)

        def loss_fn(p):
            probs = softmax(p["x"], axis=-2)
            return float((probs * w).sum()), {"x": softmax_backward(w, probs, axis=-2)}

        np.testing.assert_allclose(softmax(params["x"], axis=-2).sum(axis=-2), 1.0, atol=1e-12)
        assert grad_check(loss_fn, params) < 1e-5

    def test_embedding_gradient_with_repeated_ids_and_padding(self):
        # Ids repeat within and across rows, and the probe also weights padded
        # positions, so the [PAD] row collects gradient from many places; the
        # last row is all padding after [CLS].
        cfg, params = tiny_encoder()
        ids = np.array([[2, 5, 5, 7, 5, 0], [2, 7, 7, 7, 0, 0], [2, 0, 0, 0, 0, 0]])
        mask = ids != 0
        w = self._probe((3, 6, 8), 4)

        def loss_fn(p):
            h, cache = encoder_forward(ids, mask, p, cfg)
            return float((h * w).sum()), encoder_backward(w.astype(h.dtype), cache)

        # Every coordinate of the token embedding is probed.
        assert grad_check(loss_fn, params, n_coords=params["tok_emb"].size) < 1e-4

    def test_ops_leave_their_inputs_unchanged(self):
        rng = make_rng(10, "t")
        x = rng.normal(size=(2, 3, 8)).astype(np.float32)
        dy = rng.normal(size=(2, 3, 8)).astype(np.float32)
        w = rng.normal(size=(8, 8)).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        scores = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        dscores = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        probs = softmax(scores, axis=-2)
        _, lin_cache = linear(x, w, b)
        _, ln_cache = layer_norm(x, b, b)
        _, gelu_cache = gelu(x)
        _, mask = dropout(x, 0.3, make_rng(0, "d"))
        calls = [
            (linear, (x, w, b)), (linear_backward, (dy, lin_cache)),
            (layer_norm, (x, b, b)), (layer_norm_backward, (dy, ln_cache)),
            (gelu, (x,)), (gelu_backward, (dy, gelu_cache)),
            (softmax, (scores, -2)), (softmax_backward, (dscores, probs, -2)),
            (dropout, (x, 0.3, make_rng(1, "d"))), (dropout_backward, (dy, mask)),
        ]
        arrays = [x, dy, w, b, scores, dscores, probs, mask, *lin_cache, *ln_cache, *gelu_cache]
        before = [a.copy() for a in arrays]
        for fn, args in calls:
            fn(*args)
            for a, saved in zip(arrays, before):
                np.testing.assert_array_equal(a, saved, err_msg=fn.__name__)

    def test_encoder_leaves_inputs_and_cache_unchanged(self):
        # Backward consumes its cache but writes into none of the arrays it
        # saved: each keeps its bytes, and the gradients equal those of a fresh
        # forward and backward. A second backward on the consumed cache is an
        # error, not a read of what is left.
        cfg, params = tiny_encoder(dropout=0.2)
        ids = np.array([[2, 8, 4, 9, 5, 0], [2, 10, 0, 0, 0, 0]])
        mask = ids != 0
        dhidden = make_rng(11, "t").normal(size=(2, 6, 8)).astype(np.float32)
        saved = {k: v.copy() for k, v in params.items()}
        ids_saved, dh_saved = ids.copy(), dhidden.copy()

        def forward():
            return encoder_forward(ids, mask, params, cfg, dropout_rng=make_rng(0, "drop"))

        h, cache = forward()
        h_saved = h.copy()
        cached = list(_arrays(cache))
        cached_saved = [a.copy() for a in cached]
        first = encoder_backward(dhidden, cache)
        assert set(cache) == {"ids", "l", "positions", "scale", "cfg", "dtype"}
        with pytest.raises(RuntimeError, match="consumed"):
            encoder_backward(dhidden, cache)
        fresh = encoder_backward(dhidden, forward()[1])
        for k in params:
            np.testing.assert_array_equal(params[k], saved[k], err_msg=k)
            np.testing.assert_array_equal(first[k], fresh[k], err_msg=k)
        for a, a_saved in zip(cached, cached_saved):
            np.testing.assert_array_equal(a, a_saved)
        np.testing.assert_array_equal(ids, ids_saved)
        np.testing.assert_array_equal(dhidden, dh_saved)
        np.testing.assert_array_equal(h, h_saved)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_mask_bitwise_equal_to_reference(self, dtype):
        # Same random draws and the same rounding as the out-of-place formula.
        x = make_rng(12, "t").normal(size=(4, 5, 6)).astype(dtype)
        p = 0.1
        want = (make_rng(3, "d").random(x.shape) >= p).astype(dtype) / np.asarray(1.0 - p, dtype=dtype)
        out, keep = dropout(x, p, make_rng(3, "d"))
        assert keep.dtype == dtype and out.dtype == dtype
        np.testing.assert_array_equal(keep, want)
        np.testing.assert_array_equal(out, x * want)

    @pytest.mark.parametrize("time_major", [False, True])
    def test_embedding_gradient_bitwise_equal_to_row_wise_scatter(self, time_major):
        # The flat scatter sums each entry's rows in the order a row-wise
        # np.add.at does, so float32 rounding matches to the bit. Ids repeat
        # within and across rows, as [PAD] and [CLS] do; the Bi-LSTM passes
        # time-major ids ([L, B] views of [B, L] ones).
        rng = make_rng(13, "t")
        ids = rng.integers(0, 9, size=(7, 12))
        ids = ids.T if time_major else ids
        dx = rng.normal(size=(*ids.shape, 5)).astype(np.float32)
        want = np.zeros((9, 5), dtype=np.float32)
        np.add.at(want, ids.reshape(-1), dx.reshape(-1, 5))
        got = embedding_backward(ids, dx, 9)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def _arrays(obj):
    """Every numpy array inside a backward cache of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def tiny_encoder(dropout=0.0):
    cfg = EncoderConfig(
        vocab_size=12, d_model=8, n_heads=2, n_layers=2, ffn_dim=16,
        max_len=10, dropout_prob=dropout,
    )
    params = init_params(cfg.param_shapes(), make_rng(0, "init"))
    return cfg, params


class TestEncoder:
    def test_shapes_and_determinism(self):
        cfg, params = tiny_encoder()
        ids = np.array([[2, 8, 4, 9, 0], [2, 10, 5, 0, 0]])
        mask = ids != 0
        h1, _ = encoder_forward(ids, mask, params, cfg)
        h2, _ = encoder_forward(ids, mask, params, cfg)
        assert h1.shape == (2, 5, 8)
        np.testing.assert_array_equal(h1, h2)

    def test_attention_rows_sum_to_one(self):
        cfg, params = tiny_encoder()
        ids = np.array([[2, 8, 4, 9, 0]])
        _, cache = encoder_forward(ids, ids != 0, params, cfg)
        for layer in cache["layers"]:
            np.testing.assert_allclose(layer["probs"].sum(axis=-1), 1.0, atol=1e-5)

    def test_padding_cannot_influence_real_positions(self):
        cfg, params = tiny_encoder()
        a = np.array([[2, 8, 4, 9, 0, 0]])
        b = np.array([[2, 8, 4, 9, 7, 11]])
        mask = np.array([[True, True, True, True, False, False]])
        ha, _ = encoder_forward(a, mask, params, cfg)
        hb, _ = encoder_forward(b, mask, params, cfg)
        np.testing.assert_allclose(ha[0, :4], hb[0, :4], atol=1e-6)

    def test_dtype_preserved(self):
        cfg, params = tiny_encoder()
        ids = np.array([[2, 8, 4]])
        h32, _ = encoder_forward(ids, ids != 0, params, cfg)
        assert h32.dtype == np.float32
        p64 = {k: v.astype(np.float64) for k, v in params.items()}
        h64, _ = encoder_forward(ids, ids != 0, p64, cfg)
        assert h64.dtype == np.float64

    def test_out_of_vocab_id(self):
        cfg, params = tiny_encoder()
        with pytest.raises(DataError):
            encoder_forward(np.array([[2, 99]]), np.ones((1, 2), bool), params, cfg)

    def test_gradients_against_finite_differences(self):
        cfg, params = tiny_encoder()
        ids = np.array([[2, 8, 4, 9], [2, 10, 0, 0]])
        mask = ids != 0
        w = make_rng(1, "probe").normal(size=(2, 4, 8))

        def loss_fn(p):
            h, cache = encoder_forward(ids, mask, p, cfg)
            loss = float((h * w.astype(h.dtype) * mask[..., None]).sum())
            grads = encoder_backward((w * mask[..., None]).astype(h.dtype), cache)
            return loss, grads

        assert grad_check(loss_fn, params, n_coords=40) < 1e-4

    @pytest.mark.parametrize("n_layers", [1, 2, 0])
    @pytest.mark.parametrize("head", ["cls", "fine"])
    def test_cut_positions_equal_those_of_all_rows(self, head, n_layers):
        # float64 on a padded batch. The hidden states at the positions a head
        # reads, [CLS] alone or some break columns, are those columns of the
        # all-rows ones, and their backward gives the all-rows backward's
        # gradients for a dhidden zero off those columns. Tolerances are
        # absolute: bk's true gradient is 0, since the softmax over keys is
        # shift-invariant, so its computed value is rounding noise.
        cfg = EncoderConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=n_layers,
                            ffn_dim=16, max_len=10)
        params = {k: v.astype(np.float64)
                  for k, v in init_params(cfg.param_shapes(), make_rng(0, "init")).items()}
        params = {k: v * 20 if v.ndim == 2 else v for k, v in params.items()}  # away from linear
        ids = np.array([[2, 8, 4, 9, 5, 0], [2, 10, 3, 0, 0, 0], [2, 7, 7, 6, 11, 4]])
        mask = ids != 0
        positions = {"cls": [0], "fine": np.array([1, 3, 4])}[head]
        full, full_cache = encoder_forward(ids, mask, params, cfg)
        cut, cut_cache = encoder_forward(ids, mask, params, cfg, positions=positions)
        assert cut.shape == (3, len(positions), 8)
        np.testing.assert_allclose(cut, full[:, positions], rtol=0, atol=1e-12)

        dfull = np.zeros_like(full)
        dfull[:, positions] = make_rng(2, "probe").normal(size=cut.shape)
        want = encoder_backward(dfull, full_cache)
        got = encoder_backward(dfull[:, positions], cut_cache)
        assert set(got) == set(want) == set(params)
        for k in params:
            np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-10, err_msg=k)

    @pytest.mark.parametrize("batch, length", [(32, 95), (4, 20)])
    @pytest.mark.parametrize("head", ["cls", "breaks", "all"])
    def test_backward_frees_each_activation_once_used(self, batch, length, head):
        # Traced from before the forward, backward's heap peak above its entry
        # stays within two of the widest attention arrays (layer 0's [B, H, L, L]
        # scores gradient and its input), four [B, L, d_model] arrays and the
        # gradients it returns. A backward that kept each temporary until its
        # name was rebound went to about twice that at [32, 95].
        cfg = EncoderConfig(vocab_size=203, d_model=64, n_heads=4, n_layers=2, ffn_dim=128,
                            max_len=128, dropout_prob=0.1)
        params = init_params(cfg.param_shapes(), make_rng(0, "init"))
        ids = make_rng(14, "ids").integers(8, cfg.vocab_size, size=(batch, length))
        ids[:, 0] = 2
        mask = np.arange(length)[None, :] < np.linspace(length, 2, batch).astype(int)[:, None]
        ids[~mask] = 0
        positions = {"cls": [0], "breaks": np.arange(1, length, 2), "all": slice(None)}[head]
        tracemalloc.start()
        try:
            h, cache = encoder_forward(ids, mask, params, cfg, dropout_rng=make_rng(5, "drop"),
                                       positions=positions)
            dhidden = np.ones_like(h)
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            grads = encoder_backward(dhidden, cache)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        attention, row = batch * cfg.n_heads * length * length * 4, batch * length * cfg.d_model * 4
        bound = 2 * attention + 4 * row + sum(g.nbytes for g in grads.values())
        assert peak <= bound, (peak, bound)

    def test_broken_gradient_is_detected(self):
        # Sensitivity check: a corrupted backward must trip the checker.
        cfg, params = tiny_encoder()
        ids = np.array([[2, 8, 4, 9]])
        mask = ids != 0

        def broken_fn(p):
            h, cache = encoder_forward(ids, mask, p, cfg)
            grads = encoder_backward(np.ones_like(h), cache)
            grads["lnf_b"] = grads["lnf_b"] * 3.0
            return float(h.sum()), grads

        assert grad_check(broken_fn, params, n_coords=40) > 1e-1


def tiny_bilstm():
    cfg = BiLstmConfig(vocab_size=12, embed_dim=6, hidden_size=5)
    params = init_params(cfg.param_shapes(), make_rng(0, "init"))
    return cfg, params


class TestBiLstm:
    def test_backward_consumes_its_cache(self):
        # Each direction's scan cache is popped, with none of its arrays
        # written; the gradients equal those of a fresh forward and backward.
        cfg, params = tiny_bilstm()
        ids = np.array([[2, 8, 4, 9], [2, 10, 0, 0]])
        dhidden = make_rng(15, "t").normal(size=(2, 4, 10)).astype(np.float32)
        _, cache = bilstm_forward(ids, ids != 0, params, cfg)
        cached = list(_arrays(cache))
        cached_saved = [a.copy() for a in cached]
        first = bilstm_backward(dhidden, params, cache)
        assert set(cache) == {"ids", "cfg"}
        with pytest.raises(RuntimeError, match="consumed"):
            bilstm_backward(dhidden, params, cache)
        fresh = bilstm_backward(dhidden, params, bilstm_forward(ids, ids != 0, params, cfg)[1])
        for k in params:
            np.testing.assert_array_equal(first[k], fresh[k], err_msg=k)
        for a, a_saved in zip(cached, cached_saved):
            np.testing.assert_array_equal(a, a_saved)

    def test_shapes(self):
        cfg, params = tiny_bilstm()
        ids = np.array([[2, 8, 4, 0], [2, 9, 0, 0]])
        h, _ = bilstm_forward(ids, ids != 0, params, cfg)
        assert h.shape == (2, 4, 10)

    def test_padded_positions_do_not_leak(self):
        cfg, params = tiny_bilstm()
        a = np.array([[2, 8, 4, 0, 0]])
        b = np.array([[2, 8, 4, 7, 11]])
        mask = np.array([[True, True, True, False, False]])
        ha, _ = bilstm_forward(a, mask, params, cfg)
        hb, _ = bilstm_forward(b, mask, params, cfg)
        np.testing.assert_allclose(ha[0, :3], hb[0, :3], atol=1e-7)

    def test_batch_padding_invariance_both_directions(self):
        # Each sample's states, forward and backward halves alike, are the same
        # alone as inside a mixed-length padded batch.
        cfg, params = tiny_bilstm()
        samples = [[2, 8, 4, 9, 5, 7], [2, 10], [2, 3, 6, 11], [2]]
        width = max(len(s) for s in samples)
        ids = np.zeros((len(samples), width), dtype=np.int64)
        for r, s in enumerate(samples):
            ids[r, : len(s)] = s
        h_batch, _ = bilstm_forward(ids, ids != 0, params, cfg)
        hid = cfg.hidden_size
        for r, s in enumerate(samples):
            alone = np.array([s])
            h_alone, _ = bilstm_forward(alone, alone != 0, params, cfg)
            n = len(s)
            np.testing.assert_allclose(h_batch[r, :n, :hid], h_alone[0, :, :hid], atol=1e-6)
            np.testing.assert_allclose(h_batch[r, :n, hid:], h_alone[0, :, hid:], atol=1e-6)

    def test_direction_swap_under_reversal(self):
        # Reversing an unpadded sequence swaps and reverses the two halves.
        cfg, params = tiny_bilstm()
        # Use identical fw/bw weights so directions are comparable.
        for k in ("wx", "wh", "b"):
            params[f"bw_{k}"] = params[f"fw_{k}"].copy()
        ids = np.array([[2, 8, 4, 9, 5]])
        mask = np.ones_like(ids, dtype=bool)
        h_fwd, _ = bilstm_forward(ids, mask, params, cfg)
        h_rev, _ = bilstm_forward(ids[:, ::-1].copy(), mask, params, cfg)
        hid = cfg.hidden_size
        np.testing.assert_allclose(
            h_fwd[0, :, :hid], h_rev[0, ::-1, hid:], atol=1e-6
        )
        np.testing.assert_allclose(
            h_fwd[0, :, hid:], h_rev[0, ::-1, :hid], atol=1e-6
        )

    def test_gradients_against_finite_differences(self):
        cfg, params = tiny_bilstm()
        ids = np.array([[2, 8, 4, 9], [2, 10, 0, 0]])
        mask = ids != 0
        w = make_rng(2, "probe").normal(size=(2, 4, 10))

        def loss_fn(p):
            h, cache = bilstm_forward(ids, mask, p, cfg)
            loss = float((h * w.astype(h.dtype) * mask[..., None]).sum())
            grads = bilstm_backward((w * mask[..., None]).astype(h.dtype), p, cache)
            return loss, grads

        assert grad_check(loss_fn, params, n_coords=40) < 1e-4

    def test_every_gradient_coordinate_on_mixed_lengths(self):
        # All coordinates of every tensor, on a batch whose rows end at
        # different steps. The probe also weights padded positions, where the
        # forward scan's output is its carried last real state.
        cfg = BiLstmConfig(vocab_size=12, embed_dim=4, hidden_size=3)
        params = init_params(cfg.param_shapes(), make_rng(1, "init"))
        params = {k: v * 20 for k, v in params.items()}   # away from the linear regime
        ids = np.array([[2, 8, 4, 9, 5], [2, 10, 3, 0, 0], [2, 0, 0, 0, 0]])
        mask = ids != 0
        w = make_rng(3, "probe").normal(size=(3, 5, 6))

        def loss_fn(p):
            h, cache = bilstm_forward(ids, mask, p, cfg)
            dh = w.astype(h.dtype)
            return float((h * dh).sum()), bilstm_backward(dh, p, cache)

        assert grad_check(loss_fn, params, n_coords=1000) < 1e-5


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_bilstm(ids, lengths, dhidden, params, hid):
    """Textbook Bi-LSTM, one row and one step at a time, with the carry
    semantics: past a row's length the forward direction repeats its last
    state and the backward direction still holds its zero initial state.
    Returns (hidden [B, L, 2H], grads) for the loss sum(hidden * dhidden)."""
    bsz, length = ids.shape
    hidden = np.zeros((bsz, length, 2 * hid))
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    for r in range(bsz):
        n = lengths[r]
        for d, col in (("fw", 0), ("bw", hid)):
            wx, wh, b = params[f"{d}_wx"], params[f"{d}_wh"], params[f"{d}_b"]
            order = list(range(n)) if d == "fw" else list(range(n - 1, -1, -1))
            h, c, steps = np.zeros(hid), np.zeros(hid), []
            for t in order:
                x = params["emb"][ids[r, t]]
                z = x @ wx + h @ wh + b
                i, f = _sigmoid(z[:hid]), _sigmoid(z[hid : 2 * hid])
                g, o = np.tanh(z[2 * hid : 3 * hid]), _sigmoid(z[3 * hid :])
                c_new = f * c + i * g
                steps.append((t, x, h, c, i, f, g, o, np.tanh(c_new)))
                c, h = c_new, o * np.tanh(c_new)
                hidden[r, t, col : col + hid] = h
            dh_out = dhidden[r, :, col : col + hid].copy()
            if d == "fw":
                hidden[r, n:, :hid] = h
                dh_out[n - 1] += dh_out[n:].sum(axis=0)
            dh_next, dc_next = np.zeros(hid), np.zeros(hid)
            for t, x, h_prev, c_prev, i, f, g, o, tc in reversed(steps):
                dh = dh_out[t] + dh_next
                dc = dh * o * (1 - tc**2) + dc_next
                dz = np.concatenate([dc * g * i * (1 - i), dc * c_prev * f * (1 - f),
                                     dc * i * (1 - g**2), dh * tc * o * (1 - o)])
                grads[f"{d}_wx"] += np.outer(x, dz)
                grads[f"{d}_wh"] += np.outer(h_prev, dz)
                grads[f"{d}_b"] += dz
                grads["emb"][ids[r, t]] += dz @ wx.T
                dh_next, dc_next = dz @ wh.T, dc * f
    return hidden, grads


class TestBiLstmAgainstReference:
    """The batched time-major scan against `reference_bilstm` in float64."""

    @pytest.mark.parametrize("lengths", [[6, 6, 6], [6, 3, 6, 1, 4], [5]],
                             ids=["full", "mixed", "batch1"])
    def test_forward_and_every_gradient(self, lengths):
        cfg = BiLstmConfig(vocab_size=12, embed_dim=5, hidden_size=4)
        rng = make_rng(4, "reference")
        params = {k: rng.normal(0.0, 0.5, size=v.shape)
                  for k, v in init_params(cfg.param_shapes(), rng).items()}
        width = max(lengths)
        mask = np.arange(width)[None, :] < np.array(lengths)[:, None]
        ids = np.where(mask, rng.integers(1, cfg.vocab_size, size=mask.shape), 0)
        if len(set(lengths)) > 1:
            # Both scan branches run: steps where every row is real, and padded ones.
            assert mask.all(axis=0).any() and not mask.all(axis=0).all()
        dhidden = rng.normal(size=(len(lengths), width, 2 * cfg.hidden_size))

        h, cache = bilstm_forward(ids, mask, params, cfg)
        grads = bilstm_backward(dhidden, params, cache)
        h_ref, grads_ref = reference_bilstm(ids, lengths, dhidden, params, cfg.hidden_size)

        hid = cfg.hidden_size
        assert h.dtype == np.float64
        np.testing.assert_allclose(h[..., :hid], h_ref[..., :hid], rtol=0, atol=1e-6)
        np.testing.assert_allclose(h[..., hid:], h_ref[..., hid:], rtol=0, atol=1e-6)
        assert set(grads) == set(params)
        for k in params:
            np.testing.assert_allclose(grads[k], grads_ref[k], rtol=0, atol=1e-6, err_msg=k)


class TestAdam:
    def test_matches_reference_implementation(self):
        # Oracle: textbook bias-corrected Adam on a quadratic, 5 steps.
        def reference(theta0, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
            theta = theta0.copy()
            m = np.zeros_like(theta)
            v = np.zeros_like(theta)
            for t, g in enumerate(grads_seq, start=1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
            return theta

        theta = np.array([1.0, -2.0, 0.5])
        grads_seq = [2.0 * (theta + t) for t in range(5)]  # arbitrary fixed grads
        want = reference(theta, grads_seq, lr=0.01)

        p, m, v = theta.copy(), np.zeros(3), np.zeros(3)
        for t, g in enumerate(grads_seq, start=1):
            adam_step(p, g, m, v, t, lr=0.01)
        np.testing.assert_allclose(p, want, atol=1e-6)

    def test_descends_a_quadratic(self):
        p, m, v = np.array([5.0, -3.0]), np.zeros(2), np.zeros(2)
        for t in range(1, 2001):
            adam_step(p, 2.0 * p, m, v, t, lr=0.01)
        assert np.abs(p).max() < 1e-2

    def test_flat_row_updates_each_slice_as_alone(self):
        # Training steps every parameter at once, as one row of the shared
        # mapping; that is bitwise a step of each named array on its own.
        rng = make_rng(0, "adam")
        p = rng.normal(size=7).astype(np.float32)
        parts = [p[:3].copy(), p[3:].copy()]
        moments = [(np.zeros(3, np.float32), np.zeros(3, np.float32)),
                   (np.zeros(4, np.float32), np.zeros(4, np.float32))]
        m, v = np.zeros(7, np.float32), np.zeros(7, np.float32)
        for t in range(1, 4):
            g = rng.normal(size=7).astype(np.float32)
            adam_step(p, g, m, v, t, lr=1e-3)
            for part, (pm, pv), gs in zip(parts, moments, (g[:3], g[3:])):
                adam_step(part, gs, pm, pv, t, lr=1e-3)
        assert p.tobytes() == np.concatenate(parts).tobytes()
