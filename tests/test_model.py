import dataclasses
import json
import math
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import afpm.data_model
import afpm.model
import afpm.training
from afpm.config import resolve_config
from afpm.data_model import task_template
from afpm.errors import ConfigError, DataError, NumericError
from afpm.model import (
    EVAL_BATCH, INIT_SIGMA, FlatLayout, FPEConfig, Model, ModelConfig, TransformerConfig,
    _block_backward, _block_forward, _window_map, assemble_tokens, averaged_count,
    backward_cached, extract_patches, factored_attention, forward, forward_cached, init_model,
    load_checkpoint, micro_batches, model_dims, param_shapes, patch_count, save_checkpoint,
    window_matrix,
)
from afpm.pipeline import stacked_model_config
from afpm.training import (
    OptimizerState, TrainConfig, adamw_step, batch_cross_entropy, train,
)

from conftest import classes, fail_writes_in, named_backward, run_backward, same_bits


def small_cfg(m=3, t_prime=64, depth=1, heads=2, dim_head=3, per_channel=False):
    fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=8, avg_window=2,
                    avg_shift=2, token_dim=8, mlp_hidden=8)
    t = TransformerConfig(depth=depth, heads=heads, dim_head=dim_head, dim_mlp=6)
    channels = tuple(f"C{i}" for i in range(m))
    return ModelConfig(task="mi", template_channels=channels, template_len=t_prime,
                       fpe=fpe, transformer=t, class_names=classes(),
                       per_channel_patches=per_channel)


# What a block's cache keeps beyond u, per attention form.
FULL_CACHE_KEYS = {"heads": {"q", "k", "v", "ctx", "att"}, "factored": {"y", "att"}}


def attention_forms(monkeypatch):
    """Each attention form in turn, forced through ``factored_attention``. small_cfg's
    heads (dim_head 3) are narrower than its tokens (8), so on its own it runs per head."""
    for form in ("heads", "factored"):
        monkeypatch.setattr(afpm.model, "factored_attention",
                            lambda t_cfg, token_dim, factored=form == "factored": factored)
        yield form


def preset_model_config(task, per_channel=False):
    """A task preset's model on its own template, built as training builds it."""
    run = resolve_config(task)
    spec = task_template(task)
    layout = {"mapped": True, "template_channels": spec.target_channels,
              "template_len": spec.template_len, "class_names": classes()}
    x = np.zeros((1, spec.n_channels, spec.template_len), dtype=np.float32)
    return stacked_model_config(run, x, layout, per_channel)


class TestPatchCount:
    def test_mi_like(self):
        assert patch_count(1024, 25) == 42

    def test_erp_like(self):
        assert patch_count(256, 25) == 12

    def test_boundary(self):
        assert patch_count(25, 25) == 2

    def test_avg_count(self):
        assert averaged_count(42, 25, 5) == 4

    def test_avg_window_too_large(self):
        with pytest.raises(ConfigError):
            averaged_count(4, 5, 1)


class TestExtractPatches:
    def test_direct_index_evaluation(self):
        cfg = FPEConfig(embed_dim=1, frame_window=2, frame_stride=2, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        patches = extract_patches(np.array([[[1.0, 2.0, 3.0, 4.0]]]), cfg)[0]
        assert patches.shape == (3, 2)
        assert np.array_equal(patches, [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])

    def test_last_patch_beyond_template_is_zero(self):
        cfg = FPEConfig(embed_dim=1, frame_window=25, frame_stride=25, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        x = np.ones((1, 1, 1024))
        patches = extract_patches(x, cfg)[0]
        assert patches.shape == (42, 25)
        # patch 41 (0-based) starts at column 1025 > 1023
        assert np.all(patches[-1] == 0.0)

    def test_zero_template_zero_patches(self):
        cfg = FPEConfig(embed_dim=1, frame_window=4, frame_stride=3, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        patches = extract_patches(np.zeros((1, 2, 10)), cfg)
        assert np.all(patches == 0.0)

    def test_channel_major_flattening(self):
        cfg = FPEConfig(embed_dim=1, frame_window=2, frame_stride=2, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        patches = extract_patches(x, cfg)[0]
        assert np.array_equal(patches[0], [1.0, 2.0, 3.0, 4.0])

    def test_per_channel_mode_orders_channel_major(self):
        cfg = FPEConfig(embed_dim=1, frame_window=2, frame_stride=2, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        x = np.array([[[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]])
        patches = extract_patches(x, cfg, per_channel=True)[0]
        assert patches.shape == (6, 2)  # 2 channels x 3 windows
        assert np.array_equal(patches[0], [1.0, 2.0])
        assert np.array_equal(patches[2], [0.0, 0.0])
        assert np.array_equal(patches[3], [5.0, 6.0])


def windows_by_slicing(x, m, d):
    """Reference patch extraction: one explicit slice per window, zero-padded."""
    b, ch, t_prime = x.shape
    g = patch_count(t_prime, d)
    out = np.zeros((b, ch, g, m), dtype=x.dtype)
    for j in range(g):
        piece = x[:, :, j * d:j * d + m]
        out[:, :, j, :piece.shape[-1]] = piece
    return out


@settings(max_examples=80, deadline=None)
@given(t_prime=st.integers(1, 90), m=st.integers(1, 16), d=st.integers(1, 24),
       channels=st.integers(1, 3), batch=st.integers(1, 3),
       scale=st.sampled_from([1.0, 0.37, 2.5, 33.3]),
       dtype=st.sampled_from([np.float32, np.float64]))
@example(t_prime=40, m=8, d=3, channels=2, batch=2, scale=2.5, dtype=np.float32)  # overlapping
@example(t_prime=40, m=3, d=8, channels=2, batch=2, scale=2.5, dtype=np.float32)  # gapped
@example(t_prime=5, m=8, d=3, channels=2, batch=2, scale=2.5, dtype=np.float32)   # short
def test_batch_extraction_matches_explicit_slices(t_prime, m, d, channels, batch, scale,
                                                  dtype):
    """Patches equal explicit slices times ``scale``, in the input's dtype: for
    overlapping windows, gapped ones (stride > window) and templates shorter
    than one window."""
    fpe = FPEConfig(embed_dim=1, frame_window=m, frame_stride=d, avg_window=1,
                    avg_shift=1, token_dim=1, mlp_hidden=1)
    rng = np.random.default_rng(t_prime * 1000 + m * 31 + d)
    x = rng.standard_normal((batch, channels, t_prime)).astype(dtype)
    ref = windows_by_slicing(x, m, d) * np.asarray(scale, dtype=dtype)
    g = ref.shape[2]
    # the last window always runs past the template and is zero-padded
    assert (g - 1) * d + m > t_prime
    std = extract_patches(x, fpe, per_channel=False, scale=scale)
    assert std.dtype == dtype
    assert np.array_equal(std, ref.transpose(0, 2, 1, 3).reshape(batch, g, channels * m))
    per = extract_patches(x, fpe, per_channel=True, scale=scale)
    assert per.dtype == dtype
    assert np.array_equal(per, ref.reshape(batch, channels * g, m))


def nan_filled_empty(monkeypatch):
    """Make ``np.empty`` hand out NaN-filled memory, so an item left unwritten shows."""
    real_empty = np.empty

    def nan_empty(shape, dtype=float, *args, **kwargs):
        out = real_empty(shape, dtype, *args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)


def test_patches_write_every_item(rng, monkeypatch):
    """Every patch item is written: with ``np.empty`` handing out NaN-filled
    memory, the patches still equal scaled windows of the zero-padded input bit
    for bit, signed zeros included, in both layouts, for strides equal to,
    smaller than and larger than the window, for templates a window divides
    and ones it does not, and for inputs whose time axis is not contiguous."""
    nan_filled_empty(monkeypatch)
    for t_prime, m, d in ((64, 8, 8), (61, 8, 5), (5, 8, 3), (40, 3, 8), (61, 8, 8)):
        fpe = FPEConfig(embed_dim=1, frame_window=m, frame_stride=d, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        wide = rng.standard_normal((2, 3, 2 * t_prime)).astype(np.float32)
        wide[:, :, ::8] = -0.0
        x = wide[:, :, ::2]                                # time axis not contiguous
        transposed = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        g = patch_count(t_prime, d)
        for scale in (1.0, 3.3):
            padded = np.zeros((2, 3, (g - 1) * d + m), dtype=np.float32)
            padded[:, :, :t_prime] = x * np.float32(scale)
            ref = np.stack([padded[:, :, j * d:j * d + m] for j in range(g)], axis=2)
            for inp in (np.ascontiguousarray(x), x, transposed):
                std = extract_patches(inp, fpe, per_channel=False, scale=scale)
                per = extract_patches(inp, fpe, per_channel=True, scale=scale)
                assert same_bits(std, ref.transpose(0, 2, 1, 3).reshape(2, g, 3 * m))
                assert same_bits(per, ref.reshape(2, 3 * g, m))


def test_row_indexed_patches_equal_gathered_batch(rng, monkeypatch):
    """Patches of the rows ``rows`` of a stack equal the patches of ``x[rows]``
    bit for bit, every item written, in both layouts: for repeated and
    unordered rows, windows inside the template and past its end, templates
    shorter than one window, and stacks whose time axis is not contiguous."""
    nan_filled_empty(monkeypatch)
    picks = (np.array([4, 0, 4, 2, 1]), np.array([3]), np.array([2, 2], dtype=np.int32),
             [1, 0])
    for t_prime, m, d in ((64, 8, 8), (61, 8, 5), (5, 8, 3), (40, 3, 8)):
        fpe = FPEConfig(embed_dim=1, frame_window=m, frame_stride=d, avg_window=1,
                        avg_shift=1, token_dim=1, mlp_hidden=1)
        wide = rng.standard_normal((5, 3, 2 * t_prime)).astype(np.float32)
        wide[:, :, ::8] = -0.0
        x = wide[:, :, ::2]                                # time axis not contiguous
        transposed = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        for stack in (np.ascontiguousarray(x), x, transposed):
            for rows in picks:
                for per_channel in (False, True):
                    ref = extract_patches(stack[rows], fpe, per_channel, 3.3)
                    out = extract_patches(stack, fpe, per_channel, 3.3, rows=rows)
                    assert same_bits(out, ref), (t_prime, m, d, rows, per_channel)


def erf_gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def patch_model(w1, b1, w2, b2, m=1, t_prime=4, window=2):
    """float64 model with the given patch MLP, disjoint frames and no averaging."""
    fpe = FPEConfig(embed_dim=w2.shape[1], frame_window=window, frame_stride=window,
                    avg_window=1, avg_shift=1, token_dim=4, mlp_hidden=w1.shape[1])
    t_cfg = TransformerConfig(depth=1, heads=1, dim_head=2, dim_mlp=2)
    cfg = ModelConfig(task="mi", template_channels=tuple(f"C{i}" for i in range(m)),
                      template_len=t_prime, fpe=fpe, transformer=t_cfg,
                      class_names=classes())
    model = init_model(cfg, seed=0, dtype=np.float64)
    for name, value in {"patch.w1": w1, "patch.b1": b1, "patch.w2": w2, "patch.b2": b2}.items():
        model.params[name][...] = value
    return model


class TestEmbedPatches:
    def test_zero_weights_give_second_layer_bias(self):
        model = patch_model(np.zeros((3, 2)), np.array([0.5, -0.5]),
                            np.zeros((2, 2)), np.array([1.0, 2.0]), t_prime=6, window=3)
        _, cache = forward_cached(np.ones((5, 1, 6)), model)
        assert cache["tokens"].shape == (5, 3, 2)
        assert np.allclose(cache["tokens"], [1.0, 2.0])

    def test_identical_patches_identical_embeddings(self, rng):
        model = patch_model(rng.standard_normal((4, 3)), rng.standard_normal(3),
                            rng.standard_normal((3, 2)), rng.standard_normal(2),
                            t_prime=8, window=4)
        p = rng.standard_normal(4)
        _, cache = forward_cached(np.concatenate([p, p])[None, None], model)
        for key in ("h1", "h1_term"):
            assert np.array_equal(cache["patch"][key][0, 0], cache["patch"][key][0, 1]), key
        assert np.array_equal(cache["tokens"][0, 0], cache["tokens"][0, 1])

    def test_hand_computed_toy(self):
        # patch [1, 0]; W1 = [[1, 2], [3, 4]], b1 = [0.1, -0.2];
        # W2 = [[1, 0], [0, 1]], b2 = [0, 0]
        model = patch_model(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.1, -0.2]),
                            np.eye(2), np.zeros(2), t_prime=2)
        _, cache = forward_cached(np.array([[[1.0, 0.0]]]), model)
        assert np.allclose(cache["patch"]["h1"][0, 0], [1.1, 1.8], atol=1e-12)
        expected = np.array([erf_gelu(1.1), erf_gelu(1.8)])
        assert np.allclose(cache["tokens"][0, 0], expected, atol=1e-12)

    def test_wrong_patch_length_rejected(self):
        # one channel too many would make every patch one frame too long
        model = patch_model(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                            t_prime=6, window=3)
        with pytest.raises(DataError, match="expected batch"):
            forward_cached(np.zeros((1, 2, 6)), model)


def window_mean(e, window, shift):
    """Window averaging as the model does it: (W @ e) / P."""
    return window_matrix(e.shape[0], window, shift) @ e / window


class TestAverageEmbeddings:
    def test_index_arithmetic(self, rng):
        w = window_matrix(42, 25, 5)
        assert w.shape == (4, 42)
        assert [np.flatnonzero(row).tolist() for row in w] == \
            [list(range(5 * j, 5 * j + 25)) for j in range(4)]
        assert window_mean(rng.standard_normal((42, 3)), 25, 5).shape == (4, 3)

    def test_identity_case(self, rng):
        e = rng.standard_normal((7, 2))
        assert np.array_equal(window_mean(e, 1, 1), e)

    def test_hand_evaluation(self):
        e = np.arange(1.0, 6.0)[:, None]  # embeddings 1..5, scalar
        out = window_mean(e, 2, 2)
        assert np.allclose(out[:, 0], [1.5, 3.5])

    def test_contraction_bound(self, rng):
        e = rng.standard_normal((10, 4))
        out = window_mean(e, 3, 2)
        max_norm = np.linalg.norm(e, axis=1).max()
        assert np.all(np.linalg.norm(out, axis=1) <= max_norm + 1e-12)


@settings(max_examples=150, deadline=None)
@given(g=st.integers(1, 60), p=st.integers(1, 60), h=st.integers(1, 10),
       batch=st.integers(1, 3), channels=st.integers(1, 3), per_channel=st.booleans())
def test_window_matrix_matches_window_loops(g, p, h, batch, channels, per_channel):
    """(W @ e) / P is the mean over each window and W.T @ (d / P) scatters it
    back, one run of rows per channel in per-channel mode."""
    p = min(p, g)
    k = averaged_count(g, p, h)
    runs = channels if per_channel else 1
    rng = np.random.default_rng(g * 10007 + p * 101 + h)
    e = rng.standard_normal((batch, runs * g, 5))
    d = rng.standard_normal((batch, runs * k, 5))
    mean_ref = np.zeros_like(d)
    scatter_ref = np.zeros_like(e)
    for c in range(runs):
        for j in range(k):
            rows = slice(c * g + j * h, c * g + j * h + p)
            mean_ref[:, c * k + j] = e[:, rows].mean(axis=1)
            scatter_ref[:, rows] += d[:, c * k + j:c * k + j + 1] / p
    w = window_matrix(g, p, h)
    mean, scatter = _window_map(w, e) / p, _window_map(w.T, d / p)
    assert np.abs(mean - mean_ref).max() <= 1e-12
    assert np.abs(scatter - scatter_ref).max() <= 1e-12


class TestAssembleTokens:
    def test_identity_projection(self, rng):
        k, dim = 3, 4
        tilde = rng.standard_normal((k, dim))
        params = {"proj.e0": np.eye(dim), "cls": rng.standard_normal(dim),
                  "pos": np.zeros((k + 1, dim))}
        out = assemble_tokens(tilde[None], params)[0]
        assert np.allclose(out[0], params["cls"])
        assert np.allclose(out[1:], tilde)

    def test_zero_embeddings_give_positions(self, rng):
        k, dim = 2, 3
        pos = rng.standard_normal((k + 1, dim))
        cls = rng.standard_normal(dim)
        params = {"proj.e0": rng.standard_normal((dim, dim)), "cls": cls, "pos": pos}
        out = assemble_tokens(np.zeros((2, k, dim)), params)
        assert np.allclose(out[:, 0], cls + pos[0])
        assert np.allclose(out[:, 1:], pos[1:])

    def test_mi_default_token_shape(self):
        cfg = ModelConfig(task="mi", template_channels=tuple(f"C{i}" for i in range(17)),
                          template_len=1280,
                          fpe=FPEConfig(embed_dim=20, frame_window=25, frame_stride=25,
                                        avg_window=25, avg_shift=5, token_dim=40,
                                        mlp_hidden=40),
                          transformer=TransformerConfig(depth=6, heads=8, dim_head=64,
                                                        dim_mlp=40),
                          class_names=classes())
        dims = model_dims(cfg)
        assert dims.n_patches == 53
        assert dims.n_avg == 6
        assert dims.n_tokens == 7

    def test_k_mismatch_rejected(self, rng):
        params = {"proj.e0": np.eye(2), "cls": np.zeros(2), "pos": np.zeros((3, 2))}
        with pytest.raises(DataError, match="positional"):
            assemble_tokens(rng.standard_normal((1, 4, 2)), params)


def zero_residual_branches(model):
    """Zero every block's output projections, so each block passes its input on."""
    for name in model.params:
        if name.endswith((".attn.wo", ".attn.bo", ".mlp.w2", ".mlp.b2")):
            model.params[name][:] = 0.0


class TestTransformerForward:
    def test_zeroed_output_projections_make_identity(self, rng):
        cfg = small_cfg(depth=3)
        model = init_model(cfg, seed=0, dtype=np.float64)
        zero_residual_branches(model)
        _, cache = forward_cached(rng.standard_normal((2, 3, 64)), model)
        tokens = assemble_tokens(cache["tokens"], model.params)
        assert np.allclose(cache["head"]["x"], tokens)

    def test_permutation_equivariance_without_positions(self, rng):
        # disjoint frames and no averaging: token 1 + j is frame j, and the last
        # frame is the zero-padded one past the template
        fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=8, avg_window=1,
                        avg_shift=1, token_dim=8, mlp_hidden=8)
        t_cfg = TransformerConfig(depth=2, heads=2, dim_head=3, dim_mlp=6)
        cfg = ModelConfig(task="mi", template_channels=("C0", "C1", "C2"),
                          template_len=40, fpe=fpe, transformer=t_cfg, class_names=classes())
        model = init_model(cfg, seed=1, dtype=np.float64)
        for name, arr in model.params.items():
            if arr.ndim >= 1 and not name.endswith(".g"):
                arr += 0.3 * rng.standard_normal(arr.shape)
        model.params["pos"][:] = 0.0
        x = rng.standard_normal((2, 3, 40))
        perm = np.array([3, 0, 4, 1, 2])
        x_perm = x.reshape(2, 3, 5, 8)[:, :, perm, :].reshape(2, 3, 40)
        _, cache = forward_cached(x, model)
        _, cache_perm = forward_cached(x_perm, model)
        out, out_perm = cache["head"]["x"], cache_perm["head"]["x"]
        assert np.allclose(out_perm[:, 1:6], out[:, 1 + perm], atol=1e-10)
        assert np.allclose(out_perm[:, [0, 6]], out[:, [0, 6]], atol=1e-10)

    def test_hand_computed_single_head_attention(self):
        # depth=1, heads=1, dim_head=2, token dim 2, two tokens; MLP disabled
        # (zero weights) and norms neutralized by construction below.
        t_cfg = TransformerConfig(depth=1, heads=1, dim_head=2, dim_mlp=2)
        tokens = np.array([[1.0, -1.0], [-1.0, 1.0]])  # already zero-mean rows
        wq = np.array([[0.6, -0.2], [0.1, 0.4]])
        wk = np.array([[-0.3, 0.5], [0.2, 0.1]])
        wv = np.array([[0.7, 0.0], [-0.1, 0.3]])
        wo = np.array([[1.0, 0.0], [0.0, 1.0]])
        params = {
            "block0.ln1.g": np.ones(2), "block0.ln1.b": np.zeros(2),
            "block0.attn.wq": wq, "block0.attn.bq": np.zeros(2),
            "block0.attn.wk": wk, "block0.attn.bk": np.zeros(2),
            "block0.attn.wv": wv, "block0.attn.bv": np.zeros(2),
            "block0.attn.wo": wo, "block0.attn.bo": np.zeros(2),
            "block0.ln2.g": np.ones(2), "block0.ln2.b": np.zeros(2),
            "block0.mlp.w1": np.zeros((2, 2)), "block0.mlp.b1": np.zeros(2),
            "block0.mlp.w2": np.zeros((2, 2)), "block0.mlp.b2": np.zeros(2),
        }
        cfg = SimpleNamespace(transformer=t_cfg)
        out = _block_forward(tokens[None], params, cfg, "block0")[0][0]

        # independent spreadsheet-style computation
        def ln(v):
            mu = v.mean()
            return (v - mu) / math.sqrt(((v - mu) ** 2).mean() + 1e-5)

        u = np.stack([ln(tokens[0]), ln(tokens[1])])
        q, k, v = u @ wq, u @ wk, u @ wv
        scores = q @ k.T / math.sqrt(2.0)
        att = np.exp(scores - scores.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        expected = tokens + (att @ v) @ wo
        assert np.allclose(out, expected, atol=1e-12)


def class_token_model(cls, head_w, norm_g=None, norm_b=None):
    """float64 model whose blocks pass tokens on unchanged, so that its class
    token ``cls`` reaches the final norm as it is (no positions). The final
    norm's scale and shift default to their initial ones and zero."""
    fpe = FPEConfig(embed_dim=2, frame_window=4, frame_stride=4, avg_window=1,
                    avg_shift=1, token_dim=cls.size, mlp_hidden=3)
    t_cfg = TransformerConfig(depth=2, heads=1, dim_head=2, dim_mlp=3)
    cfg = ModelConfig(task="mi", template_channels=("C0", "C1"), template_len=8,
                      fpe=fpe, transformer=t_cfg, class_names=classes(head_w.shape[1]))
    model = init_model(cfg, seed=5, dtype=np.float64)
    zero_residual_branches(model)
    model.params["pos"][...] = 0.0
    model.params["cls"][...] = cls
    model.params["head.w"][...] = head_w
    if norm_g is not None:
        model.params["final_ln.g"][...] = norm_g
        model.params["final_ln.b"][...] = norm_b
    return model


class TestClassify:
    def test_zero_head_zero_logits(self, rng):
        model = init_model(small_cfg(), seed=0, dtype=np.float64)
        model.params["head.w"][:] = 0.0
        assert np.array_equal(forward(rng.standard_normal((4, 3, 64)), model),
                              np.zeros((4, 2)))

    def test_aligned_and_antialigned_columns(self, rng):
        # the head reads the class token through the final norm, computed by hand
        cls = np.array([3.0, 4.0, -2.0, 1.0])
        g, b = np.array([1.0, 2.0, 0.5, 1.5]), np.array([0.1, -0.2, 0.3, 0.0])
        centred = cls - cls.mean()
        enters = g * centred / math.sqrt(np.mean(centred ** 2) + 1e-5) + b
        norm = float(np.linalg.norm(enters))
        direction = enters / norm
        model = class_token_model(cls, np.stack([direction, -direction], axis=1), g, b)
        logits = forward(rng.standard_normal((1, 2, 8)), model)[0]
        assert logits[0] == pytest.approx(norm, abs=1e-12)
        assert logits[1] == pytest.approx(-norm, abs=1e-12)

    def test_zero_class_token_output(self, rng):
        model = class_token_model(np.zeros(6), rng.standard_normal((6, 3)))
        logits = forward(rng.standard_normal((4, 2, 8)), model)
        assert np.array_equal(logits, np.zeros((4, 3)))


class TestForward:
    def test_determinism(self, rng):
        cfg = small_cfg()
        model = init_model(cfg, seed=0)
        x = rng.standard_normal((2, 3, 64)).astype(np.float32)
        assert np.array_equal(forward(x, model), forward(x, model))

    def test_mi_default_shapes(self):
        model = init_model(preset_model_config("mi"), seed=0)
        x = np.zeros((1, 17, 1280), dtype=np.float32)
        logits = forward(x, model)
        assert logits.shape == (1, 2)

    def test_batch_matches_per_sample(self, rng):
        cfg = small_cfg()
        model = init_model(cfg, seed=3)
        xb = rng.standard_normal((4, 3, 64)).astype(np.float32)
        batched = forward(xb, model)
        single = np.concatenate([forward(xb[i:i + 1], model) for i in range(4)])
        assert np.allclose(batched, single, atol=1e-6)

    def test_input_scale_is_applied(self, rng):
        from dataclasses import replace
        cfg = small_cfg()
        model = init_model(cfg, seed=0, dtype=np.float64)
        x = rng.standard_normal((2, 3, 64))
        scaled_model = Model(replace(cfg, input_scale=2.0), model.flat)
        assert np.allclose(forward(x * 2.0, model), forward(x, scaled_model))

    @pytest.mark.parametrize("budget", [afpm.model.MICRO_BATCH_BYTES, 2**16])
    def test_large_batch_runs_in_eval_chunks(self, budget, rng, monkeypatch):
        """``forward`` on more than EVAL_BATCH trials gives the bits of
        ``forward_cached`` run on EVAL_BATCH trials at a time, each chunk one
        micro-batch at a time, with one or several micro-batches per chunk;
        no pass sees more than EVAL_BATCH trials."""
        monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", budget)
        model = init_model(small_cfg(), seed=3)
        n = 2 * EVAL_BATCH + 3
        x = rng.standard_normal((n, 3, 64)).astype(np.float32)
        chunks = [x[i:i + EVAL_BATCH] for i in range(0, n, EVAL_BATCH)]
        ref = np.concatenate([forward_cached(c[j:k], model, want_cache=False)[0]
                              for c in chunks for j, k in micro_batches(model.cfg, len(c), 4)])
        real, seen = afpm.model.forward_cached, []

        def counted(x_batch, model, want_cache=True, rows=None):
            seen.append(len(x_batch))
            return real(x_batch, model, want_cache, rows)

        monkeypatch.setattr(afpm.model, "forward_cached", counted)
        assert same_bits(forward(x, model), ref)
        assert sum(seen) == n and max(seen) <= EVAL_BATCH
        assert len(seen) == (7 if budget == 2**16 else 3)

    def test_bad_shape_rejected(self):
        model = init_model(small_cfg(), seed=0)
        for shape in ((3, 64), (2, 4, 64), (2, 3, 63)):
            with pytest.raises(DataError, match="expected batch"):
                forward(np.zeros(shape, dtype=np.float32), model)

    def test_softmax_attention_rows_sum_to_one(self, rng, monkeypatch):
        cfg = small_cfg(depth=2)
        model = init_model(cfg, seed=2, dtype=np.float64)
        x = rng.standard_normal((2, 3, 64))
        s = model_dims(cfg).n_tokens
        for _ in attention_forms(monkeypatch):
            _, cache = forward_cached(x, model, want_cache=True)
            for i in range(cfg.transformer.depth):
                att = cache[f"block{i}"]["att"]
                # per head [B x H x S x S]; factored, head-interleaved [B x S*H x S]
                assert att.size == 2 * 2 * s * s and att.shape[-1] == s
                assert np.abs(att.sum(axis=-1) - 1.0).max() < 1e-6


@settings(max_examples=120, deadline=None)
@given(
    t_prime=st.integers(1, 300),
    d=st.integers(1, 40),
    m=st.integers(1, 40),
    p=st.integers(1, 30),
    h=st.integers(1, 10),
    channels=st.integers(1, 4),
)
def test_shape_chain_property(t_prime, d, m, p, h, channels):
    g = patch_count(t_prime, d)
    if p > g:
        return
    fpe = FPEConfig(embed_dim=3, frame_window=m, frame_stride=d, avg_window=p,
                    avg_shift=h, token_dim=5, mlp_hidden=4)
    t_cfg = TransformerConfig(depth=1, heads=1, dim_head=2, dim_mlp=3)
    cfg = ModelConfig(task="mi",
                      template_channels=tuple(f"C{i}" for i in range(channels)),
                      template_len=t_prime, fpe=fpe, transformer=t_cfg,
                      class_names=classes())
    model = init_model(cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((1, channels, t_prime)).astype(np.float32)
    patches = extract_patches(x, fpe)
    assert patches.shape == (1, g, channels * m)
    k = averaged_count(g, p, h)
    assert model_dims(cfg).n_tokens == k + 1
    logits = forward(x, model)
    assert logits.shape == (1, 2)


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("stride", [5, 8, 11])
def test_weight_gradients_match_einsum_reference(per_channel, stride, rng, monkeypatch):
    fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=stride, avg_window=2,
                    avg_shift=2, token_dim=8, mlp_hidden=8)
    t_cfg = TransformerConfig(depth=2, heads=2, dim_head=3, dim_mlp=6)
    cfg = ModelConfig(task="mi", template_channels=("C0", "C1", "C2"),
                      template_len=64, fpe=fpe, transformer=t_cfg,
                      class_names=classes(3), per_channel_patches=per_channel)
    model = init_model(cfg, seed=4, dtype=np.float64)
    model.flat[...] += 0.3 * rng.standard_normal(model.flat.shape)
    x = rng.standard_normal((4, 3, 64))
    dlogits = rng.standard_normal((4, 3))
    _, cache = forward_cached(x, model)
    layout = model.layout

    def gradients():
        grads = layout.views(np.full(layout.size, np.nan))
        backward_cached(dlogits, model, cache, grads)
        return grads

    grads = gradients()
    calls = []

    def reference(a, b, out=None):
        calls.append(a.shape)
        return np.einsum("bsi,bsj->ij", a, b, out=out)

    monkeypatch.setattr(afpm.model, "_weight_grad", reference)
    ref = gradients()
    # patch.w1, patch.w2, proj.e0, and wq/wk/wv/wo/mlp.w1/mlp.w2 per block
    assert len(calls) == 3 + 6 * t_cfg.depth
    assert ref.keys() == grads.keys()
    for name in ref:
        assert grads[name].shape == model.params[name].shape
        scale = np.abs(ref[name]).max()
        assert scale > 0.0, name
        assert np.abs(grads[name] - ref[name]).max() <= 1e-12 * scale, name


def per_tensor_init(cfg, seed, dtype):
    """Initial parameters drawn into separately allocated arrays, one
    Gaussian draw per matrix or embedding in ``param_shapes`` order."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            out[name] = np.ones(shape, dtype=dtype)
        elif leaf.startswith("b"):
            out[name] = np.zeros(shape, dtype=dtype)
        else:
            out[name] = (rng.standard_normal(shape) * INIT_SIGMA).astype(dtype)
    return out


class TestModel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("task", ["mi", "erp"])
    def test_init_equals_per_tensor_draws(self, task, dtype):
        """``init_model`` fills views of one vector with the bits of the
        per-tensor draws, for both presets in float32 and float64."""
        cfg = preset_model_config(task)
        model = init_model(cfg, seed=11, dtype=dtype)
        ref = per_tensor_init(cfg, 11, dtype)
        assert model.flat.dtype == dtype and list(model.params) == list(ref)
        for name, want in ref.items():
            got = model.params[name]
            assert got.base is model.flat and same_bits(got, want), name

    def test_params_refuse_assignment(self):
        """A model's parameters change only through writes into its vector or views."""
        model = init_model(small_cfg(), seed=0)
        head = model.params["head.w"]
        with pytest.raises(TypeError):
            model.params["head.w"] = np.zeros_like(head)
        with pytest.raises(TypeError):
            del model.params["cls"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.params = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.flat = np.zeros_like(model.flat)
        assert model.params["head.w"] is head
        head[...] = 1.0
        assert np.all(model.flat[-head.size:] == 1.0)

    def test_wrong_vector_shape_rejected(self):
        cfg = small_cfg()
        n = init_model(cfg, seed=0).flat.size
        for shape in ((n - 1,), (n + 1,), (1, n), (n, 1)):
            with pytest.raises(DataError, match=f"the config's {n} parameters"):
                Model(cfg, np.zeros(shape, np.float32))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_cfg()
        model = init_model(cfg, seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path), extra={"task": "mi"})
        loaded, opt, extra = load_checkpoint(str(path))
        assert loaded.cfg == cfg
        assert opt is None
        assert extra == {"task": "mi"}
        assert list(loaded.params) == list(model.params)
        for k in model.params:
            assert loaded.params[k].dtype == np.float32
            assert np.array_equal(loaded.params[k], model.params[k])
        # parameters only: the header line, then 4 bytes per parameter
        header_line = path.read_bytes().split(b"\n", 1)[0]
        assert {e["kind"] for e in json.loads(header_line)["entries"]} == {"param"}
        assert path.stat().st_size == len(header_line) + 1 + 4 * model.flat.size

    def test_float64_model_saves_the_float32_bytes(self, tmp_path, rng):
        """The one-vector payload of a float64 model rounds each parameter to
        float32 exactly as the per-entry writer it replaced."""
        model = init_model(small_cfg(), seed=3, dtype=np.float64)
        model.flat[...] += 0.3 * rng.standard_normal(model.flat.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        header_line, payload = path.read_bytes().split(b"\n", 1)
        per_entry = b"".join(
            np.ascontiguousarray(model.params[e["name"]], dtype="<f4").tobytes()
            for e in json.loads(header_line)["entries"])
        assert payload == per_entry
        assert not np.array_equal(model.params["head.w"], model.params["head.w"].astype("<f4"))

    def test_double_save_identical_bytes(self, tmp_path):
        model = init_model(small_cfg(), seed=1)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_interrupted_save_keeps_previous(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_cfg(), seed=1), str(path))
        before = path.read_bytes()
        fail_writes_in(monkeypatch, afpm.model, afpm.data_model)
        with pytest.raises(OSError, match="mid-write"):
            save_checkpoint(init_model(small_cfg(), seed=2), str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_parameter_count_stable(self):
        m1 = init_model(small_cfg(), seed=0)
        m2 = init_model(small_cfg(), seed=99)
        assert m1.flat.size == m2.flat.size
        shapes = param_shapes(small_cfg())
        assert m1.flat.size == sum(int(np.prod(s)) for s in shapes.values())


def fuzz_cfg() -> ModelConfig:
    """The fuzzed checkpoint's config: small_cfg with a non-default input scale,
    so that a key that fell back to its default would load as another model."""
    return dataclasses.replace(small_cfg(), input_scale=2.5)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """Bytes of one small-config checkpoint, and a scratch path to write variants to."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(init_model(fuzz_cfg(), seed=0), str(path), extra={"task": "mi"})
    return path.read_bytes(), path.with_name("bad.ckpt")


def _load_or_data_error(path, blob: bytes) -> Model | None:
    """The loader's whole contract: a model, or DataError and nothing else."""
    path.write_bytes(blob)
    try:
        model, _, _ = load_checkpoint(str(path))
    except DataError:
        return None
    assert model.flat.size == sum(math.prod(s) for s in param_shapes(model.cfg).values())
    return model


def _header_keys(blob: bytes) -> list[tuple[str, ...]]:
    header = json.loads(blob.split(b"\n", 1)[0])
    sections = {(): header, ("config",): header["config"],
                ("config", "fpe"): header["config"]["fpe"],
                ("config", "transformer"): header["config"]["transformer"]}
    return [where + (key,) for where, doc in sections.items() for key in doc]


def _edit_header(blob: bytes, key_path: tuple[str, ...], value=None, delete=False) -> bytes:
    line, payload = blob.split(b"\n", 1)
    header = json.loads(line)
    doc = header
    for key in key_path[:-1]:
        doc = doc[key]
    if delete:
        del doc[key_path[-1]]
    else:
        doc[key_path[-1]] = value
    return json.dumps(header).encode("utf-8") + b"\n" + payload


class TestCheckpointFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated(self, saved_checkpoint, data):
        blob, path = saved_checkpoint
        cut = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), byte=st.integers(0, 255))
    def test_header_byte_replaced(self, saved_checkpoint, data, byte):
        blob, path = saved_checkpoint
        at = data.draw(st.integers(0, blob.index(b"\n")))
        _load_or_data_error(path, blob[:at] + bytes([byte]) + blob[at + 1:])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_key_deleted(self, saved_checkpoint, data):
        blob, path = saved_checkpoint
        key_path = data.draw(st.sampled_from(_header_keys(blob)))
        model = _load_or_data_error(path, _edit_header(blob, key_path, delete=True))
        # only ``extra`` may go: every config key is required
        assert model is None or (key_path == ("extra",) and model.cfg == fuzz_cfg())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), value=st.one_of(
        st.text(max_size=6),
        st.lists(st.one_of(st.integers(-2, 300), st.text(max_size=3)), max_size=4)))
    def test_value_replaced(self, saved_checkpoint, data, value):
        blob, path = saved_checkpoint
        key_path = data.draw(st.sampled_from(_header_keys(blob)))
        model = _load_or_data_error(path, _edit_header(blob, key_path, value))
        # a string or list loads only where it spells the saved value, or as
        # another set of distinct channel names or class names
        expected = fuzz_cfg()
        if key_path == ("config", "template_channels") and isinstance(value, list):
            expected = dataclasses.replace(expected, template_channels=tuple(value))
        if key_path == ("config", "class_names") and model is not None:
            expected = dataclasses.replace(expected, class_names=tuple(value))
        assert model is None or model.cfg == expected


def perturbed_model(cfg, dtype, rng):
    """Model whose biases, norms and embeddings are all nonzero and distinct."""
    model = init_model(cfg, seed=4, dtype=dtype)
    for arr in model.params.values():
        arr += 0.3 * rng.standard_normal(arr.shape)
    return model


def cache_arrays(cache) -> dict:
    """Every array a forward cache holds, keyed by its path."""
    out = {}
    for key, value in cache.items():
        if isinstance(value, dict):
            out.update({f"{key}.{k}": v for k, v in cache_arrays(value).items()})
        elif isinstance(value, tuple):
            out.update({f"{key}.{i}": v for i, v in enumerate(value)})
        elif value is not None:
            out[key] = value
    return out


def attention_cache_bytes(cache, form) -> int:
    """Bytes of the attention items (FULL_CACHE_KEYS) over every block of a cache."""
    return sum(arr.nbytes for key, block in cache.items() if key.startswith("block")
               for name, arr in block.items() if name in FULL_CACHE_KEYS[form])


def run_lean(monkeypatch, samples=1, model=None, form=None):
    """Make every batch run as micro-batches of at most ``samples`` samples.

    ``samples`` above 1 sets the budget from the attention cache of one sample
    of ``model`` in attention form ``form``.
    """
    budget = 0
    if samples > 1:
        x = np.zeros((1, model.cfg.n_channels, model.cfg.template_len))
        budget = samples * attention_cache_bytes(forward_cached(x, model)[1], form)
    monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", budget)


def recorded_steps(monkeypatch):
    """List that collects the (samples, cache) of every micro-batch ``training.backward`` runs."""
    seen = []

    def recording(x, model, want_cache=True, rows=None, forward_cached=forward_cached):
        logits, cache = forward_cached(x, model, want_cache, rows)
        seen.append((np.asarray(x) if rows is None else np.asarray(x)[rows], cache))
        return logits, cache

    monkeypatch.setattr(afpm.training, "forward_cached", recording)
    return seen


class TestLeanCache:
    """A lean step bounds the cache: a batch whose attention caches exceed
    MICRO_BATCH_BYTES runs as micro-batches (``micro_batches``), each keeping
    the full cache of its own samples; a full step runs the batch in one pass.
    The tests force a lean step through a small budget."""

    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lean_gradients_equal_full_gradients(self, per_channel, dtype, rng,
                                                 monkeypatch):
        """The loss and gradients of a batch run as micro-batches of one sample
        equal those of one pass, up to the order of float summation."""
        model = perturbed_model(small_cfg(depth=2, per_channel=per_channel), dtype, rng)
        x = rng.standard_normal((4, 3, 64)).astype(dtype)
        y = np.array([0, 1, 1, 0])
        tol = 1e-5 if dtype == np.float32 else 1e-12
        budget = afpm.model.MICRO_BATCH_BYTES
        for form in attention_forms(monkeypatch):
            monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", budget)
            assert micro_batches(model.cfg, 4, x.itemsize) == [(0, 4)]
            loss, grads = named_backward(x, y, model)
            run_lean(monkeypatch)
            steps = recorded_steps(monkeypatch)
            lean_loss, lean_grads = named_backward(x, y, model)
            assert [len(xb) for xb, _ in steps] == [1, 1, 1, 1]
            assert FULL_CACHE_KEYS[form] <= steps[0][1]["block1"].keys()
            assert abs(loss - lean_loss) <= tol * abs(loss)
            assert grads.keys() == lean_grads.keys() == model.params.keys()
            top = max(np.abs(g).max() for g in grads.values())
            for name, g in grads.items():
                assert g.dtype == lean_grads[name].dtype == dtype, (form, name)
                # the key bias's gradient is zero up to rounding: softmax cancels it
                scale = top if name.endswith(".attn.bk") else np.abs(g).max()
                assert np.abs(g - lean_grads[name]).max() <= tol * scale, (form, name)

    def test_lean_attention_rows_sum_to_one(self, rng, monkeypatch):
        """Every micro-batch of a lean step caches attention weights whose rows
        sum to 1 and equal the one-pass forward's weights of its samples."""
        cfg = small_cfg(depth=2, per_channel=True)
        model = init_model(cfg, seed=2, dtype=np.float64)
        x, y = rng.standard_normal((3, 3, 64)), np.array([0, 1, 0])
        for form in attention_forms(monkeypatch):
            _, whole = forward_cached(x, model)
            run_lean(monkeypatch)
            steps = recorded_steps(monkeypatch)
            run_backward(x, y, model)
            assert len(steps) == 3
            for n, (_, cache) in enumerate(steps):
                for i in range(cfg.transformer.depth):
                    att = cache[f"block{i}"]["att"]
                    assert np.abs(att.sum(axis=-1) - 1.0).max() < 1e-12, form
                    assert np.array_equal(att, whole[f"block{i}"]["att"][n:n + 1]), form

    @pytest.mark.parametrize("lean", [False, True])
    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_runs_do_not_change_a_bit(self, lean, per_channel, dtype, rng,
                                                monkeypatch):
        """Logits do not change a bit whether a batch runs as one micro-batch or
        as several: every product works sample by sample or row by row. (A
        micro-batch of one sample would run its head product as a vector
        product, which rounds differently; even runs make one only at batch 1.)"""
        model = perturbed_model(small_cfg(depth=2, per_channel=per_channel), dtype, rng)
        x = rng.standard_normal((7, 3, 64)).astype(dtype)
        budget = afpm.model.MICRO_BATCH_BYTES
        for form in attention_forms(monkeypatch):
            monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", budget)
            logits, _ = forward_cached(x, model)
            if lean:
                run_lean(monkeypatch, 3, model, form)
                # as even as can be: not runs of 3, 3 and 1
                assert micro_batches(model.cfg, 7, x.itemsize) == [(0, 2), (2, 4), (4, 7)]
            else:
                assert micro_batches(model.cfg, 7, x.itemsize) == [(0, 7)]
            assert np.array_equal(forward(x, model), logits), form
            for i, j in micro_batches(model.cfg, 7, x.itemsize):
                assert np.array_equal(forward_cached(x[i:j], model)[0], logits[i:j]), form

    @pytest.mark.parametrize("lean", [False, True])
    def test_backward_never_writes_into_the_cache(self, lean, rng, monkeypatch):
        """Every backward of a step, one per micro-batch, leaves its cache as
        the forward wrote it, and a second backward on it gives the same bits."""
        if lean:
            run_lean(monkeypatch)
        model = perturbed_model(small_cfg(depth=2, per_channel=True), np.float32, rng)
        x = rng.standard_normal((4, 3, 64))
        checked = []

        def checking(dlogits, model, cache, grads, backward_cached=backward_cached):
            before = {k: v.copy() for k, v in cache_arrays(cache).items()}
            backward_cached(dlogits, model, cache, grads)
            layout = model.layout
            second = layout.views(np.empty(layout.size, model.dtype))
            backward_cached(dlogits, model, cache, second)
            for name, g in grads.items():
                assert np.array_equal(g, second[name]), name
            after = cache_arrays(cache)
            assert after.keys() == before.keys()
            for key, arr in before.items():
                assert np.array_equal(arr, after[key]), key
            checked.append(len(dlogits))

        monkeypatch.setattr(afpm.training, "backward_cached", checking)
        for form in attention_forms(monkeypatch):
            checked.clear()
            run_backward(x, np.array([1, 0, 0, 1]), model)
            assert checked == ([1, 1, 1, 1] if lean else [4]), form

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lean", [False, True])
    def test_backward_writes_every_gradient_item(self, lean, dtype, rng, monkeypatch):
        """Every gradient item is written, in every micro-batch: with ``np.empty``
        handing out NaN-filled memory, ``backward``'s loss and gradient vector
        equal a normal run's bit for bit, in both attention forms (the factored
        key bias's zeros included), in one pass or as micro-batches."""
        if lean:
            run_lean(monkeypatch)
        model = perturbed_model(small_cfg(depth=2), dtype, rng)
        x = rng.standard_normal((4, 3, 64)).astype(np.float32)
        y = np.array([1, 0, 0, 1])
        for form in attention_forms(monkeypatch):
            assert len(micro_batches(model.cfg, 4, model.dtype.itemsize)) == (4 if lean else 1)
            loss, grad = run_backward(x, y, model)
            assert np.isfinite(grad.flat).all(), form
            with monkeypatch.context() as patched:
                nan_filled_empty(patched)
                nan_loss, nan_grad = run_backward(x, y, model)
            assert nan_loss == loss and same_bits(nan_grad.flat, grad.flat), form

    def test_micro_batches_count_the_attention_cache(self, monkeypatch):
        """A micro-batch holds as many samples as fit their attention caches into
        the budget, counted on the cache ``forward_cached`` keeps in each form."""
        x = np.zeros((1, 3, 64))
        for form in attention_forms(monkeypatch):
            for dtype in (np.float32, np.float64):
                model = init_model(small_cfg(depth=2, per_channel=True), seed=0, dtype=dtype)
                one = attention_cache_bytes(forward_cached(x, model)[1], form)
                for samples in (1, 3, 7):
                    for budget in (samples * one, (samples + 1) * one - 1):
                        monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", budget)
                        runs = micro_batches(model.cfg, 70, np.dtype(dtype).itemsize)
                        assert max(j - i for i, j in runs) == samples, (form, budget)

    def test_lean_per_channel_step_peak(self, rng):
        """Traced numpy peak of one MI per-channel step at batch 64: about 55 MiB
        as six micro-batches, where one pass keeps about 190 MiB of attention
        items alone."""
        cfg = preset_model_config("mi", per_channel=True)
        model = init_model(cfg, seed=0)
        x = rng.standard_normal((64, cfg.n_channels, cfg.template_len)).astype(np.float32)
        y = np.arange(64) % 2
        assert len(micro_batches(cfg, 64, 4)) == 6
        tracemalloc.start()
        try:
            run_backward(x, y, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_wide_template_forward_peak(self, rng):
        """``forward`` reads its input once: on a 48-channel MI batch (the
        no-selection ablation's layout) its traced peak stays under 1.25 times
        the bytes of the patch array, on top of the input it is given. A scaled
        and a zero-padded copy of the input would add about twice that much."""
        run = resolve_config("mi")
        layout = {"mapped": True, "template_channels": tuple(f"E{i:02d}" for i in range(48)),
                  "template_len": task_template("mi").template_len, "class_names": classes()}
        x = rng.standard_normal((64, 48, layout["template_len"])).astype(np.float32)
        model = init_model(stacked_model_config(run, x, layout, False), seed=0)
        assert model.cfg.input_scale != 1.0
        dims = model_dims(model.cfg)
        patch_bytes = 64 * dims.n_patches * dims.patch_in * 4
        assert patch_bytes > x.nbytes
        tracemalloc.start()
        try:
            forward(x, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * patch_bytes, f"{peak / patch_bytes:.2f} x patch bytes"

    def test_wide_template_train_step_peak(self, rng):
        """``train`` reads each batch from the stack: one step at batch size N
        on a 48-channel MI stack of N trials (the no-selection ablation's
        layout) keeps its traced peak under 1.3 times the bytes of the patch
        array plus eight parameter-sized vectors (parameters, AdamW moments
        and decay flags, gradients, update). The rest is the patch MLP's
        activations. A gathered copy of the batch would add the whole stack,
        about as many bytes as the patch array."""
        run = resolve_config("mi", overrides={"transformer": {"depth": 1}})
        layout = {"mapped": True, "template_channels": tuple(f"E{i:02d}" for i in range(48)),
                  "template_len": task_template("mi").template_len, "class_names": classes()}
        n = 64
        x = rng.standard_normal((n, 48, layout["template_len"])).astype(np.float32)
        y = np.arange(n) % 2
        model = init_model(stacked_model_config(run, x, layout, False), seed=0)
        dims = model_dims(model.cfg)
        patch_bytes = n * dims.n_patches * dims.patch_in * 4
        param_bytes = model.flat.size * 4
        assert x.nbytes > 0.9 * patch_bytes
        tracemalloc.start()
        try:
            train(x, y, model, TrainConfig(epochs=1, batch_size=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 1.3 * patch_bytes + 8 * param_bytes
        assert peak < bound, f"{peak / 2**20:.1f} MiB >= {bound / 2**20:.1f} MiB"

    def test_presets_keep_the_full_cache_and_mi_per_channel_goes_lean(self):
        """The 7-token MI and 5-token ERP presets run one micro-batch up to the
        paper's batch 512; MI per-channel patches (103 tokens) split a batch of 64."""
        for task in ("mi", "erp"):
            cfg = preset_model_config(task)
            for batch in (64, 256, 512):
                assert micro_batches(cfg, batch, 4) == [(0, batch)], (task, batch)
        runs = micro_batches(preset_model_config("mi", per_channel=True), 64, 4)
        assert [j - i for i, j in runs] == [10, 11, 11, 10, 11, 11]


class TestFactoredAttention:
    """Heads wider than tokens run the factored QK/OV form. small_cfg(dim_head=9)
    has 2 heads of 9 over 8-wide tokens."""

    def test_presets_pick_their_form(self):
        for task, per_channel, factored in (("mi", False, True), ("mi", True, True),
                                            ("erp", False, False)):
            cfg = preset_model_config(task, per_channel)
            assert factored_attention(cfg.transformer, cfg.fpe.token_dim) is factored

    def test_finite_difference_gradients(self, rng):
        """Criterion 3's check and tolerance on a factored model with nonzero biases."""
        cfg = small_cfg(dim_head=9)
        assert factored_attention(cfg.transformer, cfg.fpe.token_dim)
        model = perturbed_model(cfg, np.float64, rng)
        x, y = rng.standard_normal((2, 3, 64)), np.array([0, 1])
        _, grads = named_backward(x, y, model)

        def loss_at():
            return batch_cross_entropy(forward(x, model), y)[0]

        h, worst = 1e-4, {}
        for name, p in model.params.items():
            flat, errs = p.reshape(-1), []
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                lp = loss_at()
                flat[i] = old - h
                lm = loss_at()
                flat[i] = old
                fd, an = (lp - lm) / (2 * h), float(grads[name].reshape(-1)[i])
                errs.append(abs(fd - an) / max(abs(fd), abs(an), 1e-3))
            worst[name] = max(errs)
        assert max(worst.values()) < 1e-4, max(worst, key=worst.get)

    @pytest.mark.parametrize("lean", [False, True])
    @pytest.mark.parametrize("per_channel", [False, True])
    def test_factored_equals_per_head(self, per_channel, lean, rng, monkeypatch):
        """Both forms agree in one pass and in a lean step (micro-batches of one)."""
        model = perturbed_model(small_cfg(depth=2, dim_head=9, per_channel=per_channel),
                                np.float64, rng)
        x, y = rng.standard_normal((5, 3, 64)), np.array([0, 1, 1, 0, 1])
        if lean:
            run_lean(monkeypatch)
        runs = {}
        for form in ("factored", "heads"):
            logits, cache = forward_cached(x, model)
            assert FULL_CACHE_KEYS[form] <= cache["block0"].keys()
            assert len(micro_batches(model.cfg, 5, 8)) == (5 if lean else 1)
            runs[form] = logits, forward(x, model), named_backward(x, y, model)[1]
            # the per-head form, forced through the one rank test
            monkeypatch.setattr(afpm.model, "factored_attention", lambda t_cfg, token_dim: False)
        (logits, no_cache, grads), (ref_logits, _, ref_grads) = runs["factored"], runs["heads"]
        for out in (logits, no_cache):
            assert np.abs(out - ref_logits).max() <= 1e-10 * np.abs(ref_logits).max()
        assert grads.keys() == ref_grads.keys() == model.params.keys()
        for name, ref in ref_grads.items():
            if name.endswith(".attn.bk"):
                continue
            scale = np.abs(ref).max()
            assert scale > 0.0, name
            assert np.abs(grads[name] - ref).max() <= 1e-10 * scale, name

    def test_key_bias_gradient_is_zero_and_adamw_keeps_it(self, rng):
        """Softmax cancels the key bias, so factored blocks give it an exact zero
        gradient and AdamW (which does not decay biases) never moves it."""
        model = perturbed_model(small_cfg(depth=2, dim_head=9), np.float32, rng)
        before = {name: arr.copy() for name, arr in model.params.items()}
        x = rng.standard_normal((4, 3, 64)).astype(np.float32)
        layout = model.layout
        _, grad = run_backward(x, np.array([0, 1, 0, 1]), model)
        grads = grad.params
        bk = [name for name in grads if name.endswith(".attn.bk")]
        assert len(bk) == 2
        for name in bk:
            assert grads[name].shape == before[name].shape and not grads[name].any(), name
        stepped = np.empty(layout.size, np.float32)
        adamw_step(model.flat, grad.flat, OptimizerState.zeros(layout, np.float32),
                   1e-3, TrainConfig(), stepped)
        stepped = layout.views(stepped)
        for name, arr in before.items():
            assert np.array_equal(stepped[name], arr) is (name in bk), name


def query_major_attention(x, u, p, prefix, t_cfg):
    """The per-head attention forward as it was before scores went key-major:
    scores [B x H x S_q x S_k] and softmax over their last axis."""
    h = t_cfg.heads
    q, k, v = afpm.model._qkv(u, p, prefix)
    att = afpm.model._heads(q, h) @ afpm.model._heads(k, h).transpose(0, 1, 3, 2)
    att *= 1.0 / math.sqrt(t_cfg.dim_head)
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = np.empty_like(q)
    np.matmul(att, afpm.model._heads(v, h), out=afpm.model._heads(ctx, h))
    x1 = x + ctx @ p[f"{prefix}.attn.wo"] + p[f"{prefix}.attn.bo"]
    return x1, dict(q=q, k=k, v=v, ctx=ctx, att=att)


def query_major_attention_backward(do, u, p, prefix, t_cfg, c, grads):
    """The per-head attention backward as it was before scores went key-major."""
    h = t_cfg.heads
    heads = afpm.model._heads
    weight_grad = afpm.model._weight_grad
    scale = 1.0 / math.sqrt(t_cfg.dim_head)
    ctx, att = c["ctx"], c["att"]
    q, k, v = (heads(c[n], h) for n in "qkv")
    dq_m, dk_m, dv_m = (np.empty_like(ctx) for _ in "qkv")
    dctx = heads(do @ p[f"{prefix}.attn.wo"].T, h)
    datt = dctx @ v.transpose(0, 1, 3, 2)
    np.matmul(att.transpose(0, 1, 3, 2), dctx, out=heads(dv_m, h))
    datt -= np.sum(datt * att, axis=-1, keepdims=True)
    datt *= att
    np.matmul(datt, k, out=heads(dq_m, h))
    np.matmul(datt.transpose(0, 1, 3, 2), q, out=heads(dk_m, h))
    dq_m *= scale
    dk_m *= scale
    weight_grad(ctx, do, out=grads[f"{prefix}.attn.wo"])
    for n, d_m in zip("qkv", (dq_m, dk_m, dv_m)):
        weight_grad(u, d_m, out=grads[f"{prefix}.attn.w{n}"])
        grads[f"{prefix}.attn.b{n}"][...] = d_m.sum(axis=(0, 1))
    return dq_m @ p[f"{prefix}.attn.wq"].T + dk_m @ p[f"{prefix}.attn.wk"].T \
        + dv_m @ p[f"{prefix}.attn.wv"].T


def per_head_block_run(p, cfg, x, dx2):
    """One per-head block's output, attention weights, input gradient and
    parameter gradients."""
    out, cache = _block_forward(x, p, cfg, "block0")
    layout = FlatLayout.of({n: a.shape for n, a in p.items() if n.startswith("block0.")})
    grads = layout.views(np.empty(layout.size, x.dtype))
    dx = _block_backward(dx2, p, cfg, "block0", cache, grads)
    return {"out": out, "att": cache["att"], "dx": dx, **grads}


class TestKeyMajorHeadAttention:
    """The per-head form builds its scores key-major [B x S_k x H x S_q] and
    reduces softmax over axis 1. Against the query-major form it replaced:
    numpy sums fewer than 8 items in the same sequential order on either axis,
    so up to 7 tokens (the ERP preset has 5) nothing changes a bit; from 8
    tokens on a last-axis sum is pairwise, and results agree within the error
    bound of a sequential sum over the keys, tokens x eps of the dtype (about
    1e-6 for 8 float32 tokens), relative to each output's largest item."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tokens", [2, 3, 5, 7, 8, 13, 113])
    def test_equals_query_major_form(self, tokens, dtype, rng, monkeypatch):
        cfg = small_cfg(heads=3, dim_head=4)
        assert not factored_attention(cfg.transformer, cfg.fpe.token_dim)
        p = perturbed_model(cfg, dtype, rng).params
        x = rng.standard_normal((4, tokens, cfg.fpe.token_dim)).astype(dtype)
        dx2 = rng.standard_normal(x.shape).astype(dtype)
        got = per_head_block_run(p, cfg, x, dx2)
        assert got["att"].shape == (4, 3, tokens, tokens)
        monkeypatch.setattr(afpm.model, "_head_attention", query_major_attention)
        monkeypatch.setattr(afpm.model, "_head_attention_backward",
                            query_major_attention_backward)
        ref = per_head_block_run(p, cfg, x, dx2)
        assert got.keys() == ref.keys()
        for name, want in ref.items():
            assert got[name].dtype == want.dtype == dtype, name
            if tokens < 8:
                assert np.array_equal(got[name], want), name
            else:
                # the key bias's gradient is zero up to rounding: softmax cancels it
                scale = np.abs(ref["dx"] if name.endswith(".attn.bk") else want).max()
                tol = tokens * np.finfo(dtype).eps
                assert np.abs(got[name] - want).max() <= tol * scale, name


def test_decay_mask_exempts_embeddings_norms_biases():
    """AdamW's decay vector is 1 over every item of a decayed tensor, 0 over the rest."""
    model = init_model(small_cfg(), seed=0)
    mask = model.layout.views(OptimizerState.zeros(model.layout, np.float32).decay)
    assert all(m.all() or not m.any() for m in mask.values())
    decayed = {k for k, m in mask.items() if m.all()}
    assert "pos" not in decayed
    assert "cls" not in decayed
    assert not any(".ln" in k for k in decayed)
    assert not any(k.endswith((".b1", ".b2", ".bq", ".bk", ".bv", ".bo")) for k in decayed)
    assert "head.w" in decayed and "patch.w1" in decayed and "proj.e0" in decayed


def test_per_channel_token_count(rng):
    cfg = small_cfg(per_channel=True)
    dims = model_dims(cfg)
    g = patch_count(64, 8)
    k = averaged_count(g, 2, 2)
    assert dims.n_seq == 3 * k
    assert dims.n_tokens == 3 * k + 1
    model = init_model(cfg, seed=0)
    x = rng.standard_normal((1, 3, 64)).astype(np.float32)
    assert forward(x, model).shape == (1, 2)


class Recording(Mapping):
    """A read-through view of a mapping that adds every key read to ``seen``."""

    def __init__(self, inner, seen: set):
        self.inner, self.seen = inner, seen

    def __getitem__(self, key):
        self.seen.add(key)
        return self.inner[key]

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


# Toy configs in the attention forms and patch modes of the presets: MI runs
# factored, ERP per head, NO_FPE factored with per-channel patches.
STAGE_CONFIGS = {"mi": dict(dim_head=9), "erp": {},
                 "no_fpe": dict(dim_head=9, per_channel=True)}


@pytest.mark.parametrize("preset", sorted(STAGE_CONFIGS))
def test_wrapped_stage_table_runs_each_stage_once_on_its_own_parameters(preset, rng,
                                                                        monkeypatch):
    """With ``STAGES`` swapped for wrapped entries, one ``forward_cached`` and
    one ``backward_cached`` call every stage instance's forward once, in table
    order, and its backward once, in reverse; logits and gradient keep every
    bit of the unwrapped run; and each stage reads and writes only its own
    parameters, which are one contiguous run of the layout, in table order."""
    cfg = small_cfg(depth=2, **STAGE_CONFIGS[preset])
    model = perturbed_model(cfg, np.float32, rng)
    x = rng.standard_normal((4, 3, 64)).astype(np.float32)
    dlogits = rng.standard_normal((4, 2)).astype(np.float32)

    def run():
        logits, cache = forward_cached(x, model)
        grad = Model(cfg, np.full(model.flat.size, np.nan, np.float32))
        backward_cached(dlogits, model, cache, grad.params)
        return logits, grad.flat

    ref_logits, ref_grad = run()
    calls, read, written = [], {}, {}

    def wrapped(stage):
        def forward(x, p, cfg, name):
            calls.append(("forward", name))
            return stage.forward(x, Recording(p, read.setdefault(name, set())), cfg, name)

        def backward(dy, p, cfg, name, cache, grads):
            calls.append(("backward", name))
            return stage.backward(dy, Recording(p, read.setdefault(name, set())), cfg, name,
                                  cache, Recording(grads, written.setdefault(name, set())))
        return dataclasses.replace(stage, forward=forward, backward=backward)

    monkeypatch.setattr(afpm.model, "STAGES", tuple(map(wrapped, afpm.model.STAGES)))
    logits, grad = run()
    instances = afpm.model.stages(cfg)
    names = [name for name, _ in instances]
    assert names == ["patch", "average", "tokens", "block0", "block1", "head"]
    assert calls == [("forward", n) for n in names] + [("backward", n) for n in names[::-1]]
    assert same_bits(logits, ref_logits) and same_bits(grad, ref_grad)
    start = 0
    for name, stage in instances:
        own = list(stage.shapes(cfg, name))
        assert list(model.layout.names[start:start + len(own)]) == own, name
        assert written.get(name, set()) == set(own), name
        assert read[name] <= set(own), name
        start += len(own)
    assert start == len(model.layout.names)


@pytest.mark.parametrize("want_cache", [True, False])
def test_non_finite_block_output_names_the_block(want_cache, rng, monkeypatch):
    """An inf in block k's ``mlp.w2`` stops ``forward_cached`` right after
    block k with the per-block guard's error, for the first and the last
    block, in both attention forms."""
    cfg = small_cfg(depth=3)
    x = rng.standard_normal((2, 3, 64)).astype(np.float32)
    for form in attention_forms(monkeypatch):
        for k in (0, cfg.transformer.depth - 1):
            model = init_model(cfg, seed=0)
            model.params[f"block{k}.mlp.w2"][...] = np.inf
            with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
                    NumericError,
                    match=f"^non-finite activations after transformer block {k}$"):
                forward_cached(x, model, want_cache=want_cache)
