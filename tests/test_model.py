import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afpm.data_model
import afpm.model
from afpm.errors import ConfigError, DataError
from afpm.model import (
    FPEConfig, Model, ModelConfig, TransformerConfig, _block_forward, _window_map,
    assemble_tokens, averaged_count, backward_cached, decayed_param,
    extract_patches, forward, forward_cached, init_model, load_checkpoint,
    model_dims, param_shapes, patch_count, save_checkpoint, window_matrix,
)

from conftest import fail_writes_in


def small_cfg(m=3, t_prime=64, depth=1, heads=2, dim_head=3, per_channel=False,
              final_norm=True, n_classes=2):
    fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=8, avg_window=2,
                    avg_shift=2, token_dim=8, mlp_hidden=8)
    t = TransformerConfig(depth=depth, heads=heads, dim_head=dim_head,
                          dim_mlp=6, n_classes=n_classes, final_norm=final_norm)
    channels = tuple(f"C{i}" for i in range(m))
    return ModelConfig(task="mi", template_channels=channels, template_len=t_prime,
                       fpe=fpe, transformer=t, per_channel_patches=per_channel)


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
       channels=st.integers(1, 3), batch=st.integers(1, 3))
def test_batch_extraction_matches_explicit_slices(t_prime, m, d, channels, batch):
    fpe = FPEConfig(embed_dim=1, frame_window=m, frame_stride=d, avg_window=1,
                    avg_shift=1, token_dim=1, mlp_hidden=1)
    rng = np.random.default_rng(t_prime * 1000 + m * 31 + d)
    x = rng.standard_normal((batch, channels, t_prime))
    ref = windows_by_slicing(x, m, d)
    g = ref.shape[2]
    # the last window always runs past the template and is zero-padded
    assert (g - 1) * d + m > t_prime
    std = extract_patches(x, fpe, per_channel=False)
    assert np.array_equal(std, ref.transpose(0, 2, 1, 3).reshape(batch, g, channels * m))
    per = extract_patches(x, fpe, per_channel=True)
    assert np.array_equal(per, ref.reshape(batch, channels * g, m))


def erf_gelu(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def patch_model(w1, b1, w2, b2, m=1, t_prime=4, window=2):
    """float64 model with the given patch MLP, disjoint frames and no averaging."""
    fpe = FPEConfig(embed_dim=w2.shape[1], frame_window=window, frame_stride=window,
                    avg_window=1, avg_shift=1, token_dim=4, mlp_hidden=w1.shape[1])
    t_cfg = TransformerConfig(depth=1, heads=1, dim_head=2, dim_mlp=2, n_classes=2)
    cfg = ModelConfig(task="mi", template_channels=tuple(f"C{i}" for i in range(m)),
                      template_len=t_prime, fpe=fpe, transformer=t_cfg)
    model = init_model(cfg, seed=0, dtype=np.float64)
    model.params.update({"patch.w1": w1, "patch.b1": b1, "patch.w2": w2, "patch.b2": b2})
    return model


class TestEmbedPatches:
    def test_zero_weights_give_second_layer_bias(self):
        model = patch_model(np.zeros((3, 2)), np.array([0.5, -0.5]),
                            np.zeros((2, 2)), np.array([1.0, 2.0]), t_prime=6, window=3)
        _, cache = forward_cached(np.ones((5, 1, 6)), model)
        assert cache["tilde"].shape == (5, 3, 2)
        assert np.allclose(cache["tilde"], [1.0, 2.0])

    def test_identical_patches_identical_embeddings(self, rng):
        model = patch_model(rng.standard_normal((4, 3)), rng.standard_normal(3),
                            rng.standard_normal((3, 2)), rng.standard_normal(2),
                            t_prime=8, window=4)
        p = rng.standard_normal(4)
        _, cache = forward_cached(np.concatenate([p, p])[None, None], model)
        assert np.array_equal(cache["a1"][0, 0], cache["a1"][0, 1])
        assert np.array_equal(cache["tilde"][0, 0], cache["tilde"][0, 1])

    def test_hand_computed_toy(self):
        # patch [1, 0]; W1 = [[1, 2], [3, 4]], b1 = [0.1, -0.2];
        # W2 = [[1, 0], [0, 1]], b2 = [0, 0]
        model = patch_model(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.1, -0.2]),
                            np.eye(2), np.zeros(2), t_prime=2)
        _, cache = forward_cached(np.array([[[1.0, 0.0]]]), model)
        assert np.allclose(cache["h1"][0, 0], [1.1, 1.8], atol=1e-12)
        expected = np.array([erf_gelu(1.1), erf_gelu(1.8)])
        assert np.allclose(cache["tilde"][0, 0], expected, atol=1e-12)

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
                                                        dim_mlp=40, n_classes=2))
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
        tokens = assemble_tokens(cache["tilde"], model.params)
        assert np.allclose(cache["x_blocks_out"], tokens)

    def test_permutation_equivariance_without_positions(self, rng):
        # disjoint frames and no averaging: token 1 + j is frame j, and the last
        # frame is the zero-padded one past the template
        fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=8, avg_window=1,
                        avg_shift=1, token_dim=8, mlp_hidden=8)
        t_cfg = TransformerConfig(depth=2, heads=2, dim_head=3, dim_mlp=6, n_classes=2)
        cfg = ModelConfig(task="mi", template_channels=("C0", "C1", "C2"),
                          template_len=40, fpe=fpe, transformer=t_cfg)
        model = init_model(cfg, seed=1, dtype=np.float64)
        for name, arr in model.params.items():
            if arr.ndim >= 1 and not name.endswith(".g"):
                model.params[name] = arr + 0.3 * rng.standard_normal(arr.shape)
        model.params["pos"][:] = 0.0
        x = rng.standard_normal((2, 3, 40))
        perm = np.array([3, 0, 4, 1, 2])
        x_perm = x.reshape(2, 3, 5, 8)[:, :, perm, :].reshape(2, 3, 40)
        _, cache = forward_cached(x, model)
        _, cache_perm = forward_cached(x_perm, model)
        out, out_perm = cache["x_blocks_out"], cache_perm["x_blocks_out"]
        assert np.allclose(out_perm[:, 1:6], out[:, 1 + perm], atol=1e-10)
        assert np.allclose(out_perm[:, [0, 6]], out[:, [0, 6]], atol=1e-10)

    def test_hand_computed_single_head_attention(self):
        # depth=1, heads=1, dim_head=2, token dim 2, two tokens; MLP disabled
        # (zero weights) and norms neutralized by construction below.
        t_cfg = TransformerConfig(depth=1, heads=1, dim_head=2, dim_mlp=2,
                                  n_classes=2, final_norm=False)
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
        out = _block_forward(tokens[None], params, "block0", t_cfg, cache=None)[0]

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


def class_token_model(cls, head_w):
    """float64 model whose blocks pass tokens on unchanged and whose class
    token enters the head as ``cls`` (no positions, no final norm)."""
    fpe = FPEConfig(embed_dim=2, frame_window=4, frame_stride=4, avg_window=1,
                    avg_shift=1, token_dim=cls.size, mlp_hidden=3)
    t_cfg = TransformerConfig(depth=2, heads=1, dim_head=2, dim_mlp=3,
                              n_classes=head_w.shape[1], final_norm=False)
    cfg = ModelConfig(task="mi", template_channels=("C0", "C1"), template_len=8,
                      fpe=fpe, transformer=t_cfg)
    model = init_model(cfg, seed=5, dtype=np.float64)
    zero_residual_branches(model)
    model.params.update({"pos": np.zeros_like(model.params["pos"]), "cls": cls,
                         "head.w": head_w})
    return model


class TestClassify:
    def test_zero_head_zero_logits(self, rng):
        model = init_model(small_cfg(), seed=0, dtype=np.float64)
        model.params["head.w"][:] = 0.0
        assert np.array_equal(forward(rng.standard_normal((4, 3, 64)), model),
                              np.zeros((4, 2)))

    def test_aligned_and_antialigned_columns(self, rng):
        direction = np.array([3.0, 4.0]) / 5.0  # class token [3, 4] has norm 5
        model = class_token_model(np.array([3.0, 4.0]),
                                  np.stack([direction, -direction], axis=1))
        logits = forward(rng.standard_normal((2, 8)), model)
        assert logits[0] == pytest.approx(5.0)
        assert logits[1] == pytest.approx(-5.0)

    def test_zero_class_token_output(self, rng):
        model = class_token_model(np.zeros(6), rng.standard_normal((6, 3)))
        logits = forward(rng.standard_normal((4, 2, 8)), model)
        assert np.array_equal(logits, np.zeros((4, 3)))


class TestForward:
    def test_determinism(self, rng):
        cfg = small_cfg()
        model = init_model(cfg, seed=0)
        x = rng.standard_normal((3, 64)).astype(np.float32)
        assert np.array_equal(forward(x, model), forward(x, model))

    def test_mi_default_shapes(self):
        from afpm.config import resolve_config
        run = resolve_config("mi")
        model = init_model(run.model_config(), seed=0)
        x = np.zeros((17, 1280), dtype=np.float32)
        logits = forward(x, model)
        assert logits.shape == (2,)

    def test_batch_matches_per_sample(self, rng):
        cfg = small_cfg()
        model = init_model(cfg, seed=3)
        xb = rng.standard_normal((4, 3, 64)).astype(np.float32)
        batched = forward(xb, model)
        single = np.stack([forward(xb[i], model) for i in range(4)])
        assert np.allclose(batched, single, atol=1e-6)

    def test_input_scale_is_applied(self, rng):
        from dataclasses import replace
        cfg = small_cfg()
        model = init_model(cfg, seed=0, dtype=np.float64)
        x = rng.standard_normal((3, 64))
        scaled_model = Model(cfg=replace(cfg, input_scale=2.0), params=model.params)
        assert np.allclose(forward(x * 2.0, model), forward(x, scaled_model))

    def test_bad_shape_rejected(self):
        model = init_model(small_cfg(), seed=0)
        with pytest.raises(DataError, match="expected batch"):
            forward(np.zeros((4, 64), dtype=np.float32), model)

    def test_softmax_attention_rows_sum_to_one(self, rng):
        cfg = small_cfg(depth=2)
        model = init_model(cfg, seed=2, dtype=np.float64)
        x = rng.standard_normal((2, 3, 64))
        _, cache = forward_cached(x, model, want_cache=True)
        for i in range(cfg.transformer.depth):
            att = cache[f"block{i}"]["att"]
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
    t_cfg = TransformerConfig(depth=1, heads=1, dim_head=2, dim_mlp=3, n_classes=2)
    cfg = ModelConfig(task="mi",
                      template_channels=tuple(f"C{i}" for i in range(channels)),
                      template_len=t_prime, fpe=fpe, transformer=t_cfg)
    model = init_model(cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((channels, t_prime)).astype(np.float32)
    patches = extract_patches(x[None], fpe)
    assert patches.shape == (1, g, channels * m)
    k = averaged_count(g, p, h)
    assert model_dims(cfg).n_tokens == k + 1
    logits = forward(x, model)
    assert logits.shape == (2,)


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("stride", [5, 8, 11])
def test_weight_gradients_match_einsum_reference(per_channel, stride, rng, monkeypatch):
    fpe = FPEConfig(embed_dim=4, frame_window=8, frame_stride=stride, avg_window=2,
                    avg_shift=2, token_dim=8, mlp_hidden=8)
    t_cfg = TransformerConfig(depth=2, heads=2, dim_head=3, dim_mlp=6, n_classes=3)
    cfg = ModelConfig(task="mi", template_channels=("C0", "C1", "C2"),
                      template_len=64, fpe=fpe, transformer=t_cfg,
                      per_channel_patches=per_channel)
    model = init_model(cfg, seed=4, dtype=np.float64)
    for name, arr in model.params.items():
        model.params[name] = arr + 0.3 * rng.standard_normal(arr.shape)
    x = rng.standard_normal((4, 3, 64))
    dlogits = rng.standard_normal((4, 3))
    _, cache = forward_cached(x, model)
    grads = backward_cached(dlogits, model, cache)

    calls = []

    def reference(a, b):
        calls.append(a.shape)
        return np.einsum("bsi,bsj->ij", a, b)

    monkeypatch.setattr(afpm.model, "_weight_grad", reference)
    ref = backward_cached(dlogits, model, cache)
    # patch.w1, patch.w2, proj.e0, and wq/wk/wv/wo/mlp.w1/mlp.w2 per block
    assert len(calls) == 3 + 6 * t_cfg.depth
    assert ref.keys() == grads.keys()
    for name in ref:
        assert grads[name].shape == model.params[name].shape
        scale = np.abs(ref[name]).max()
        assert scale > 0.0, name
        assert np.abs(grads[name] - ref[name]).max() <= 1e-12 * scale, name


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
        assert path.stat().st_size == len(header_line) + 1 + 4 * model.n_params()

    def test_double_save_identical_bytes(self, tmp_path):
        model = init_model(small_cfg(), seed=1)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

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
        assert m1.n_params() == m2.n_params()
        shapes = param_shapes(small_cfg())
        assert m1.n_params() == sum(int(np.prod(s)) for s in shapes.values())


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """Bytes of one small-config checkpoint, and a scratch path to write variants to."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(init_model(small_cfg(), seed=0), str(path), extra={"task": "mi"})
    return path.read_bytes(), path.with_name("bad.ckpt")


def _load_or_data_error(path, blob: bytes) -> Model | None:
    """The loader's whole contract: a model, or DataError and nothing else."""
    path.write_bytes(blob)
    try:
        model, _, _ = load_checkpoint(str(path))
    except DataError:
        return None
    assert model.n_params() == sum(math.prod(s) for s in param_shapes(model.cfg).values())
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
        # only keys with a default may go, and the default is what was saved
        assert model is None or model.cfg == small_cfg()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), value=st.one_of(
        st.text(max_size=6),
        st.lists(st.one_of(st.integers(-2, 300), st.text(max_size=3)), max_size=4)))
    def test_value_replaced(self, saved_checkpoint, data, value):
        blob, path = saved_checkpoint
        key_path = data.draw(st.sampled_from(_header_keys(blob)))
        model = _load_or_data_error(path, _edit_header(blob, key_path, value))
        # a string or list loads only where it spells the saved value, or as
        # another set of distinct channel names
        expected = small_cfg()
        if key_path == ("config", "template_channels") and isinstance(value, list):
            expected = dataclasses.replace(expected, template_channels=tuple(value))
        assert model is None or model.cfg == expected


def test_decay_mask_exempts_embeddings_norms_biases():
    model = init_model(small_cfg(), seed=0)
    decayed = {k for k, v in model.params.items() if decayed_param(k, v)}
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
    x = rng.standard_normal((3, 64)).astype(np.float32)
    assert forward(x, model).shape == (2,)
