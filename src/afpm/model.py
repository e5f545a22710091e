"""Frame-patch encoder and transformer classifier: forward ops, analytic backward, checkpoints.

``extract_patches`` cuts a batch of templates [B x M x T'] into G windows over
all channels (flattened channel-major), and ``STAGES``, one ordered table,
takes them to logits:

    patch     shared two-layer MLP to per-patch embeddings (length L)
    average   sliding-window averaging (P window, h shift) to K embeddings,
              one product with a K x G window matrix
    tokens    projection to token width L', class token, positional embeddings
    block{i}  one pre-norm transformer block each, depth of them
    head      final layer norm, linear head on the class token.

Each stage declares its parameters' shapes beside the forward that maps its
input to its output and its cache and the backward that writes its
parameters' gradients and returns its input gradient. ``param_shapes`` is
their shapes in table order, so each stage's parameters are one contiguous
run of ``FlatLayout``. ``forward_cached`` is one loop over the table and
``backward_cached`` one loop over it in reverse; the cache holds one entry per
stage instance. A harness times or inspects stages by swapping ``STAGES``.

A block's attention runs per head, or, when heads are wider than tokens
(``factored_attention``: the MI preset and its per-channel ablation), through
D x D products of its normed input, the QK/OV-circuit view of Elhage et al.
2021, "A Mathematical Framework for Transformer Circuits". Softmax cancels the
key bias there, so its gradient is zero; it stays a parameter so that
checkpoints keep one layout. Both forms build their scores key-major.

Everything is plain numpy in the parameter dtype (float32 for training,
float64 for gradient checks). ``micro_batches`` bounds the cache's memory: it
splits a batch into runs whose caches fit MICRO_BATCH_BYTES, which
``forward`` (inference) and ``training.backward`` take one at a time. A
``Model`` is its config and one vector in the layout, with read-only
per-tensor views built once: a checkpoint's payload is that vector in
float32, ``backward_cached`` writes every gradient into the views of a
gradient model, and training builds its vectors in the same layout once per run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .data_model import TASKS, atomic_open
from .errors import ConfigError, DataError, NumericError

LN_EPS = 1e-5
INIT_SIGMA = 0.02
CHECKPOINT_FORMAT = "afpm-checkpoint-v3"
# A batch runs as micro-batches whose attention caches fit into this many
# bytes (``micro_batches``). The 7-token MI and 5-token ERP presets count about
# 62 and 42 KiB per float32 sample, so a batch of 512 is one micro-batch; with
# per-channel patches (103 tokens) the MI preset counts about 2.7 MiB per
# sample and runs a batch of 64 as six micro-batches of 10 or 11. At 103
# tokens on one BLAS thread the step time is flat from micro-batches of 8 to
# 32 samples, so the budget is about the smallest that keeps the presets'
# batch of 512 in one pass, bit for bit.
MICRO_BATCH_BYTES = 32 * 2**20
# ``forward`` runs this many trials at a time. ``micro_batches`` counts only
# attention caches, so this is what bounds inference's patch array and the
# MLP activations beside it (about 65 MB of patches at 256 trials of the
# 48-channel template). perfbench/checks.py builds its oracle logits from
# ``forward`` calls on 256 trials at a time, which keep the same bits.
EVAL_BATCH = 256

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_term(x: np.ndarray) -> np.ndarray:
    """``1 + erf(x/√2)``: GELU is ``0.5 * x * term``, and ``dgelu`` reuses the term."""
    return 1.0 + erf(x * _INV_SQRT2)


def dgelu(x: np.ndarray, term: np.ndarray) -> np.ndarray:
    """GELU'(x) from ``x`` and its forward ``_gelu_term(x)``."""
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return 0.5 * term + x * phi


def require_int(config, name: str, minimum: int) -> None:
    """ConfigError unless field ``name`` of ``config`` is an int (not a bool) >= ``minimum``."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{type(config).__name__}.{name} must be an integer, "
                          f"got {value!r}")
    if value < minimum:
        raise ConfigError(f"{type(config).__name__}.{name} must be at least {minimum}")


def require_number(config, name: str) -> None:
    """ConfigError unless field ``name`` of ``config`` is a finite int or float (not a bool)."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) < math.inf:
        raise ConfigError(f"{type(config).__name__}.{name} must be a finite number, "
                          f"got {value!r}")


@dataclass(frozen=True)
class FPEConfig:
    """Frame-patch encoding hyper-parameters."""

    embed_dim: int          # L, per-patch embedding width
    frame_window: int       # m, samples per frame
    frame_stride: int       # d, samples between frame starts
    avg_window: int         # P, embeddings averaged per output
    avg_shift: int          # h, shift between averaging windows
    token_dim: int          # L', transformer token width
    mlp_hidden: int         # hidden width of the patch MLP

    def __post_init__(self):
        for name in ("embed_dim", "frame_window", "frame_stride",
                     "avg_window", "avg_shift", "token_dim", "mlp_hidden"):
            require_int(self, name, 1)


@dataclass(frozen=True)
class TransformerConfig:
    depth: int
    heads: int
    dim_head: int
    dim_mlp: int

    def __post_init__(self):
        for name in ("depth", "heads", "dim_head", "dim_mlp"):
            require_int(self, name, 1)


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to build or rebuild a model deterministically.

    ``class_names`` come from the training data; the head has one column per
    name, and label ``i`` means ``class_names[i]``.

    ``input_scale`` multiplies inputs at forward entry. Whitened trials carry
    per-sample magnitudes near 1/sqrt(T) (the domain-mean Gram sums over
    time), which leaves a 0.02-sigma patch MLP in its linear regime; training
    records the scale that restores unit magnitude on active samples, and the
    checkpoint carries it so inference applies the identical constant.
    """

    task: str
    template_channels: tuple[str, ...]
    template_len: int
    fpe: FPEConfig
    transformer: TransformerConfig
    class_names: tuple[str, ...]
    per_channel_patches: bool = False  # ablation: one channel per patch
    input_scale: float = 1.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown model task {self.task!r}, expected one of {TASKS}")
        names = self.class_names
        if not (isinstance(names, tuple) and len(names) >= 2
                and all(isinstance(c, str) for c in names) and len(set(names)) == len(names)):
            raise ConfigError(f"class_names must be at least 2 distinct strings, got {names!r}")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_channels(self) -> int:
        return len(self.template_channels)


def patch_count(template_len: int, stride: int) -> int:
    """Number of frame windows over a template of given length: ceil(T'/d) + 1."""
    if template_len < 1 or stride < 1:
        raise ConfigError("template length and stride must be positive")
    return -(-template_len // stride) + 1


def averaged_count(n_embeddings: int, window: int, shift: int) -> int:
    """Number of averaging windows: floor((G - P) / h) + 1."""
    if window > n_embeddings:
        raise ConfigError(f"averaging window {window} exceeds embedding count {n_embeddings}")
    return (n_embeddings - window) // shift + 1


@dataclass(frozen=True)
class ModelDims:
    patch_in: int    # flattened patch length fed to the MLP
    n_patches: int   # G
    n_avg: int       # K
    n_seq: int       # token positions carrying signal (K, or M*K per-channel)
    n_tokens: int    # n_seq + 1 (class token)


def model_dims(cfg: ModelConfig) -> ModelDims:
    f = cfg.fpe
    g = patch_count(cfg.template_len, f.frame_stride)
    k = averaged_count(g, f.avg_window, f.avg_shift)
    m = cfg.n_channels
    seq = m * k if cfg.per_channel_patches else k
    patch_in = f.frame_window if cfg.per_channel_patches else m * f.frame_window
    return ModelDims(patch_in=patch_in, n_patches=g, n_avg=k, n_seq=seq, n_tokens=seq + 1)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Name -> shape table in manifest (serialization) order: each stage's
    ``shapes``, in the order of ``stages(cfg)``."""
    return {k: v for name, stage in stages(cfg) for k, v in stage.shapes(cfg, name).items()}


@dataclass(frozen=True)
class FlatLayout:
    """Named tensors laid end to end in one vector: tensor ``names[i]`` of
    shape ``shapes[i]`` holds items ``offsets[i]:offsets[i + 1]``."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @classmethod
    def of(cls, shapes: dict[str, tuple]) -> "FlatLayout":
        offsets = tuple(accumulate((math.prod(s) for s in shapes.values()), initial=0))
        return cls(names=tuple(shapes), shapes=tuple(shapes.values()), offsets=offsets)

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor as a view of ``flat``."""
        return {name: flat[i:j].reshape(shape) for name, shape, i, j
                in zip(self.names, self.shapes, self.offsets, self.offsets[1:])}

    def first_nonfinite(self, flat: np.ndarray) -> str | None:
        """Name of the first tensor, in layout order, with a non-finite item
        of ``flat``; None when every item is finite."""
        finite = np.isfinite(flat)
        if finite.all():
            return None
        return self.names[np.searchsorted(self.offsets, np.argmin(finite), "right") - 1]


@dataclass(frozen=True, eq=False)
class Model:
    """A model is its config and one parameter vector ``flat`` in the layout of
    ``param_shapes(cfg)``. ``layout`` and ``params``, a read-only mapping from
    each name to a view of ``flat``, are built once, here: a model's
    parameters change only by writes into ``flat`` or its views."""

    cfg: ModelConfig
    flat: np.ndarray
    layout: FlatLayout = field(init=False, repr=False)
    params: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        layout = FlatLayout.of(param_shapes(self.cfg))
        if self.flat.shape != (layout.size,):
            raise DataError(f"parameter vector of shape {self.flat.shape} does not fit "
                            f"the config's {layout.size} parameters")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "params", MappingProxyType(layout.views(self.flat)))

    @property
    def dtype(self):
        return self.flat.dtype


def init_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Gaussian(0, 0.02) weights and embeddings, zero biases, unit norm scales,
    drawn tensor by tensor in ``param_shapes`` order."""
    model = Model(cfg, np.empty(FlatLayout.of(param_shapes(cfg)).size, dtype))
    rng = np.random.default_rng(seed)
    for name, p in model.params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            p[...] = 1
        elif leaf.startswith("b"):
            p[...] = 0
        else:
            p[...] = rng.standard_normal(p.shape) * INIT_SIGMA
    return model


# ---------------------------------------------------------------------------
# forward pieces


def extract_patches(x: np.ndarray, cfg: FPEConfig, per_channel: bool = False,
                    scale: float = 1.0, rows=None) -> np.ndarray:
    """Slice templates [B x M x T'] into G flattened frame windows each, times ``scale``.

    With ``rows`` (an index array), ``x`` is a stack [N x M x T'] and the
    templates are its rows ``rows``, in that order, as ``x[rows]`` would
    give them; without, they are all of ``x``.

    Window g (0-based) covers columns [g*d, g*d + m); columns beyond T'-1 read
    as zero. Standard mode flattens all channels of a window channel-major
    into one row of length M*m ([B x G x M*m]); per-channel mode yields M*G
    rows of length m, ordered channel-major: all windows of channel 0 first
    ([B x M*G x m]).

    The patches are built in the dtype of ``x`` with no padded, scaled or
    gathered copy of ``x``. The windows inside the template are copied from a
    strided view of ``x``, template by template, each window as one
    fixed-size item (its ``frame_window`` values viewed as one void), and
    then scaled in place; the few that run past its end are written
    one by one as ``scale * x``, their columns beyond T'-1 as explicit zeros.
    Only an input whose samples are not adjacent in memory is first copied,
    its picked rows alone.
    """
    if x.strides[-1] != x.itemsize:
        x, rows = np.ascontiguousarray(x if rows is None else x[rows]), None
    pick = np.arange(x.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    _, m, t_prime = x.shape
    b = pick.shape[0]
    width, stride = cfg.frame_window, cfg.frame_stride
    g = patch_count(t_prime, stride)
    out = np.empty((b, m, g, width) if per_channel else (b, g, m, width), dtype=x.dtype)
    windows = out if per_channel else out.transpose(0, 2, 1, 3)     # [B, M, G, m], a view
    scale = np.asarray(scale, dtype=x.dtype)
    inside = (t_prime - width) // stride + 1 if t_prime >= width else 0
    if inside:
        item = np.dtype((np.void, width * x.itemsize))
        copied = windows[:, :, :inside]
        dst = copied.view(item)[..., 0]
        src = sliding_window_view(x, width, axis=-1)[:, :, ::stride].view(item)[..., 0]
        for k, r in enumerate(pick.tolist()):
            dst[k] = src[r]
        copied *= scale
    for j in range(inside, g):
        piece = x[pick, :, j * stride:j * stride + width]
        np.multiply(piece, scale, out=windows[:, :, j, :piece.shape[-1]])
        windows[:, :, j, piece.shape[-1]:] = 0
    return out.reshape(b, m * g, width) if per_channel else out.reshape(b, g, m * width)


def window_matrix(n_patches: int, window: int, shift: int, dtype=np.float64) -> np.ndarray:
    """K x G 0/1 matrix whose row j marks embeddings [j*h, j*h + P).

    Window averaging is ``(W @ e) / P`` and its gradient ``W.T @ (d / P)``.
    Dividing outside the product, not putting 1/P in W, rounds as a sum
    followed by one division, as the mean over a window does.
    """
    k = averaged_count(n_patches, window, shift)
    start = shift * np.arange(k)[:, None]
    col = np.arange(n_patches)
    return ((col >= start) & (col < start + window)).astype(dtype)


def _window_map(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``mat`` [R x N] applied to each run of N rows of ``v`` [B x c*N x L].

    Standard patches form one run; per-channel patches one run per channel.
    """
    b, rows, width = v.shape
    n = mat.shape[1]
    return (mat @ v.reshape(b, rows // n, n, width)).reshape(b, -1, width)


def assemble_tokens(tilde_e: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Project embeddings [B x K x L] to token width, prepend the class token, add positions."""
    pos = params["pos"]
    b, k, _ = tilde_e.shape
    if k + 1 != pos.shape[0]:
        raise DataError(f"{k} embeddings do not fit positional table with {pos.shape[0]} rows")
    cls = np.broadcast_to(params["cls"], (b, 1, pos.shape[1]))
    return np.concatenate([cls, tilde_e @ params["proj.e0"]], axis=1) + pos


def _layernorm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layernorm_backward(dy, cache, p, grads, prefix):
    """d(loss)/dx of layer norm ``prefix``; writes its gain and bias gradients into ``grads``."""
    xhat, inv = cache
    grads[f"{prefix}.g"][...] = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    grads[f"{prefix}.b"][...] = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * p[f"{prefix}.g"]
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv


def _softmax(x):
    """Softmax over axis 1, the keys of key-major scores, computed in place:
    ``x`` must be a fresh array nothing else reads."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def _heads(x, heads):
    """Per-head view [B x H x S x dh] of a merged [B x S x H*dh] array."""
    b, s, hd = x.shape
    return x.reshape(b, s, heads, hd // heads).transpose(0, 2, 1, 3)


def _qkv(u, p, prefix):
    """Merged queries, keys and values [B x S x H*dh] of the normed block input ``u``."""
    out = []
    for n in "qkv":
        a = u @ p[f"{prefix}.attn.w{n}"]
        a += p[f"{prefix}.attn.b{n}"]
        out.append(a)
    return out


def factored_attention(t_cfg: TransformerConfig, token_dim: int) -> bool:
    """Whether blocks run the factored QK/OV form: heads wider than tokens.

    Each head's q·kᵀ and att·v·Wo then go through D x D products of the
    normed input, which take fewer operations than the dh-wide ones.
    """
    return t_cfg.dim_head > token_dim


def _split_heads(w, heads):
    """Per-head view [H x D x dh] of a merged [D x H*dh] weight."""
    d, hd = w.shape
    return w.reshape(d, heads, hd // heads).transpose(1, 0, 2)


def _circuits(p, prefix, t_cfg):
    """The effective QK and OV matrices of one block's heads, s = 1/√dh.

    ``qk`` [D x H*D] holds M_h = s·Wq_h Wk_hᵀ in head h's columns, ``qk_bias``
    [H*D] holds c_h = s·bq_h Wk_hᵀ, ``ov`` [H*D x D] stacks Wv_h Wo_h, and
    ``out_bias`` = bv Wo + bo. The key bias adds a constant to each row of
    scores, which softmax cancels, so it appears nowhere.
    """
    h, d = t_cfg.heads, p[f"{prefix}.ln1.g"].shape[0]
    scale = 1.0 / math.sqrt(t_cfg.dim_head)
    wq, wk, wv = (_split_heads(p[f"{prefix}.attn.w{n}"], h) for n in "qkv")
    wo = p[f"{prefix}.attn.wo"]
    wk_t = wk.transpose(0, 2, 1)
    qk = ((wq @ wk_t) * scale).transpose(1, 0, 2).reshape(d, h * d)
    qk_bias = ((p[f"{prefix}.attn.bq"].reshape(h, 1, -1) @ wk_t) * scale).reshape(h * d)
    ov = (wv @ wo.reshape(h, -1, d)).reshape(h * d, d)
    out_bias = p[f"{prefix}.attn.bv"] @ wo + p[f"{prefix}.attn.bo"]
    return qk, qk_bias, ov, out_bias


def _factored_queries(u, qk, qk_bias, heads):
    """Head-interleaved queries [B x S*H x D]: row i*H + h is u_i M_h + c_h."""
    qt = u @ qk
    qt += qk_bias
    b, s, d = u.shape
    return qt.reshape(b, s * heads, d)


def _head_attention(x, u, p, prefix, t_cfg):
    """``x`` plus per-head attention of ``u``, and the q, k, v, ctx and att it caches.

    The scores are built key-major [B x S_k x H x S_q], as the factored form
    builds them, so softmax reduces over their axis 1 in runs of H*S_q
    contiguous items (a last-axis reduction loops over rows of only S_k). The
    cache keeps ``att`` as its keys-last view [B x H x S_q x S_k].
    """
    h = t_cfg.heads
    q, k, v = _qkv(u, p, prefix)
    b, s, _ = q.shape
    scores = np.empty((b, s, h, s), dtype=q.dtype)
    np.matmul(_heads(k, h), _heads(q, h).transpose(0, 1, 3, 2),
              out=scores.transpose(0, 2, 1, 3))
    scores *= 1.0 / math.sqrt(t_cfg.dim_head)
    att = _softmax(scores).transpose(0, 2, 3, 1)
    ctx = np.empty_like(q)
    np.matmul(att, _heads(v, h), out=_heads(ctx, h))
    x1 = x + ctx @ p[f"{prefix}.attn.wo"] + p[f"{prefix}.attn.bo"]
    return x1, dict(q=q, k=k, v=v, ctx=ctx, att=att)


def _factored_attention(x, u, p, prefix, t_cfg):
    """``x`` plus factored attention of ``u``, and the y and att it caches,
    with the block's ``_circuits`` matrices qk, qk_bias and ov for backward.

    The key of every head is ``u`` itself, so per sample the scores of all
    heads are one product ``qt uᵀ`` [S*H x S] and their weighted keys one
    product ``y = att u`` [S*H x D]; the output is ``y @ ov + out_bias``.
    The scores are built key-major [B x S x S*H], so softmax reduces over
    their middle axis, which numpy vectorizes across the S*H queries (a
    last-axis reduction loops over rows of only S).
    """
    h = t_cfg.heads
    qk, qk_bias, ov, out_bias = _circuits(p, prefix, t_cfg)
    b, s, d = u.shape
    att = _softmax(u @ _factored_queries(u, qk, qk_bias, h).swapaxes(1, 2)).swapaxes(1, 2)
    y = (att @ u).reshape(b, s, h * d)
    x1 = x + y @ ov + out_bias
    return x1, dict(y=y, att=att, qk=qk, qk_bias=qk_bias, ov=ov)


def _weight_grad(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Gradient of ``y = a @ w``: sum over all leading axes of a^T dy, as one
    GEMM, into ``out`` when given."""
    return np.matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]), out=out)


# ---------------------------------------------------------------------------
# the stages, each with its parameters' shapes beside the code that reads them


def _patch_shapes(cfg, name):
    f = cfg.fpe
    return {"patch.w1": (model_dims(cfg).patch_in, f.mlp_hidden), "patch.b1": (f.mlp_hidden,),
            "patch.w2": (f.mlp_hidden, f.embed_dim), "patch.b2": (f.embed_dim,)}


def _patch_forward(patches, p, cfg, name):
    """The shared two-layer GELU MLP: per-patch embeddings [B x G x L]."""
    h1 = patches @ p["patch.w1"] + p["patch.b1"]
    h1_term = _gelu_term(h1)
    e = (0.5 * h1 * h1_term) @ p["patch.w2"] + p["patch.b2"]
    return e, dict(patches=patches, h1=h1, h1_term=h1_term)


def _patch_backward(de, p, cfg, name, c, grads):
    """The patch MLP's gradients; the patches need none, so it returns None."""
    h1, h1_term = c["h1"], c["h1_term"]
    _weight_grad(0.5 * h1 * h1_term, de, out=grads["patch.w2"])
    grads["patch.b2"][...] = de.sum(axis=(0, 1))
    dh1 = (de @ p["patch.w2"].T) * dgelu(h1, h1_term)
    _weight_grad(c["patches"], dh1, out=grads["patch.w1"])
    grads["patch.b1"][...] = dh1.sum(axis=(0, 1))


def _average_forward(e, p, cfg, name):
    """Window averaging: one product with the K x G window matrix, which it caches."""
    f = cfg.fpe
    win = window_matrix(model_dims(cfg).n_patches, f.avg_window, f.avg_shift, dtype=e.dtype)
    return _window_map(win, e) / f.avg_window, win


def _average_backward(dtilde, p, cfg, name, win, grads):
    """Scatter each window's gradient back onto its embeddings."""
    return _window_map(win.T, dtilde / cfg.fpe.avg_window)


def _token_shapes(cfg, name):
    f = cfg.fpe
    return {"proj.e0": (f.embed_dim, f.token_dim), "cls": (f.token_dim,),
            "pos": (model_dims(cfg).n_tokens, f.token_dim)}


def _token_backward(dxs, p, cfg, name, tilde, grads):
    grads["pos"][...] = dxs.sum(axis=0)
    grads["cls"][...] = dxs[:, 0, :].sum(axis=0)
    dtok = dxs[:, 1:, :]
    _weight_grad(tilde, dtok, out=grads["proj.e0"])
    return dtok @ p["proj.e0"].T


def _block_shapes(cfg, b):
    d, t = cfg.fpe.token_dim, cfg.transformer
    width = t.heads * t.dim_head
    return {f"{b}.ln1.g": (d,), f"{b}.ln1.b": (d,),
            f"{b}.attn.wq": (d, width), f"{b}.attn.bq": (width,),
            f"{b}.attn.wk": (d, width), f"{b}.attn.bk": (width,),
            f"{b}.attn.wv": (d, width), f"{b}.attn.bv": (width,),
            f"{b}.attn.wo": (width, d), f"{b}.attn.bo": (d,),
            f"{b}.ln2.g": (d,), f"{b}.ln2.b": (d,),
            f"{b}.mlp.w1": (d, t.dim_mlp), f"{b}.mlp.b1": (t.dim_mlp,),
            f"{b}.mlp.w2": (t.dim_mlp, d), f"{b}.mlp.b2": (d,)}


def _block_forward(x, p, cfg, prefix):
    """One pre-norm block: x += attention(LN(x)); x += mlp(LN(x)), the
    attention in the form ``factored_attention`` picks, looked up per call."""
    t_cfg = cfg.transformer
    u, ln1c = _layernorm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    attention = (_factored_attention if factored_attention(t_cfg, x.shape[-1])
                 else _head_attention)
    x1, kept = attention(x, u, p, prefix, t_cfg)

    u2, ln2c = _layernorm(x1, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    m1 = u2 @ p[f"{prefix}.mlp.w1"] + p[f"{prefix}.mlp.b1"]
    m1_term = _gelu_term(m1)
    x2 = x1 + (0.5 * m1 * m1_term) @ p[f"{prefix}.mlp.w2"] + p[f"{prefix}.mlp.b2"]
    return x2, dict(u=u, ln1c=ln1c, u2=u2, ln2c=ln2c, m1=m1, m1_term=m1_term, **kept)


def _block_backward(dx2, p, cfg, prefix, c, grads):
    t_cfg = cfg.transformer
    u, u2, m1, m1_term = c["u"], c["u2"], c["m1"], c["m1_term"]

    # MLP sub-block
    _weight_grad(0.5 * m1 * m1_term, dx2, out=grads[f"{prefix}.mlp.w2"])
    grads[f"{prefix}.mlp.b2"][...] = dx2.sum(axis=(0, 1))
    dm1 = (dx2 @ p[f"{prefix}.mlp.w2"].T) * dgelu(m1, m1_term)
    _weight_grad(u2, dm1, out=grads[f"{prefix}.mlp.w1"])
    grads[f"{prefix}.mlp.b1"][...] = dm1.sum(axis=(0, 1))
    du2 = dm1 @ p[f"{prefix}.mlp.w1"].T
    dx1 = dx2 + _layernorm_backward(du2, c["ln2c"], p, grads, f"{prefix}.ln2")

    # attention sub-block; every buffer written in place is fresh
    grads[f"{prefix}.attn.bo"][...] = dx1.sum(axis=(0, 1))
    attention_backward = (_factored_attention_backward
                          if factored_attention(t_cfg, dx1.shape[-1])
                          else _head_attention_backward)
    du = attention_backward(dx1, u, p, prefix, t_cfg, c, grads)
    return dx1 + _layernorm_backward(du, c["ln1c"], p, grads, f"{prefix}.ln1")


def _head_attention_backward(do, u, p, prefix, t_cfg, c, grads):
    """Per-head attention gradients into ``grads``; returns d(loss)/du."""
    h = t_cfg.heads
    scale = 1.0 / math.sqrt(t_cfg.dim_head)
    ctx, att = c["ctx"], c["att"]
    att_k = att.transpose(0, 3, 1, 2)      # the key-major [B x S_k x H x S_q] buffer
    q, k, v = (_heads(c[n], h) for n in "qkv")
    dq_m, dk_m, dv_m = (np.empty_like(ctx) for _ in "qkv")
    dctx = _heads(do @ p[f"{prefix}.attn.wo"].T, h)
    datt = np.empty_like(att_k)            # key-major, like the scores
    np.matmul(v, dctx.transpose(0, 1, 3, 2), out=datt.transpose(0, 2, 1, 3))
    np.matmul(att.transpose(0, 1, 3, 2), dctx, out=_heads(dv_m, h))
    # softmax backward, built in the datt buffer: dsc = att * (datt - rowsum(datt * att))
    datt -= np.sum(datt * att_k, axis=1, keepdims=True)
    datt *= att_k
    dsc = datt.transpose(0, 2, 3, 1)       # [B x H x S_q x S_k]
    np.matmul(dsc, k, out=_heads(dq_m, h))
    np.matmul(dsc.transpose(0, 1, 3, 2), q, out=_heads(dk_m, h))
    dq_m *= scale
    dk_m *= scale
    _weight_grad(ctx, do, out=grads[f"{prefix}.attn.wo"])
    for n, d_m in zip("qkv", (dq_m, dk_m, dv_m)):
        _weight_grad(u, d_m, out=grads[f"{prefix}.attn.w{n}"])
        grads[f"{prefix}.attn.b{n}"][...] = d_m.sum(axis=(0, 1))
    return dq_m @ p[f"{prefix}.attn.wq"].T + dk_m @ p[f"{prefix}.attn.wk"].T \
        + dv_m @ p[f"{prefix}.attn.wv"].T


def _factored_attention_backward(do, u, p, prefix, t_cfg, c, grads):
    """Factored attention gradients into ``grads``; returns d(loss)/du.

    Backpropagates to ``_circuits``' matrices, which the forward cached,
    then maps their gradients onto the per-head weights. The key bias gets
    explicit zeros.
    """
    h, dh = t_cfg.heads, t_cfg.dim_head
    scale = 1.0 / math.sqrt(dh)
    qk, qk_bias, ov, y, att = (c[n] for n in ("qk", "qk_bias", "ov", "y", "att"))
    b, s, d = do.shape
    # 2-D products: a stack times a transposed matrix takes a slower numpy loop
    dy = (do.reshape(-1, d) @ ov.T).reshape(b, s * h, d)
    # key-major [B x S x S*H], like the scores
    att_k, datt = att.swapaxes(1, 2), u @ dy.swapaxes(1, 2)
    du = att_k @ dy
    # softmax backward, built in the datt buffer: dsc = att * (datt - rowsum(datt * att)),
    # where rowsum(datt * att) = rowsum(dy * att u) = rowsum(dy * y), D wide not S
    datt -= np.einsum("rqd,rqd->rq", dy, y.reshape(b, s * h, d))[:, None, :]
    datt *= att_k
    dqt = (datt.swapaxes(1, 2) @ u).reshape(b, s, h * d)
    du += datt @ _factored_queries(u, qk, qk_bias, h)
    du += (dqt.reshape(-1, h * d) @ qk.T).reshape(u.shape)

    # circuits -> per-head weights
    d_out = grads[f"{prefix}.attn.bo"]     # d(out_bias): do summed over samples and tokens
    d_ov = _weight_grad(y, do).reshape(h, d, d)
    d_qk = _weight_grad(u, dqt).reshape(d, h, d).transpose(1, 0, 2)
    d_qk_bias = dqt.sum(axis=(0, 1)).reshape(h, 1, d)
    wq, wk, wv = (_split_heads(p[f"{prefix}.attn.w{n}"], h) for n in "qkv")
    wo, bq, bv = (p[f"{prefix}.attn.{n}"] for n in ("wo", "bq", "bv"))
    grads[f"{prefix}.attn.wo"][...] = (wv.transpose(0, 2, 1) @ d_ov).reshape(h * dh, d) \
        + np.outer(bv, d_out)
    dwq, dwk, dwv = (_split_heads(grads[f"{prefix}.attn.w{n}"], h) for n in "qkv")
    dwq[...] = (d_qk @ wk) * scale
    grads[f"{prefix}.attn.bq"][...] = ((d_qk_bias @ wk) * scale).reshape(h * dh)
    dwk[...] = (d_qk.transpose(0, 2, 1) @ wq
                + d_qk_bias.transpose(0, 2, 1) @ bq.reshape(h, 1, dh)) * scale
    grads[f"{prefix}.attn.bk"][...] = 0
    dwv[...] = d_ov @ wo.reshape(h, dh, d).transpose(0, 2, 1)
    grads[f"{prefix}.attn.bv"][...] = wo @ d_out
    return du


def _head_shapes(cfg, name):
    d = cfg.fpe.token_dim
    return {"final_ln.g": (d,), "final_ln.b": (d,), "head.w": (d, cfg.n_classes)}


def _head_forward(x, p, cfg, name):
    """The final layer norm, then the linear head on the class token: logits [B x c]."""
    normed, lnc = _layernorm(x, p["final_ln.g"], p["final_ln.b"])
    return normed[:, 0, :] @ p["head.w"], dict(x=x, lnc=lnc, normed_cls=normed[:, 0, :])


def _head_backward(dlogits, p, cfg, name, c, grads):
    np.matmul(c["normed_cls"].T, dlogits, out=grads["head.w"])
    dxs = np.zeros_like(c["x"])
    dxs[:, 0, :] = dlogits @ p["head.w"].T
    return _layernorm_backward(dxs, c["lnc"], p, grads, "final_ln")


@dataclass(frozen=True)
class Stage:
    """One entry of ``STAGES``; a ``per_block`` one runs once per block, as
    ``{name}{i}``. Each function takes the config and the instance's name:
    ``shapes(cfg, name)`` gives its parameters, ``forward(x, p, cfg, name)``
    its output and cache, and ``backward(dy, p, cfg, name, cache, grads)``
    writes its parameters' gradients into ``grads`` and returns d(loss)/dx."""

    name: str
    shapes: Callable
    forward: Callable
    backward: Callable
    per_block: bool = False


# The decoder, input first: the patches of ``extract_patches`` in, logits out.
STAGES = (
    Stage("patch", _patch_shapes, _patch_forward, _patch_backward),
    Stage("average", lambda cfg, name: {}, _average_forward, _average_backward),
    Stage("tokens", _token_shapes, lambda x, p, cfg, name: (assemble_tokens(x, p), x),
          _token_backward),
    Stage("block", _block_shapes, _block_forward, _block_backward, per_block=True),
    Stage("head", _head_shapes, _head_forward, _head_backward),
)


def stages(cfg: ModelConfig) -> list[tuple[str, Stage]]:
    """``(name, stage)`` of every stage instance of ``cfg``, in ``STAGES`` order."""
    return [(f"{s.name}{i}" if s.per_block else s.name, s) for s in STAGES
            for i in range(cfg.transformer.depth if s.per_block else 1)]


def micro_batches(cfg: ModelConfig, batch: int, itemsize: int) -> list[tuple[int, int]]:
    """``(start, stop)`` runs of a batch, as even as can be, whose attention
    caches fit MICRO_BATCH_BYTES (one sample per run at least).

    A block's cache keeps, per sample, q, k, v, ctx and the attention weights
    per head, or y and the attention weights factored; the count is that, over
    all blocks, in items of ``itemsize`` bytes. The factored circuit matrices
    it also keeps are parameter-sized, the same for any batch, and not counted.
    """
    t, d = cfg.transformer, cfg.fpe.token_dim
    s = model_dims(cfg).n_tokens
    per_token = (t.heads * (d + s) if factored_attention(t, d)
                 else 4 * t.heads * t.dim_head + t.heads * s)
    size = max(1, MICRO_BATCH_BYTES // (s * per_token * itemsize * t.depth))
    n = max(1, -(-batch // size))
    bounds = [batch * i // n for i in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def forward(x_batch: np.ndarray, model: Model) -> np.ndarray:
    """Logits [B x c] of a batch [B x M x T'], without a backward cache: EVAL_BATCH
    trials at a time, each chunk one micro-batch (``micro_batches``) at a time."""
    n, itemsize = len(x_batch), model.dtype.itemsize
    runs = [(i + j, i + k) for i in range(0, n, EVAL_BATCH)
            for j, k in micro_batches(model.cfg, min(EVAL_BATCH, n - i), itemsize)]
    return np.concatenate([forward_cached(x_batch[i:j], model, want_cache=False)[0]
                           for i, j in runs])


def forward_cached(x_batch: np.ndarray, model: Model, want_cache: bool = True,
                   rows=None) -> tuple[np.ndarray, dict | None]:
    """Logits [B x c] of a batch and the backward cache: each stage instance's
    cache under its name, for the whole batch (``micro_batches`` sizes batches).

    With ``rows`` (an index array), ``x_batch`` is a stack [N x M x T'] and
    the batch is its rows ``rows``: ``extract_patches`` reads them straight
    into the patch array, the batch's only copy of its input. A stack in
    another dtype than the model's is gathered and converted first.
    """
    cfg = model.cfg
    x = np.asarray(x_batch)
    if x.dtype != model.dtype:
        x, rows = (x if rows is None else x[rows]).astype(model.dtype), None
    if x.ndim != 3 or x.shape[1] != cfg.n_channels or x.shape[2] != cfg.template_len:
        raise DataError(f"expected batch [B x {cfg.n_channels} x {cfg.template_len}], "
                        f"got {x.shape}")
    y = extract_patches(x, cfg.fpe, cfg.per_channel_patches, cfg.input_scale, rows)
    cache = {}
    for name, stage in stages(cfg):
        y, cache[name] = stage.forward(y, model.params, cfg, name)
        if not want_cache:
            del cache[name]     # free it before the next stage
        if stage.per_block and not np.all(np.isfinite(y)):
            raise NumericError("non-finite activations after transformer block "
                               f"{name.removeprefix(stage.name)}")
    return y, cache if want_cache else None


def backward_cached(dlogits: np.ndarray, model: Model, cache: dict,
                    grads: dict[str, np.ndarray]) -> None:
    """Writes every parameter's gradient for the cached batch, given
    d(loss)/d(logits), into ``grads`` (a gradient model's ``params``), stage by
    stage in reverse. Every item is written, so ``grads`` may start uninitialized."""
    dy = dlogits
    for name, stage in reversed(stages(model.cfg)):
        dy = stage.backward(dy, model.params, model.cfg, name, cache[name], grads)


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then raw little-endian float32 payload


def _cfg_from_json(d: dict) -> ModelConfig:
    """Rebuild a config from its JSON form. Every key is required (the writer
    writes them all), and fields of the wrong type raise rather than coerce: a
    damaged header must not load as a different model."""
    fpe, transformer = FPEConfig(**d["fpe"]), TransformerConfig(**d["transformer"])
    channels, scale = d["template_channels"], d["input_scale"]
    classes, per_channel = d["class_names"], d["per_channel_patches"]
    if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)
            and len(set(channels)) == len(channels) and isinstance(d["template_len"], int)
            and isinstance(classes, list) and isinstance(per_channel, bool)):
        raise TypeError("template_channels must be distinct strings, template_len "
                        "an integer, class_names a list and the flag a boolean")
    if not (type(scale) in (int, float) and math.isfinite(scale) and scale > 0):
        raise ValueError("input_scale must be a finite positive number")
    return ModelConfig(task=d["task"], template_channels=tuple(channels),
                       template_len=d["template_len"], fpe=fpe, transformer=transformer,
                       class_names=tuple(classes), per_channel_patches=per_channel,
                       input_scale=float(scale))


def _entries(layout: FlatLayout) -> list[dict]:
    """The checkpoint header's parameter list for ``layout``, in payload order."""
    return [{"name": name, "kind": "param", "shape": list(shape)}
            for name, shape in zip(layout.names, layout.shapes)]


def save_checkpoint(model: Model, path: str, extra: dict | None = None) -> None:
    """Write config + named parameter manifest + ``model.flat`` as little-endian
    float32. No optimizer state: fine-tuning starts fresh AdamW moments."""
    header = {"format": CHECKPOINT_FORMAT, "config": asdict(model.cfg),
              "entries": _entries(model.layout), "extra": extra or {}}
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(model.flat, dtype="<f4").data)


def load_checkpoint(path: str) -> tuple[Model, None, dict]:
    """Read a checkpoint; returns (model, None, extra dict).

    The model's ``flat`` is the payload, one read-only float32 vector in the
    layout of ``param_shapes``: training copies it and never writes into it.
    The middle element is always None (a checkpoint holds parameters only);
    the 3-tuple stays because ``perfbench/checks.py`` unpacks ``model, opt, extra``."""
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
    except OSError as e:
        raise DataError(f"checkpoint {path} cannot be read: {e.strerror or e}") from e
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"checkpoint header in {path} is malformed: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"checkpoint header in {path} is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"checkpoint format {header.get('format')!r} in {path} "
                        f"is not {CHECKPOINT_FORMAT}")
    missing = [key for key in ("config", "entries") if key not in header]
    if missing:
        raise DataError(f"checkpoint header in {path} lacks {', '.join(missing)}")
    try:
        cfg = _cfg_from_json(header["config"])
        layout = FlatLayout.of(param_shapes(cfg))
    except (ConfigError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint config in {path} is malformed "
                        f"({type(e).__name__}: {e})") from e
    if header["entries"] != _entries(layout):
        raise DataError(f"checkpoint entries in {path} do not match its config")
    if 4 * layout.size != len(blob):
        raise DataError(f"checkpoint payload size mismatch: {len(blob)} bytes, "
                        f"expected {4 * layout.size}")
    flat = np.frombuffer(blob, dtype="<f4")
    bad = layout.first_nonfinite(flat)
    if bad is not None:
        raise DataError(f"checkpoint tensor {bad!r} in {path} is not finite")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"checkpoint extra in {path} is not a JSON object")
    return Model(cfg, flat), None, extra
