"""Frame-patch encoder and transformer classifier: forward ops, analytic backward, checkpoints.

The forward chain for a batch of template inputs [B x M x T']:

    patches (G windows over all channels, flattened channel-major)
    -> shared two-layer MLP to per-patch embeddings (length L)
    -> sliding-window averaging (P window, h shift) to K embeddings, one
       product with a K x G window matrix
    -> projection to token width L', class token, positional embeddings
    -> pre-norm transformer encoder (depth blocks)
    -> final layer norm, linear head on the class token.

Everything is plain numpy in the parameter dtype (float32 for training,
float64 for gradient checks). ``forward_cached``/``backward_cached`` are the
one batched path; ``forward`` wraps it for a single template or a batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .data_model import TASKS, atomic_open
from .errors import ConfigError, DataError, NumericError

LN_EPS = 1e-5
INIT_SIGMA = 0.02
CHECKPOINT_FORMAT = "afpm-checkpoint-v2"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def dgelu(x: np.ndarray) -> np.ndarray:
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * phi


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
            if getattr(self, name) < 1:
                raise ConfigError(f"FPEConfig.{name} must be positive")


@dataclass(frozen=True)
class TransformerConfig:
    depth: int
    heads: int
    dim_head: int
    dim_mlp: int
    n_classes: int
    final_norm: bool = True

    def __post_init__(self):
        for name in ("depth", "heads", "dim_head", "dim_mlp", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"TransformerConfig.{name} must be positive")


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to build or rebuild a model deterministically.

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
    per_channel_patches: bool = False  # ablation: one channel per patch
    input_scale: float = 1.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown model task {self.task!r}, expected one of {TASKS}")

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
        raise ConfigError(
            f"averaging window {window} exceeds embedding count {n_embeddings}"
        )
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
    if cfg.per_channel_patches:
        return ModelDims(patch_in=f.frame_window, n_patches=g, n_avg=k,
                         n_seq=m * k, n_tokens=m * k + 1)
    return ModelDims(patch_in=m * f.frame_window, n_patches=g, n_avg=k,
                     n_seq=k, n_tokens=k + 1)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Name -> shape table in manifest (serialization) order."""
    dims = model_dims(cfg)
    f, t = cfg.fpe, cfg.transformer
    width = t.heads * t.dim_head
    shapes: dict[str, tuple] = {
        "patch.w1": (dims.patch_in, f.mlp_hidden),
        "patch.b1": (f.mlp_hidden,),
        "patch.w2": (f.mlp_hidden, f.embed_dim),
        "patch.b2": (f.embed_dim,),
        "proj.e0": (f.embed_dim, f.token_dim),
        "cls": (f.token_dim,),
        "pos": (dims.n_tokens, f.token_dim),
    }
    for i in range(t.depth):
        b = f"block{i}"
        shapes.update({
            f"{b}.ln1.g": (f.token_dim,), f"{b}.ln1.b": (f.token_dim,),
            f"{b}.attn.wq": (f.token_dim, width), f"{b}.attn.bq": (width,),
            f"{b}.attn.wk": (f.token_dim, width), f"{b}.attn.bk": (width,),
            f"{b}.attn.wv": (f.token_dim, width), f"{b}.attn.bv": (width,),
            f"{b}.attn.wo": (width, f.token_dim), f"{b}.attn.bo": (f.token_dim,),
            f"{b}.ln2.g": (f.token_dim,), f"{b}.ln2.b": (f.token_dim,),
            f"{b}.mlp.w1": (f.token_dim, t.dim_mlp), f"{b}.mlp.b1": (t.dim_mlp,),
            f"{b}.mlp.w2": (t.dim_mlp, f.token_dim), f"{b}.mlp.b2": (f.token_dim,),
        })
    if t.final_norm:
        shapes["final_ln.g"] = (f.token_dim,)
        shapes["final_ln.b"] = (f.token_dim,)
    shapes["head.w"] = (f.token_dim, t.n_classes)
    return shapes


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Gaussian(0, 0.02) weights and embeddings, zero biases, unit norm scales."""
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            p[name] = np.ones(shape, dtype=dtype)
        elif leaf.startswith("b"):
            p[name] = np.zeros(shape, dtype=dtype)
        else:
            p[name] = (rng.standard_normal(shape) * INIT_SIGMA).astype(dtype)
    return p


@dataclass
class Model:
    cfg: ModelConfig
    params: dict[str, np.ndarray]

    @property
    def dtype(self):
        return self.params["head.w"].dtype

    def n_params(self) -> int:
        return int(sum(v.size for v in self.params.values()))


def init_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> Model:
    return Model(cfg=cfg, params=init_params(cfg, seed, dtype=dtype))


def decayed_param(name: str, arr: np.ndarray) -> bool:
    """Weight decay applies to matrices only; embeddings, biases, norms are exempt."""
    return arr.ndim == 2 and name != "pos"


# ---------------------------------------------------------------------------
# forward pieces


def extract_patches(x: np.ndarray, cfg: FPEConfig,
                    per_channel: bool = False) -> np.ndarray:
    """Slice templates [B x M x T'] into G flattened frame windows each.

    Window g (0-based) covers columns [g*d, g*d + m); columns beyond T'-1 read
    as zero. Standard mode flattens all channels of a window channel-major
    into one row of length M*m ([B x G x M*m]); per-channel mode yields M*G
    rows of length m, ordered channel-major: all windows of channel 0 first
    ([B x M*G x m]).
    """
    b, m, t_prime = x.shape
    g = patch_count(t_prime, cfg.frame_stride)
    span = (g - 1) * cfg.frame_stride + cfg.frame_window
    padded = np.zeros((b, m, span), dtype=x.dtype)
    padded[:, :, :t_prime] = x
    windows = sliding_window_view(padded, cfg.frame_window, axis=-1)[
        :, :, ::cfg.frame_stride, :]                 # [B, M, G, m], a view
    if per_channel:
        return windows.reshape(b, m * g, cfg.frame_window)
    return windows.transpose(0, 2, 1, 3).reshape(b, g, m * cfg.frame_window)


def window_matrix(n_patches: int, window: int, shift: int,
                  dtype=np.float64) -> np.ndarray:
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
        raise DataError(
            f"{k} embeddings do not fit positional table with {pos.shape[0]} rows"
        )
    cls = np.broadcast_to(params["cls"], (b, 1, pos.shape[1]))
    return np.concatenate([cls, tilde_e @ params["proj.e0"]], axis=1) + pos


def _layernorm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layernorm_backward(dy, cache, g):
    xhat, inv = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dg, db


def _softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def _split_heads(x, heads):
    b, s, hd = x.shape
    return x.reshape(b, s, heads, hd // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _block_forward(x, p, prefix, t_cfg, cache):
    """One pre-norm block: x += attention(LN(x)); x += mlp(LN(x))."""
    scale = 1.0 / math.sqrt(t_cfg.dim_head)
    u, ln1c = _layernorm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    q = _split_heads(u @ p[f"{prefix}.attn.wq"] + p[f"{prefix}.attn.bq"], t_cfg.heads)
    k = _split_heads(u @ p[f"{prefix}.attn.wk"] + p[f"{prefix}.attn.bk"], t_cfg.heads)
    v = _split_heads(u @ p[f"{prefix}.attn.wv"] + p[f"{prefix}.attn.bv"], t_cfg.heads)
    att = _softmax((q @ k.transpose(0, 1, 3, 2)) * scale)
    ctx = _merge_heads(att @ v)
    x1 = x + ctx @ p[f"{prefix}.attn.wo"] + p[f"{prefix}.attn.bo"]

    u2, ln2c = _layernorm(x1, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    m1 = u2 @ p[f"{prefix}.mlp.w1"] + p[f"{prefix}.mlp.b1"]
    g1 = gelu(m1)
    x2 = x1 + g1 @ p[f"{prefix}.mlp.w2"] + p[f"{prefix}.mlp.b2"]
    if cache is not None:
        cache[prefix] = dict(u=u, ln1c=ln1c, q=q, k=k, v=v, att=att, ctx=ctx,
                             u2=u2, ln2c=ln2c, m1=m1, g1=g1)
    return x2


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``y = a @ w``: sum over all leading axes of a^T dy, as one GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _block_backward(dx2, p, prefix, t_cfg, c, grads):
    scale = 1.0 / math.sqrt(t_cfg.dim_head)
    u, q, k, v, att, ctx = c["u"], c["q"], c["k"], c["v"], c["att"], c["ctx"]
    u2, m1, g1 = c["u2"], c["m1"], c["g1"]

    # MLP sub-block
    dm2 = dx2
    grads[f"{prefix}.mlp.w2"] = _weight_grad(g1, dm2)
    grads[f"{prefix}.mlp.b2"] = dm2.sum(axis=(0, 1))
    dg1 = dm2 @ p[f"{prefix}.mlp.w2"].T
    dm1 = dg1 * dgelu(m1)
    grads[f"{prefix}.mlp.w1"] = _weight_grad(u2, dm1)
    grads[f"{prefix}.mlp.b1"] = dm1.sum(axis=(0, 1))
    du2 = dm1 @ p[f"{prefix}.mlp.w1"].T
    dx1_ln, grads[f"{prefix}.ln2.g"], grads[f"{prefix}.ln2.b"] = _layernorm_backward(
        du2, c["ln2c"], p[f"{prefix}.ln2.g"])
    dx1 = dx2 + dx1_ln

    # attention sub-block
    do = dx1
    grads[f"{prefix}.attn.wo"] = _weight_grad(ctx, do)
    grads[f"{prefix}.attn.bo"] = do.sum(axis=(0, 1))
    dctx = _split_heads(do @ p[f"{prefix}.attn.wo"].T, t_cfg.heads)
    datt = dctx @ v.transpose(0, 1, 3, 2)
    dv = att.transpose(0, 1, 3, 2) @ dctx
    dsc = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
    dq = (dsc @ k) * scale
    dk = (dsc.transpose(0, 1, 3, 2) @ q) * scale
    dq_m, dk_m, dv_m = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    grads[f"{prefix}.attn.wq"] = _weight_grad(u, dq_m)
    grads[f"{prefix}.attn.bq"] = dq_m.sum(axis=(0, 1))
    grads[f"{prefix}.attn.wk"] = _weight_grad(u, dk_m)
    grads[f"{prefix}.attn.bk"] = dk_m.sum(axis=(0, 1))
    grads[f"{prefix}.attn.wv"] = _weight_grad(u, dv_m)
    grads[f"{prefix}.attn.bv"] = dv_m.sum(axis=(0, 1))
    du = dq_m @ p[f"{prefix}.attn.wq"].T + dk_m @ p[f"{prefix}.attn.wk"].T \
        + dv_m @ p[f"{prefix}.attn.wv"].T
    dx_ln, grads[f"{prefix}.ln1.g"], grads[f"{prefix}.ln1.b"] = _layernorm_backward(
        du, c["ln1c"], p[f"{prefix}.ln1.g"])
    return dx1 + dx_ln


def forward(x_tem: np.ndarray, model: Model) -> np.ndarray:
    """Full forward pass; accepts one template [M x T'] or a batch [B x M x T']."""
    x = np.asarray(x_tem, dtype=model.dtype)
    single = x.ndim == 2
    logits, _ = forward_cached(x[None] if single else x, model, want_cache=False)
    return logits[0] if single else logits


def forward_cached(x_batch: np.ndarray, model: Model,
                   want_cache: bool = True) -> tuple[np.ndarray, dict | None]:
    """Batched forward returning logits [B x c] and the backward cache."""
    cfg, p = model.cfg, model.params
    x = np.asarray(x_batch, dtype=model.dtype)
    if x.ndim != 3 or x.shape[1] != cfg.n_channels or x.shape[2] != cfg.template_len:
        raise DataError(
            f"expected batch [B x {cfg.n_channels} x {cfg.template_len}], "
            f"got {x.shape}"
        )
    if cfg.input_scale != 1.0:
        x = x * np.asarray(cfg.input_scale, dtype=model.dtype)
    f = cfg.fpe
    patches = extract_patches(x, f, cfg.per_channel_patches)
    h1 = patches @ p["patch.w1"] + p["patch.b1"]
    a1 = gelu(h1)
    e = a1 @ p["patch.w2"] + p["patch.b2"]
    win = window_matrix(model_dims(cfg).n_patches, f.avg_window, f.avg_shift,
                        dtype=model.dtype)
    tilde = _window_map(win, e) / f.avg_window
    tokens = assemble_tokens(tilde, p)

    cache: dict = ({"patches": patches, "h1": h1, "a1": a1, "win": win, "tilde": tilde}
                   if want_cache else {})
    xs = tokens
    for i in range(cfg.transformer.depth):
        xs = _block_forward(xs, p, f"block{i}", cfg.transformer,
                            cache if want_cache else None)
        if not np.all(np.isfinite(xs)):
            raise NumericError(f"non-finite activations after transformer block {i}")
    if cfg.transformer.final_norm:
        normed, lnfc = _layernorm(xs, p["final_ln.g"], p["final_ln.b"])
    else:
        normed, lnfc = xs, None
    logits = normed[:, 0, :] @ p["head.w"]
    if want_cache:
        cache.update(x_blocks_out=xs, final_lnc=lnfc, normed_cls=normed[:, 0, :])
        return logits, cache
    return logits, None


def backward_cached(dlogits: np.ndarray, model: Model,
                    cache: dict) -> dict[str, np.ndarray]:
    """Gradients of every parameter given d(loss)/d(logits) for the cached batch."""
    cfg, p = model.cfg, model.params
    grads: dict[str, np.ndarray] = {}

    grads["head.w"] = cache["normed_cls"].T @ dlogits
    dxs = np.zeros_like(cache["x_blocks_out"])
    dxs[:, 0, :] = dlogits @ p["head.w"].T
    if cfg.transformer.final_norm:
        dxs, grads["final_ln.g"], grads["final_ln.b"] = _layernorm_backward(
            dxs, cache["final_lnc"], p["final_ln.g"])

    for i in reversed(range(cfg.transformer.depth)):
        dxs = _block_backward(dxs, p, f"block{i}", cfg.transformer,
                              cache[f"block{i}"], grads)

    # token assembly
    grads["pos"] = dxs.sum(axis=0)
    grads["cls"] = dxs[:, 0, :].sum(axis=0)
    dtok = dxs[:, 1:, :]
    grads["proj.e0"] = _weight_grad(cache["tilde"], dtok)
    dtilde = dtok @ p["proj.e0"].T

    # averaging: scatter each window's gradient back onto its embeddings
    de = _window_map(cache["win"].T, dtilde / cfg.fpe.avg_window)

    # patch MLP
    a1, h1, patches = cache["a1"], cache["h1"], cache["patches"]
    grads["patch.w2"] = _weight_grad(a1, de)
    grads["patch.b2"] = de.sum(axis=(0, 1))
    da1 = de @ p["patch.w2"].T
    dh1 = da1 * dgelu(h1)
    grads["patch.w1"] = _weight_grad(patches, dh1)
    grads["patch.b1"] = dh1.sum(axis=(0, 1))
    return grads


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then raw little-endian float32 payload


def _cfg_to_json(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["template_channels"] = list(cfg.template_channels)
    return d


def _cfg_from_json(d: dict) -> ModelConfig:
    """Rebuild a config from its JSON form. Fields of the wrong type raise
    rather than coerce: a damaged header must not load as a different model."""
    fpe, transformer = FPEConfig(**d["fpe"]), TransformerConfig(**d["transformer"])
    channels, scale = d["template_channels"], d.get("input_scale", 1.0)
    per_channel = d.get("per_channel_patches", False)
    if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)
            and len(set(channels)) == len(channels) and isinstance(d["template_len"], int)
            and isinstance(per_channel, bool) and isinstance(transformer.final_norm, bool)):
        raise TypeError("template_channels must be distinct strings, template_len "
                        "an integer and the flags booleans")
    if not (type(scale) in (int, float) and math.isfinite(scale) and scale > 0):
        raise ValueError("input_scale must be a finite positive number")
    return ModelConfig(task=d["task"], template_channels=tuple(channels),
                       template_len=d["template_len"], fpe=fpe, transformer=transformer,
                       per_channel_patches=per_channel, input_scale=float(scale))


def save_checkpoint(model: Model, path: str, extra: dict | None = None) -> None:
    """Write config + named parameter manifest + float32 payload in manifest order.

    A checkpoint holds no optimizer state: fine-tuning starts fresh AdamW
    moments on the stored parameters.
    """
    arrays = [np.ascontiguousarray(arr, dtype="<f4") for arr in model.params.values()]
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": _cfg_to_json(model.cfg),
        "entries": [{"name": name, "kind": "param", "shape": list(a.shape)}
                    for name, a in zip(model.params, arrays)],
        "extra": extra or {},
    }
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for a in arrays:
            fh.write(a.tobytes())


def _entry_shape(index: int, entry, path: str) -> tuple[int, ...]:
    """Shape of one checkpoint entry, after checking the entry's fields."""
    if not (isinstance(entry, dict) and {"name", "kind", "shape"} <= entry.keys()
            and isinstance(entry["name"], str) and entry["kind"] == "param"
            and isinstance(entry["shape"], list)
            and all(isinstance(n, int) and n >= 0 for n in entry["shape"])):
        raise DataError(
            f"checkpoint entry {index} in {path} needs a name, kind param "
            f"and a shape of non-negative integers"
        )
    return tuple(entry["shape"])


def load_checkpoint(path: str) -> tuple[Model, None, dict]:
    """Read a checkpoint; returns (model, None, extra dict).

    The middle element is always None: a checkpoint holds parameters only.
    The 3-tuple stays so callers that unpack ``model, opt, extra`` keep working.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
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
        expected = param_shapes(cfg)
    except (ConfigError, KeyError, TypeError, ValueError) as e:
        raise DataError(
            f"checkpoint config in {path} is malformed ({type(e).__name__}: {e})"
        ) from e
    if not isinstance(header["entries"], list):
        raise DataError(f"checkpoint entries in {path} are not a list")
    shapes = [_entry_shape(i, entry, path) for i, entry in enumerate(header["entries"])]
    counts = [math.prod(shape) for shape in shapes]
    if 4 * sum(counts) != len(blob):
        raise DataError(
            f"checkpoint payload size mismatch: {len(blob)} bytes, "
            f"expected {4 * sum(counts)}"
        )
    finite = np.isfinite(np.frombuffer(blob, dtype="<f4"))
    if not finite.all():
        bad = header["entries"][np.searchsorted(np.cumsum(counts), np.argmin(finite), "right")]
        raise DataError(f"checkpoint tensor {bad['name']!r} in {path} is not finite")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for entry, shape, count in zip(header["entries"], shapes, counts):
        name = entry["name"]
        if name in params:
            raise DataError(f"checkpoint {path} lists tensor {name!r} twice")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        params[name] = arr.reshape(shape).copy()
    if set(params.keys()) != set(expected):
        raise DataError("checkpoint parameter set does not match its config")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise DataError(
                f"checkpoint tensor {name!r} has shape {params[name].shape}, "
                f"config implies {shape}"
            )
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"checkpoint extra in {path} is not a JSON object")
    return Model(cfg=cfg, params=params), None, extra
