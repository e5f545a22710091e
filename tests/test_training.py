import dataclasses
import math
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import afpm.model
import afpm.training
from afpm.errors import ConfigError, DataError, NumericError
from afpm.model import (FlatLayout, FPEConfig, Model, ModelConfig, TransformerConfig,
                        forward, init_model, load_checkpoint, micro_batches,
                        param_shapes, save_checkpoint)
from afpm.training import (
    OptimizerState, TrainConfig, adamw_step, balanced_batches, batch_cross_entropy,
    chronological_split, onecycle_lr, train,
)

from conftest import classes, named_backward, run_backward, same_bits


def tiny_cfg(m=2, t_prime=32):
    fpe = FPEConfig(embed_dim=3, frame_window=8, frame_stride=8, avg_window=2,
                    avg_shift=1, token_dim=6, mlp_hidden=5)
    t = TransformerConfig(depth=1, heads=2, dim_head=2, dim_mlp=4)
    return ModelConfig(task="mi", template_channels=tuple(f"C{i}" for i in range(m)),
                       template_len=t_prime, fpe=fpe, transformer=t, class_names=classes())


def cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Per-sample oracle: stabilized softmax cross-entropy and its logit gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max()
    lse = math.log(np.exp(z).sum())
    grad = np.exp(z - lse)
    grad[label] -= 1.0
    return float(lse - z[label]), grad


def one_row(logits, label):
    """``batch_cross_entropy`` on a batch of one: the loss and its logit gradient."""
    loss, grad = batch_cross_entropy(np.asarray(logits, dtype=np.float64)[None],
                                     np.array([label]))
    return loss, grad[0]


class TestCrossEntropy:
    def test_uniform_two_class(self):
        loss, grad = one_row([0.0, 0.0], 0)
        assert loss == pytest.approx(math.log(2.0))
        assert np.allclose(grad, [-0.5, 0.5])

    def test_extreme_logits_no_overflow(self):
        loss, _ = one_row([1000.0, 0.0], 0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_three_class_hand_value(self):
        loss, _ = one_row([1.0, 2.0, 3.0], 2)
        assert loss == pytest.approx(math.log(1 + math.e ** -1 + math.e ** -2))
        assert loss == pytest.approx(0.40760596444438, abs=1e-10)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([0.3, -0.2, 1.1])
        loss, grad = one_row(logits, 1)
        z = np.exp(logits - logits.max())
        soft = z / z.sum()
        soft[1] -= 1.0
        assert np.allclose(grad, soft)

    def test_label_out_of_range(self):
        # labels reach the loss only through train, which checks them against the head
        model = init_model(tiny_cfg(), seed=0)
        with pytest.raises(DataError, match="label out of range"):
            train(np.zeros((2, 2, 32), dtype=np.float32), np.array([0, 2]), model,
                  TrainConfig(epochs=1, batch_size=2))


class TestBackward:
    def test_zero_input_dead_patch_weights(self):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=0, dtype=np.float64)
        model.params["pos"][:] = 0.0
        model.params["cls"][:] = 0.0
        x = np.zeros((2, 2, 32))
        _, grads = named_backward(x, np.array([0, 1]), model)
        assert np.allclose(grads["patch.w1"], 0.0)

    def test_duplicated_sample_leaves_mean_gradient_unchanged(self, rng):
        cfg = tiny_cfg()
        model = init_model(cfg, seed=1, dtype=np.float64)
        x = rng.standard_normal((2, 2, 32))
        y = np.array([0, 1])
        _, g1 = run_backward(x, y, model)
        x_dup = np.concatenate([x, x], axis=0)
        y_dup = np.concatenate([y, y])
        _, g2 = run_backward(x_dup, y_dup, model)
        assert g1.flat.shape == g2.flat.shape == model.flat.shape
        assert np.allclose(g1.flat, g2.flat, atol=1e-12)

    @pytest.mark.parametrize("micro", [1, 3])
    @pytest.mark.parametrize("per_channel", [False, True])
    def test_rows_of_a_stack_equal_the_gathered_batch(self, micro, per_channel, rng,
                                                      monkeypatch):
        """``backward`` on rows of a stack gives the loss and gradient bits of
        ``backward`` on the gathered batch, in one pass or as micro-batches, with
        standard or per-channel patches, for a float32 and a float64 model of a
        float32 stack; ``train`` passes its batches that way."""
        monkeypatch.setattr(afpm.training, "micro_batches",
                            lambda cfg, n, itemsize: [(n * i // micro, n * (i + 1) // micro)
                                                      for i in range(micro)])
        cfg = dataclasses.replace(tiny_cfg(), per_channel_patches=per_channel)
        x = rng.standard_normal((7, 2, 32)).astype(np.float32)
        y = np.arange(7) % 2
        rows = np.array([5, 0, 5, 3, 6, 1])
        for dtype in (np.float32, np.float64):
            model = init_model(cfg, seed=2, dtype=dtype)
            loss, g = run_backward(x, y, model, rows=rows)
            ref_loss, ref_g = run_backward(x[rows], y[rows], model)
            assert loss == ref_loss and same_bits(g.flat, ref_g.flat), dtype

    def test_batch_loss_matches_single_losses(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 2])
        loss, _ = batch_cross_entropy(logits.copy(), labels)
        singles = [cross_entropy(logits[i], labels[i])[0] for i in range(4)]
        assert loss == pytest.approx(np.mean(singles))


@pytest.mark.parametrize("micro", [1, 3])
@pytest.mark.parametrize("bad", ["head.w", "block0.attn.wk", "patch.b1"])
def test_non_finite_gradient_names_its_tensor(micro, bad, rng, monkeypatch):
    """A non-finite item in one tensor's gradient of one micro-batch makes
    ``backward`` raise NumericError naming that tensor, whether the batch runs
    in one pass or as micro-batches whose gradients are summed."""
    model = init_model(tiny_cfg(), seed=0, dtype=np.float64)
    x, y = rng.standard_normal((6, 2, 32)), np.arange(6) % 2
    monkeypatch.setattr(afpm.training, "micro_batches",
                        lambda cfg, n, itemsize: [(n * i // micro, n * (i + 1) // micro)
                                                  for i in range(micro)])
    real = afpm.training.backward_cached
    calls = []

    def poisoned(dlogits, model, cache, grads):
        real(dlogits, model, cache, grads)
        calls.append(len(dlogits))
        if len(calls) == micro:
            grads[bad].reshape(-1)[-1] = np.inf

    monkeypatch.setattr(afpm.training, "backward_cached", poisoned)
    with pytest.raises(NumericError, match=f"non-finite gradient for tensor '{bad}'"):
        run_backward(x, y, model)
    assert calls == [6 // micro] * micro


def per_tensor_adamw(params, grads, m, v, t, lr, cfg):
    """AdamW as it was, tensor by tensor with per-tensor moments: new params."""
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    out = {}
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m[name] *= 0.9
        m[name] += (1.0 - 0.9) * g
        v[name] *= 0.999
        v[name] += (1.0 - 0.999) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
        if cfg.weight_decay and p.ndim == 2 and name != "pos":
            update = update + cfg.weight_decay * p
        out[name] = p - (lr * update).astype(p.dtype, copy=False)
    return out


def named_adamw_step(p, g, state, lr, cfg):
    """``adamw_step`` on vectors ``p`` and ``g`` in ``state.layout``: the new
    tensors by name."""
    new = np.empty_like(p)
    adamw_step(p, g, state, lr, cfg, new)
    return state.layout.views(new)


class TestAdamW:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_flat_update_equals_per_tensor_formula(self, dtype, weight_decay, rng,
                                                   monkeypatch):
        """Three steps over flat vectors equal the per-tensor formula bit for
        bit, with runs shorter than some tensors and longer than others, from
        read-only parameters that stay as they were, into a NaN-filled vector
        of which every item is written."""
        monkeypatch.setattr(afpm.training, "ADAM_RUN", 64)
        model = init_model(tiny_cfg(), seed=0, dtype=dtype)
        layout = model.layout
        cfg = TrainConfig(weight_decay=weight_decay)
        state = OptimizerState.zeros(layout, dtype)
        p = model.flat
        ref = dict(model.params)
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        for t, lr in enumerate((1e-3, 3e-2, 7e-4), start=1):
            g = rng.standard_normal(layout.size).astype(dtype)
            grads = layout.views(g)
            p.flags.writeable = False
            before = p.copy()
            new = np.full_like(p, np.nan)
            adamw_step(p, g, state, lr, cfg, new)
            assert np.array_equal(p, before), t
            ref = per_tensor_adamw(ref, grads, m, v, t, lr, cfg)
            assert new.dtype == dtype and new.shape == p.shape
            got = layout.views(new)
            assert list(got) == list(ref)
            for k, want in ref.items():
                assert got[k].shape == want.shape and np.array_equal(got[k], want), (t, k)
            p = new


    def _setup(self):
        """A weight ``w`` [1 x 1] and a bias ``b`` [1], both 1.0, and fresh moments."""
        layout = FlatLayout.of({"w": (1, 1), "b": (1,)})
        return np.ones(layout.size), OptimizerState.zeros(layout, np.float64)

    def test_zero_grad_no_decay_keeps_params(self):
        p, state = self._setup()
        cfg = TrainConfig(weight_decay=0.0, seed=0)
        new = named_adamw_step(p, np.zeros_like(p), state, lr=0.1, cfg=cfg)
        assert new["w"][0, 0] == 1.0 and new["b"][0] == 1.0

    def test_decoupled_decay_on_weights_only(self):
        p, state = self._setup()
        cfg = TrainConfig(weight_decay=0.5, seed=0)
        new = named_adamw_step(p, np.zeros_like(p), state, lr=0.1, cfg=cfg)
        assert new["w"][0, 0] == pytest.approx(1.0 * (1 - 0.1 * 0.5))
        assert new["b"][0] == 1.0  # 1-D tensors are exempt

    def test_single_step_hand_value(self):
        state = OptimizerState.zeros(FlatLayout.of({"w": (1, 1)}), np.float64)
        cfg = TrainConfig(weight_decay=0.0, seed=0)
        new = named_adamw_step(np.ones(1), np.ones(1), state, lr=0.1, cfg=cfg)
        # m-hat = v-hat = 1 after bias correction; update = 1/(1 + 1e-8)
        assert new["w"][0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)

    def test_determinism_and_state_round_trip(self, rng, tmp_path):
        cfg = tiny_cfg()
        init = init_model(cfg, seed=0)
        layout, g = init.layout, rng.standard_normal(init.flat.size).astype(np.float32)
        stepped = []
        for _ in range(2):
            new = np.empty(layout.size, np.float32)
            adamw_step(init_model(cfg, seed=0).flat, g, OptimizerState.zeros(layout, np.float32),
                       lr=1e-3, cfg=TrainConfig(seed=0), out=new)
            stepped.append(Model(cfg, new))
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(stepped[0], path)
        loaded, opt, _ = load_checkpoint(path)
        assert opt is None
        for k in init.params:
            assert not np.array_equal(stepped[0].params[k], init.params[k]), k
            assert np.array_equal(stepped[0].params[k], stepped[1].params[k]), k
            assert np.array_equal(loaded.params[k], stepped[0].params[k]), k

    def test_overflowing_update_raises_and_keeps_params(self):
        # finite gradients; at this rate only the decayed matrix's update
        # (1 + 0.5 x 1) overflows float32, and it comes after the bias
        layout = FlatLayout.of({"b": (2,), "w": (2, 2)})
        p = np.ones(layout.size, dtype=np.float32)
        p.flags.writeable = False
        g = np.ones_like(p)
        cfg = TrainConfig(weight_decay=0.5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'w'"):
                adamw_step(p, g, OptimizerState.zeros(layout, np.float32), lr=3e38, cfg=cfg,
                           out=np.empty_like(p))
        assert np.array_equal(p, np.ones_like(p))
        new = np.empty_like(p)
        adamw_step(p, g, OptimizerState.zeros(layout, np.float32), lr=1e-3, cfg=cfg, out=new)
        assert np.all(layout.views(new)["w"] < 1.0)


class TestOneCycle:
    CFG = TrainConfig(lr_init=2.5e-4, lr_max=5e-4, seed=0)

    def test_starts_at_lr_init(self):
        assert onecycle_lr(0, 1000, self.CFG) == pytest.approx(2.5e-4, abs=1e-12)

    def test_peak_at_30_percent(self):
        assert onecycle_lr(300, 1000, self.CFG) == pytest.approx(5e-4, abs=1e-12)

    def test_final_step_is_init_over_100(self):
        lr = onecycle_lr(999, 1000, self.CFG)
        assert lr == pytest.approx(2.5e-6, rel=0.01)

    def test_max_over_steps_is_lr_max(self):
        lrs = [onecycle_lr(s, 500, self.CFG) for s in range(500)]
        assert max(lrs) == pytest.approx(5e-4, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            onecycle_lr(1000, 1000, self.CFG)

    def test_single_step_schedule(self):
        assert onecycle_lr(0, 1, self.CFG) == pytest.approx(2.5e-4)


class TestBalancedBatches:
    def test_imbalanced_set_yields_even_expected_counts(self):
        labels = np.array([1] * 100 + [0] * 500)
        batches = list(balanced_batches(labels, 2, 100, seed=0, n_batches=1000))
        frac = np.mean([np.mean(labels[b] == 1) for b in batches])
        assert 0.48 <= frac <= 0.52

    def test_already_balanced_marginal_unchanged(self):
        labels = np.array([0, 1] * 50)
        batches = list(balanced_batches(labels, 2, 50, seed=1, n_batches=500))
        frac = np.mean([np.mean(labels[b] == 1) for b in batches])
        assert 0.45 <= frac <= 0.55

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="class 1 has no trials"):
            list(balanced_batches(np.zeros(10, dtype=int), 2, 4, 0, 1))

    def test_deterministic_given_seed(self):
        labels = np.array([0, 0, 1, 1, 1])
        a = [b.tolist() for b in balanced_batches(labels, 2, 4, seed=9, n_batches=5)]
        b = [b.tolist() for b in balanced_batches(labels, 2, 4, seed=9, n_batches=5)]
        assert a == b

    def test_chi_square_uniform_classes(self):
        labels = np.array([0] * 30 + [1] * 300 + [2] * 60)
        counts = np.zeros(3)
        n_batches, batch = 1000, 60
        for idx in balanced_batches(labels, 3, batch, seed=3, n_batches=n_batches):
            for c in range(3):
                counts[c] += np.sum(labels[idx] == c)
        expected = n_batches * batch / 3
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square with 2 dof: p > 0.01 means chi2 < 9.21
        assert chi2 < 9.21


def separable_toy(rng, n=120, m=2, t_prime=64):
    """Linearly separable two-class set: constant-offset rows by class."""
    y = np.array([i % 2 for i in range(n)])
    x = 0.1 * rng.standard_normal((n, m, t_prime))
    x[y == 0, 0, :] += 1.0
    x[y == 1, 0, :] -= 1.0
    return x.astype(np.float32), y


class TestTrain:
    def test_loss_drops_on_separable_toy(self, rng):
        x, y = separable_toy(rng)
        cfg = tiny_cfg(m=2, t_prime=64)
        model = init_model(cfg, seed=0)
        tc = TrainConfig(epochs=50, batch_size=32, lr_init=2e-3, lr_max=4e-3,
                         weight_decay=0.0, seed=0)
        result = train(x, y, model, tc)
        assert len(result.history) <= 200
        assert result.history[-1]["loss"] < 0.1
        assert not result.diverged

    def test_zero_lr_zero_decay_keeps_params(self, rng):
        x, y = separable_toy(rng, n=16)
        cfg = tiny_cfg(m=2, t_prime=64)
        model = init_model(cfg, seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        tc = TrainConfig(epochs=2, batch_size=8, lr_init=1e-30, lr_max=1e-30,
                         weight_decay=0.0, seed=0)
        result = train(x, y, model, tc)
        for k, v in result.model.params.items():
            assert np.allclose(v, before[k], atol=1e-12)

    def test_same_seed_bit_identical_history(self, rng):
        x, y = separable_toy(rng, n=32)
        cfg = tiny_cfg(m=2, t_prime=64)
        tc = TrainConfig(epochs=3, batch_size=8, seed=5)
        r1 = train(x, y, init_model(cfg, seed=2), tc)
        r2 = train(x, y, init_model(cfg, seed=2), tc)
        assert [h["loss"] for h in r1.history] == [h["loss"] for h in r2.history]
        for k in r1.model.params:
            assert np.array_equal(r1.model.params[k], r2.model.params[k])

    def test_divergence_guard_restores_last_good(self, rng, monkeypatch):
        x, y = separable_toy(rng, n=32)
        cfg = tiny_cfg(m=2, t_prime=64)
        model = init_model(cfg, seed=0)
        snapshots = []

        def adamw_then_snapshot(*args):
            adamw_step(*args)
            snapshots.append(args[-1].copy())      # the vector it wrote

        monkeypatch.setattr(afpm.training, "adamw_step", adamw_then_snapshot)
        # an absurd learning rate explodes the parameters after one step, so a
        # later step hits non-finite activations and trips the guard
        tc = TrainConfig(epochs=2, batch_size=8, lr_init=1e18, lr_max=1e18,
                         weight_decay=0.0, seed=0)
        result = train(x, y, model, tc)
        assert result.diverged
        assert len(result.history) == len(snapshots) >= 1
        last_good = model.layout.views(snapshots[-1])
        for k, v in result.model.params.items():
            assert np.all(np.isfinite(v))
            assert np.array_equal(v, last_good[k]), k

    def test_train_leaves_the_callers_model_alone(self, rng, tmp_path):
        """Training from a loaded checkpoint (a read-only vector) leaves the
        caller's vector, params mapping and arrays as they were, and returns a
        new model whose parameters are views of its own vector in
        ``param_shapes`` order."""
        x, y = separable_toy(rng, n=16)
        cfg = tiny_cfg(m=2, t_prime=64)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(cfg, seed=0), path)
        model, _, _ = load_checkpoint(path)
        flat, params, arrays = model.flat, model.params, dict(model.params)
        before = flat.copy()
        assert not flat.flags.writeable
        result = train(x, y, model, TrainConfig(epochs=2, batch_size=8, seed=0))
        assert model.flat is flat and np.array_equal(flat, before)
        assert model.params is params and list(params) == list(arrays)
        for k, a in arrays.items():
            assert params[k] is a and a.base is flat, k
        new = result.model
        assert new is not model and new.flat is not flat
        assert list(new.params) == list(param_shapes(cfg))
        assert all(a.base is new.flat for a in new.params.values())
        assert not np.array_equal(new.flat, before)

    def test_no_step_gathers_or_rebuilds_parameter_views(self, rng, monkeypatch):
        """``train`` builds layouts and views a number of times that does not
        depend on the step count: one of each for its two parameter models and
        for each gradient model, the second of which only a batch of several
        micro-batches gets. No step builds either."""
        x, y = separable_toy(rng, n=16)
        cfg = tiny_cfg(m=2, t_prime=64)
        calls = Counter()

        def counted(method):
            def wrapper(self, *args, **kwargs):
                caller = sys._getframe(1)
                while caller.f_code.co_name.startswith("<"):    # a comprehension
                    caller = caller.f_back
                calls[method.__name__, caller.f_code.co_name] += 1
                return method(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(FlatLayout, "views", counted(FlatLayout.views))
        monkeypatch.setattr(FlatLayout, "of", classmethod(counted(FlatLayout.of.__func__)))
        for split in (False, True):
            if split:       # micro-batches of one sample
                monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", 0)
            assert len(micro_batches(cfg, 8, 4)) == (8 if split else 1)
            per_run = []
            for epochs in (2, 4):
                model = init_model(cfg, seed=0)
                calls.clear()
                result = train(x, y, model, TrainConfig(epochs=epochs, batch_size=8, seed=0))
                assert len(result.history) == 2 * epochs and not result.diverged
                per_run.append(dict(calls))
            models = 4 if split else 3
            assert per_run == [{("of", "__post_init__"): models,
                                ("views", "__post_init__"): models}] * 2, split

    def test_steps_allocate_no_parameter_sized_memory(self, rng, monkeypatch):
        """Every vector a step writes is built before the first step. With
        per-channel patches and batches of eight micro-batches, the blocks of
        at least the parameter vector's size that ``training.py`` allocated and
        still holds at the end of each ``backward`` and each ``adamw_step``
        (at their finite checks, while all they allocated is alive) are the
        blocks it held before the first step."""
        x, y = separable_toy(rng, n=16)
        cfg = dataclasses.replace(tiny_cfg(m=2, t_prime=64), per_channel_patches=True)
        monkeypatch.setattr(afpm.model, "MICRO_BATCH_BYTES", 0)
        assert len(micro_batches(cfg, 8, 4)) == 8
        model = init_model(cfg, seed=0)
        only = [tracemalloc.Filter(True, afpm.training.__file__)]
        held = []

        def record():
            traces = tracemalloc.take_snapshot().filter_traces(only).traces
            held.append(sorted((t.traceback[0].lineno, t.size) for t in traces
                               if t.size >= model.flat.nbytes))

        def batches(*args, real=afpm.training.balanced_batches):
            record()
            return real(*args)

        def first_nonfinite(self, flat, real=FlatLayout.first_nonfinite):
            record()
            return real(self, flat)

        monkeypatch.setattr(afpm.training, "balanced_batches", batches)
        monkeypatch.setattr(FlatLayout, "first_nonfinite", first_nonfinite)
        tracemalloc.start()
        try:
            result = train(x, y, model, TrainConfig(epochs=2, batch_size=8, seed=0))
        finally:
            tracemalloc.stop()
        assert len(result.history) == 4 and not result.diverged
        before, *steps = held
        assert len(steps) == 2 * 4
        for k, step in enumerate(steps):
            assert step == before, (k // 2 + 1, step)
        # two parameter vectors, two gradient vectors, m, v and the two AdamW
        # run rows (the decay mask is allocated in numpy's ``np.repeat`` frame)
        assert len(before) == 7, before

    def test_epoch_zero_returns_input(self, rng):
        x, y = separable_toy(rng, n=8)
        model = init_model(tiny_cfg(m=2, t_prime=64), seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        result = train(x, y, model, TrainConfig(epochs=0, seed=0))
        for k in before:
            assert np.array_equal(result.model.params[k], before[k])

    def test_empty_training_set_rejected(self):
        model = init_model(tiny_cfg(), seed=0)
        with pytest.raises(DataError, match="empty"):
            train(np.zeros((0, 2, 32), dtype=np.float32), np.zeros(0, dtype=int),
                  model, TrainConfig(seed=0))

    def test_head_only_convex_probe_decreases_monotonically(self, rng):
        # with frozen features (the final-normed class token) the loss is
        # convex in the head weights, so small-step gradient descent on the
        # head alone cannot go up
        cfg = tiny_cfg(m=2, t_prime=64)
        model = init_model(cfg, seed=0, dtype=np.float64)
        x, y = separable_toy(rng, n=32)
        x = x.astype(np.float64)
        losses = []
        for _ in range(25):
            loss, grads = named_backward(x, y, model)
            losses.append(loss)
            model.params["head.w"][...] -= 0.5 * grads["head.w"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestFinetune:
    def test_30_70_split(self):
        tune, evl = chronological_split(100, 0.3)
        assert tune.size == 30 and evl.size == 70
        assert tune[-1] == 29 and evl[0] == 30

    def test_single_trial_rejected(self):
        with pytest.raises(DataError):
            chronological_split(1, 0.3)

    def test_zero_epochs_returns_input_checkpoint(self, rng):
        x, y = separable_toy(rng, n=20)
        model = init_model(tiny_cfg(m=2, t_prime=64), seed=0)
        tune_idx, eval_idx = chronological_split(x.shape[0], 0.3)
        assert tune_idx.size == 6 and eval_idx.size == 14
        result = train(x[tune_idx], y[tune_idx], model, TrainConfig(epochs=0, seed=0))
        for k in model.params:
            assert np.array_equal(result.model.params[k], model.params[k])

    def test_finetune_improves_on_subject_shift(self, rng):
        # pretrain on one offset sign convention, fine-tune flips one row scale
        x, y = separable_toy(rng, n=80)
        model = init_model(tiny_cfg(m=2, t_prime=64), seed=0)
        tc = TrainConfig(epochs=30, batch_size=16, lr_init=1e-3, lr_max=2e-3, seed=0)
        pre = train(x, y, model, tc)
        # subject with weaker signal
        xs, ys = separable_toy(rng, n=40)
        xs *= 0.4
        ft_cfg = TrainConfig(epochs=10, batch_size=8, lr_init=5e-4, lr_max=1e-3, seed=0)
        tune_idx, eval_idx = chronological_split(xs.shape[0], 0.3)
        result = train(xs[tune_idx], ys[tune_idx], pre.model, ft_cfg)
        logits = forward(xs[eval_idx], result.model)
        acc = np.mean(np.argmax(logits, axis=1) == ys[eval_idx])
        assert acc > 0.9
