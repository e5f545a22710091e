import builtins
import os

# One BLAS thread, set before numpy loads: the acceptance suites train in this
# process, and their figures must not depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from afpm.data_model import DatasetWriter, load_trial  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_toy_dataset(path, task="mi", n_trials=3, channels=("C3", "CZ", "C4"),
                      n_samples=32, rate_hz=256.0, labels=None,
                      domain_ids=None, data=None, class_names=("class_a", "class_b"),
                      unit_scale=1.0):
    """Small on-disk dataset for IO and pipeline tests."""
    rng = np.random.default_rng(0)
    writer = DatasetWriter(out_dir=str(path), name="toy", task=task,
                           rate_hz=rate_hz, class_names=class_names,
                           unit_scale=unit_scale)
    for i in range(n_trials):
        x = data[i] if data is not None else rng.standard_normal((len(channels), n_samples))
        writer.add_trial(
            x, channels,
            labels[i] if labels is not None else i % 2,
            domain_ids[i] if domain_ids is not None else f"toy:s00:{i % 2}",
        )
    return writer.finish()


def classes(n: int = 2) -> tuple[str, ...]:
    """``n`` distinct class names for a model config."""
    return tuple(f"class_{i}" for i in range(n))


def same_bits(actual, expected) -> bool:
    """Whether two arrays have the same dtype, shape and bit pattern in every item.

    Compares their unsigned-integer views, so +0.0 and -0.0 differ and NaNs
    match only with the same payload, unlike ``np.array_equal``.
    """
    a, b = np.asarray(actual), np.asarray(expected)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    as_uint = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(as_uint), b.view(as_uint)))


def named_backward(x, labels, model):
    """``training.backward``'s loss, and its gradient vector viewed tensor by
    tensor in ``model.params`` order."""
    from afpm.model import FlatLayout, param_shapes
    from afpm.training import backward
    loss, flat = backward(x, labels, model)
    return loss, FlatLayout.of(param_shapes(model.cfg)).views(flat)


def trials_of(manifest):
    """(record, float32 matrix) of every trial of ``manifest``, in manifest order."""
    for i, rec in enumerate(manifest.trials):
        yield rec, load_trial(manifest, i)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


class FailingWriter:
    """File stand-in whose ``fail_at``-th write raises, as a crash mid-write would."""

    def __init__(self, fh, fail_at=2):
        self.fh, self.writes, self.fail_at = fh, 0, fail_at

    def write(self, data):
        self.writes += 1
        if self.writes >= self.fail_at:
            raise OSError("simulated crash mid-write")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_writes_in(monkeypatch, *modules, fail_at=2):
    """Make every file a module opens for writing fail on its ``fail_at``-th write."""
    real_open = builtins.open

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FailingWriter(fh, fail_at) if "w" in mode else fh
    for module in modules:
        monkeypatch.setattr(module, "open", failing_open, raising=False)
