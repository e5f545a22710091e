"""``pipeline.active_rms_scale``: the input scale training records in every model config."""

import tracemalloc

import numpy as np
import pytest

from afpm.pipeline import active_rms_scale


def whole_stack_scale(x):
    """The scale as one mask and copy of the whole stack computes it."""
    active = x[x != 0]
    if active.size == 0:
        return 1.0
    a = active.astype(np.float64)
    rms = float(np.sqrt(np.mean(np.square(a, out=a))))
    return 1.0 / rms if rms > 0 else 1.0


def template_stack(n, channels, length, active_channels, active_len, seed=0):
    """Aligned-looking trials: absent channels and the tail past the trial are zeros."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, channels, length), dtype=np.float32)
    x[:, :active_channels, :active_len] = rng.standard_normal(
        (n, active_channels, active_len), dtype=np.float32) / np.sqrt(active_len)
    return x


# (trials, channels, template length, active channels, active samples): an ERP
# stack, a 48-channel NO_SELECT union and an MI stack.
STACKS = {"erp": (384, 28, 256, 16, 250), "no_select": (32, 48, 1280, 22, 768),
          "mi": (128, 17, 1280, 17, 768)}


@pytest.mark.parametrize("shape", sorted(STACKS))
def test_equals_the_whole_stack_formula_with_a_bounded_peak(shape):
    """Bit-equal to the mask-and-copy formula, with a traced peak of at most the
    float64 vector of active samples plus two trials."""
    x = template_stack(*STACKS[shape])
    want = whole_stack_scale(x)
    tracemalloc.start()
    try:
        got = active_rms_scale(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 8 * np.count_nonzero(x) + 2 * x[0].nbytes


def test_all_zero_stack_has_unit_scale():
    assert active_rms_scale(np.zeros((3, 4, 16), dtype=np.float32)) == 1.0
