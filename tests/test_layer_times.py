"""``tools/layer_times.py`` at toy sizes, and the report it checked in."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("layer_times",
                                                  ROOT / "tools" / "layer_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage_names(tool, preset):
    """Every stage instance of the preset's toy model, in table order."""
    from afpm.model import stages

    return [name for name, _ in stages(tool.model_config(preset, toy=True))]


def test_toy_run_times_every_stage_of_each_side(tool, tmp_path, capsys):
    """Two sides, each in fresh processes: each side's report times every
    stage instance's forward and backward plus the step's other parts, in
    the order a step runs them, and their sum is near the step's."""
    presets = ["mi", "erp", "no_fpe_per_head"]
    assert tool.main(["--toy", "--processes", "1", "--steps", "5", "--presets", ",".join(presets),
                      "--out-dir", str(tmp_path), "--side", "a",
                      "--side", f"b={ROOT / 'src'}"]) == 0
    a, b = (json.loads((tmp_path / f"BENCH_{side}.json").read_text()) for side in "ab")
    assert a["package_sha256"] == b["package_sha256"]
    for report in (a, b):
        assert report["toy"] and report["batch"] == 64 and report["processes"] == 1
        assert set(report["threads"].values()) == {"1"}
        assert list(report["presets"]) == presets
        for preset, got in report["presets"].items():
            names = stage_names(tool, preset)
            assert list(got["parts_ms"]) == (
                ["extract_patches"] + [f"{n}.forward" for n in names] + ["batch_cross_entropy"]
                + [f"{n}.backward" for n in names[::-1]] + ["adamw_step"])
            assert set(got["nested_ms"]) == {"layernorm.forward", "layernorm.backward",
                                             "mlp.forward", "mlp.backward"}
            assert got["config"]["factored_attention"] == (preset == "mi")
            # medians of parts need not sum below the median step, but near it
            assert 0.5 < got["coverage"] < 1.5
            quartiles = got["step_ms"]
            assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"]
    assert "wrote" in capsys.readouterr().out


def test_checked_in_report_explains_each_step(tool):
    """``BENCH_head.json`` covers every preset at full size, and the timed
    parts of each add up to within 10% of its measured step."""
    report = json.loads((ROOT / "BENCH_head.json").read_text())
    assert not report["toy"] and report["batch"] == 64
    assert set(report["threads"].values()) == {"1"}
    assert list(report["presets"]) == list(tool.PRESETS)
    for preset, got in report["presets"].items():
        assert 0.9 <= got["coverage"] <= 1.1, preset
