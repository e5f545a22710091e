"""The benchmark's own smoke check, run against this source tree.

``perfbench/smoke.py`` runs every workload at toy sizes, traced and
untraced, and checks each run's outputs and metrics. It relies on parts of
the package's interface: ``load_checkpoint``'s 3-tuple, ``run_variant``'s
``raw_input_digest`` and ``stage_hashes``, and the checkpoint header's
``entries``. A change under ``src/`` that breaks one of them fails here.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Traced names the library no longer has; the benchmark reports each as absent.
STALE_TARGETS = {("training", "shuffled_batches")}


def test_every_traced_target_resolves_in_afpm():
    """Every function the benchmark's tracer wraps exists in its afpm module.
    A target wrapped only where it is imported (``forward_cached``, timed on
    the training path) must be held by some other afpm module under its name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"afpm.{name}")
               for name, _, _ in tracing.TARGETS}
    for mod_name, attr, home in tracing.TARGETS:
        if (mod_name, attr) in STALE_TARGETS:
            assert not hasattr(modules[mod_name], attr), f"{mod_name}.{attr} is back"
            continue
        owner = modules[mod_name]
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{mod_name}.{attr}"
        if not home:
            holders = [name for name, mod in modules.items()
                       if name != mod_name and vars(mod).get(attr) is owner]
            assert holders, f"no afpm module but {mod_name} holds {attr}"
