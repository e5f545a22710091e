"""The benchmark's own smoke check, run against this source tree.

``perfbench/smoke.py`` runs every workload at toy sizes, traced and
untraced, and checks each run's outputs and metrics. It relies on parts of
the package's interface: ``load_checkpoint``'s 3-tuple, ``run_variant``'s
``raw_input_digest`` and ``stage_hashes``, and the checkpoint header's
``entries``. A change under ``src/`` that breaks one of them fails here.
"""

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
