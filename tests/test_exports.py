"""Guard the public surface: every export resolves, once, in sorted order, and cheaply."""

import subprocess
import sys

import pytest

import calbound
import calbound.harness


@pytest.mark.parametrize("module", [calbound, calbound.harness], ids=lambda m: m.__name__)
def test_all_resolves_unique_and_sorted(module):
    names = module.__all__
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; only a few functions use it.
    # The fresh interpreter finds src/ through the PYTHONPATH conftest.py sets.
    code = "import sys, calbound, calbound.harness.cli; print('scipy.stats' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
