"""Guard the public surface: every export resolves, once, in sorted order, and cheaply.

The names the benchmark tracer wraps must resolve too.
"""

import importlib
import subprocess
import sys

import pytest

import calbound
import calbound.harness
from perfbench.tracing import FUNCTIONS, METHODS


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


def test_benchmark_tracer_names_resolve():
    # The traced benchmark run wraps these by name; a renamed or deleted one breaks it.
    missing = [(module, name) for module, name, *_ in FUNCTIONS
               if not hasattr(importlib.import_module(module), name)]
    missing += [(module, f"{cls}.{name}") for module, cls, name, *_ in METHODS
                if not hasattr(getattr(importlib.import_module(module), cls), name)]
    assert missing == []
