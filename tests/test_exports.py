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


_KLGAP = ("from calbound import MiscalibrationMapK, MulticlassSpec, Rng; "
          "from calbound.harness import kl_gap_experiment; "
          "spec = MulticlassSpec(3, (1.0,) * 3, MiscalibrationMapK.identity(), 50, Rng(1)); "
          "kl_gap_experiment(spec, alpha_grid=(0.0, 1.0), replicates=2, n_re=40)")


_BETA = ("from calbound import BinarySpec, ConfidenceLaw, MiscalibrationMap1D, Rng, true_tce; "
         "from calbound.harness import convergence_experiment; "
         "spec = BinarySpec(ConfidenceLaw.beta(2.0, 3.0), MiscalibrationMap1D.sine(0.05, 2.0), 100, Rng(7)); "
         "true_tce(spec); convergence_experiment(spec, (100, 300, 1000, 3200), seeds=20)")


def test_runs_with_scipy_blocked():
    # numpy is the only runtime dependency: with scipy made unimportable, importing the package,
    # a KL-gap sweep and the beta law's oracle and convergence grid all still run.
    # The fresh interpreter finds src/ through the PYTHONPATH conftest.py sets.
    for work in ("import calbound, calbound.harness.cli", _KLGAP, _BETA):
        code = f"import sys; sys.modules['scipy'] = None; {work}"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, (work, run.stderr)


def test_benchmark_tracer_names_resolve():
    # The traced benchmark run wraps these by name; a renamed or deleted one breaks it.
    missing = [(module, name) for module, name, *_ in FUNCTIONS
               if not hasattr(importlib.import_module(module), name)]
    missing += [(module, f"{cls}.{name}") for module, cls, name, *_ in METHODS
                if not hasattr(getattr(importlib.import_module(module), cls), name)]
    assert missing == []
