"""Guard the public surface: every export resolves, once, in sorted order."""

import pytest

import calbound
import calbound.harness


@pytest.mark.parametrize("module", [calbound, calbound.harness], ids=lambda m: m.__name__)
def test_all_resolves_unique_and_sorted(module):
    names = module.__all__
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
