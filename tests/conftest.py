"""Tier-1 runs warning-free: every test in this directory fails on a warning it does not
expect with ``pytest.warns``. The benchmark's self-tests keep pyproject's filters."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
