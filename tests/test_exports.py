"""Every exported name resolves, so a deleted name cannot linger in an
export list."""

from __future__ import annotations

import importlib

import pytest

MODULES = (
    "safelogrank",
    "safelogrank.core",
    "safelogrank.gaussian",
    "safelogrank.adaptive",
    "safelogrank.simulate",
    "safelogrank.data",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
