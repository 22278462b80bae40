"""The demos print the same text as their golden copies in ``tests/golden``."""

from __future__ import annotations

import contextlib
import io
import os
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = (
    "01_monitoring_a_trial",
    "02_boundaries_and_audit",
    "03_learning_the_alternative",
    "04_designing_a_trial",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_golden_text(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(ROOT, "demos", name + ".py"), run_name="__main__")
    with open(os.path.join(ROOT, "tests", "golden", name + ".txt"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()
