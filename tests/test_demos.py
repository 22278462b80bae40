"""The demos print the same text as their golden copies in ``tests/golden``."""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import subprocess
import sys

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


def test_cli_tour_runs_and_reports_its_exit_codes():
    # the tour runs every command through the console script, or through
    # ``python3 -m safelogrank.cli`` where the script is not installed
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    tour = subprocess.run(
        ["bash", os.path.join(ROOT, "demos", "05_cli_tour.sh")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert tour.returncode == 0, tour.stderr
    assert "Traceback" not in tour.stderr, tour.stderr
    assert "--> exit 10: reject at alpha" in tour.stdout
    assert "--> exit 65 for a missing file" in tour.stdout
    assert "--> exit 64 without --theta1" in tour.stdout
