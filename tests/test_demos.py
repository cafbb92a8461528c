"""The library's callers outside src/: every narrative demo runs to completion
against the current library, and every function the benchmark's tracer wraps
by name still exists."""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_targets_resolve():
    # bench/tracer.py imports only the standard library; run_path reads it without
    # importing the bench package or writing bytecode next to it
    targets = runpy.run_path(str(ROOT / "bench" / "tracer.py"), run_name="tracer")["TARGETS"]
    assert targets
    missing = [f"{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(f"parabolic_lab.{module}"), name, None))]
    assert not missing, missing
