"""Package-level guards: every exported name resolves, and the demos run."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qtc

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["qtc"] + [f"qtc.{m.name}" for m in pkgutil.iter_modules(qtc.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
