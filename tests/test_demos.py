import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted(p.name for p in (REPO_ROOT / "demos").glob("*.py"))


def run_demo(name, hash_seed):
    path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_localization_demo_output_does_not_depend_on_hash_seed():
    # str hashes are salted per process; nothing the demo prints may depend on them
    first = run_demo("03_drifter_localization.py", 1)
    assert "whole-trajectory error" in first
    assert run_demo("03_drifter_localization.py", 2) == first


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    assert run_demo(name, 0)
