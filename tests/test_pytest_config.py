"""The repository's pytest settings, exercised on a throwaway test file."""

import subprocess
import sys

from conftest import REPO_ROOT

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # With warnings as errors, hypothesis's report hook for a failing
    # @given test must not stop the session before the next test runs.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO_ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out
