"""The test session itself: a failing property test is reported as a
failure under the project's pytest settings, not as an internal error."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_property_test_is_a_failure_not_an_internal_error(tmp_path):
    # the project's ini (filterwarnings = error) and conftest, one failing
    # @given test; Hypothesis imports its patch writer on the failure
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output[-2000:]
    assert "1 failed" in run.stdout, output[-2000:]
    assert "INTERNALERROR" not in output
