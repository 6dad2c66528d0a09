"""The suite's own pytest settings let a failing test end as a failure."""

import subprocess
import sys
from pathlib import Path

SETTINGS = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # Reporting a falsifying example imports code that warns on import; under
    # the settings' warnings-as-errors that once ended the session with an
    # INTERNALERROR, so the tests after it never ran.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(SETTINGS),
         "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
