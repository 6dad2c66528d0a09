import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


# ``-W error`` makes a demo obey the suite's warnings rule, which does not
# reach a subprocess.
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    # A flag or number printed as a NumPy scalar reads ``np.True_``, ``np.float64(...)``.
    assert "np." not in proc.stdout
