"""The benchmark's self-test, run as part of the suite.

`perfbench/spans.py` wraps the program's functions and methods by name, so a
refactor that moves or renames one of them fails here, not only when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
