import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # under this repo's pytest configuration, a failing @given test run ahead
    # of other tests is one failure among their results, not an INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         str(tmp_path / "test_failing.py"), str(TESTS / "test_exports.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert re.search(r"\b1 failed, \d+ passed\b", proc.stdout), proc.stdout[-2000:]
