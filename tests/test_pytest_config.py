"""The repository's pytest configuration, run on a test file of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 10
'''


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    """Hypothesis's failure report imports modules that raise a
    DeprecationWarning; the configuration turns other deprecations into
    errors, but that one must not turn the report into an INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "Falsifying example: test_small(" in out
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
