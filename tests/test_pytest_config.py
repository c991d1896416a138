import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # On a failure Hypothesis's report hook imports libcst, which warns a DeprecationWarning on import;
    # under the repo's "error::DeprecationWarning" that warning must not end the run in an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(n=st.integers(0, 10))
        def test_fails(n):
            assert n < 5
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
