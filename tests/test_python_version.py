"""The sources parse as the oldest Python the package supports.

CI runs the suite and the benchmark scripts on Python 3.10 as well as
newer interpreters; this catches grammar newer than 3.10 (``except*``, for
one) under whichever interpreter runs the tests.  ``ast.parse`` with ``feature_version`` is best
effort: it rejects the newer syntax it knows of, not newer library calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted([*(ROOT / "src" / "chcslim").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"cfar.py", "constraints.py", "test_python_version.py",
            "run.py"} <= names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=OLDEST)
