import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "qasum").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_sources_parse_as_python_3_10(path):
    # The package supports Python 3.10; ast rejects the grammar added since, such as except* and
    # type-parameter lists. Its regular expressions are checked by test_patterns_compile_on_python_3_10.
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=(3, 10))
