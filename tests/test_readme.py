"""The Python examples in README.md run as written.

Each ```python block is executed in a fresh namespace, so an example that
drifts from the API fails the suite.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("i", range(len(BLOCKS)))
def test_readme_example_runs(i):
    exec(compile(BLOCKS[i], f"README.md python block {i}", "exec"), {})
