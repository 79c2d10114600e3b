"""The package surface: the README's library example and the public names."""

import contextlib
import io
import re
from pathlib import Path

import nonassoc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().split() == ["q3", "True", "2"]


def test_every_public_name_resolves():
    missing = [name for name in nonassoc.__all__ if not hasattr(nonassoc, name)]
    assert missing == []
