"""The public API and the README's library example stay in step."""

import re
from pathlib import Path

import deltadebug

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(deltadebug.__all__) == len(set(deltadebug.__all__))
    for name in deltadebug.__all__:
        assert getattr(deltadebug, name) is not None, name


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "no python block under 'Library use'"
    for block in blocks:
        exec(compile(block, f"{README}:Library use", "exec"), {})
