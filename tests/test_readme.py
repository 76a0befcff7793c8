"""Every fenced python block of README.md runs, from the repository root.

A `print(...)  # text` line in a block also states what it prints.
"""

import re

import pytest

from conftest import REPO

BLOCKS = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_python_block_runs(block, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    for expected in re.findall(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE):
        assert expected in out
