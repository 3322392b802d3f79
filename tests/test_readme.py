"""The README's "Library quick start" block runs, and prints what its
``# ...`` comments say; every command of its "CLI" block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from pretzelsurgery import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_cli_block_commands_exit_0():
    text = README.read_text()
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("pretzelsurgery ")
    ]
    assert len(commands) == 7
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0, argv
