"""The commands of README's command-line example block, run through
cli.main: each exits with the code its comment states (0 when it states
none), and its JSON output is json.dumps(..., indent=2) of itself, which
pins the one indent-2 writer on every subcommand."""
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from torusdep.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    for line in block.splitlines():
        stated = re.search(r"#\s*exit (\d+)", line)
        yield shlex.split(line, comments=True), int(stated.group(1)) if stated else 0


EXAMPLES = list(_examples())


def test_every_subcommand_has_an_example():
    assert sorted({argv[1] for argv, _code in EXAMPLES}) == sorted(
        ["analyze", "phi", "check", "depends", "primitive", "decompose", "fiber"]
    )


@pytest.mark.parametrize("argv, code", EXAMPLES, ids=[" ".join(argv[1:3]) for argv, _ in EXAMPLES])
def test_readme_example(argv, code):
    assert argv[0] == "torusdep"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[1:]) == code
    assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"
