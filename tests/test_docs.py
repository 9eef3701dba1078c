"""The README quick start, its CLI options and the demos match the current API."""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seqideal
from seqideal.cli import make_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_start_prints_what_its_comments_state():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "x^5+xz^4-z^5"
    assert lines[1] == "x^5+x-1"
    assert lines[3] == "x^5+x^4z+x^2z^3+xz^4+z^5"
    assert lines[4] == "[1, 1, 2, 2, 3, 3, 4, 4]"


def test_readme_lists_exactly_the_cli_options():
    parser = make_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for command in sub.choices.values()
        for action in command._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    src = str(Path(seqideal.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == ""
