"""The README's examples run as written: its shell commands through the CLI,
its Python blocks as code, with the values its comments print."""

import json
import os
import re
import shlex
import textwrap

import pytest

from fiberphase.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def blocks(language: str) -> list[str]:
    """The README's fenced blocks of `language`, each dedented."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    found = re.findall(rf"^( *)```{language}\n(.*?)^\1```$", text, re.M | re.S)
    return [textwrap.dedent(body) for _, body in found]


def commands() -> list[list[str]]:
    """The argv of every ``fiberphase`` line of the shell blocks, with its
    continuation lines joined."""
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fiberphase ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FIBERPHASE_OUT_DIR", raising=False)
    argvs = commands()
    assert len(argvs) == 7
    for argv in argvs:
        assert main(argv) == 0, argv
    with open("budget.json", encoding="utf-8") as fh:
        budget = json.load(fh)["results"]["budget"]
    assert budget["dphi_limit_rad"] == pytest.approx(0.1018, abs=5e-4)

    replay, library = blocks("python")
    assert "tau.json" in replay
    exec(replay, {})
    namespace = {}
    exec(library, namespace)
    # Each line that prints a value in its comment, to the digits shown.
    printed = re.findall(r"^(\S.*?)\s+# ([0-9]+\.([0-9]+))\b", library, re.M)
    assert [value for _, value, _ in printed] == ["0.447", "0.905"]
    for expression, value, digits in printed:
        assert f"{eval(expression, namespace):.{len(digits)}f}" == value, expression
