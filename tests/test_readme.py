"""The README's examples run as written, and it names the flags the CLI has."""

import argparse
import re
import shlex
from pathlib import Path

from texscreen.cli import EXIT_OK, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return [body for lang, body in _BLOCK.findall(text) if lang == language]


def _shell_commands():
    """Each command line of the `sh` blocks, continuation lines joined."""
    text = "".join(_blocks("sh")).replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines()]


def test_shell_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in _shell_commands():
        if not argv or argv[0] in ("pip", "pytest"):
            continue
        assert argv[0] == "texscreen", f"unexpected README command {argv!r}"
        assert main(argv[1:]) == EXIT_OK, argv
        ran.append(argv[1])
    assert ran == ["synth", "loocv", "loocv", "sweep", "extract"]
    assert capsys.readouterr().err == ""


def test_python_examples_run(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[:2] == ["40 / 40", "(40, 256)"]


def test_flags_match_the_parser():
    # every flag the README names exists, and every flag the CLI has is named
    text = README.read_text(encoding="utf-8")
    # less the flags of pip and pytest
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    named -= {"--no-build-isolation", "--hypothesis-seed"}
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for command in commands.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert named - {"--help"} == flags - {"--help"}
