"""Every ``wittzeta`` example in README's Command line section, run in-process against what the README shows.

A command may continue over several lines (an open quote, or a trailing
backslash).  The ``# {...}`` document shown under one command, or under a
run of commands with no blank line between them, must be its stdout byte
for byte; a ``# {...}`` document may itself wrap over several ``#`` lines.
A command marked ``# exit K`` must exit K with an empty stdout and one JSON
error line on stderr whose ``code`` is the one shown under ``# stderr:``.
A command with nothing shown must exit 0 with one line on stdout.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from wittzeta.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_examples(text):
    """(argv, exit code, shown stdout document or None, shown error code or None) for each example."""
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples, group = [], []
    for block in re.findall(r"^```sh\n(.*?)^```", section, flags=re.M | re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i]
            if line.startswith("wittzeta "):
                command = line
                while True:
                    if command.endswith("\\"):
                        i += 1
                        command = command[:-1] + lines[i]
                        continue
                    try:
                        argv = shlex.split(command, comments=True)
                        break
                    except ValueError:  # a quote still open: the command goes on
                        i += 1
                        command += "\n" + lines[i]
                marked = re.search(r"#\s*exit (\d+)\s*$", lines[i])
                example = {"argv": argv[1:], "code": int(marked.group(1)) if marked else 0,
                           "stdout": None, "error": None, "shown": command}
                examples.append(example)
                group.append(example)
            elif line.startswith("# {") or line.startswith("# stderr:"):
                shown = []
                while i < len(lines) and lines[i].startswith("#"):
                    shown.append(lines[i][1:].strip())
                    i += 1
                i -= 1
                for example in group:
                    if shown[0].startswith("stderr:"):
                        example["error"] = re.search(r'"code": "([a-z-]+)"', " ".join(shown)).group(1)
                    else:
                        joined = "".join(shown)
                        example["stdout"] = joined[:json.JSONDecoder().raw_decode(joined)[1]]
                group = []
            else:
                group = []
            i += 1
        group = []
    return examples


EXAMPLES = command_line_examples(README.read_text(encoding="utf-8"))


def test_the_command_line_section_shows_its_examples():
    assert len(EXAMPLES) >= 13
    assert sum(e["stdout"] is not None for e in EXAMPLES) >= 10
    assert sum(e["error"] is not None for e in EXAMPLES) >= 2
    assert all((e["code"] == 0) == (e["error"] is None) for e in EXAMPLES)


@pytest.mark.parametrize("example", EXAMPLES, ids=[e["shown"].replace("\n", " ") for e in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, monkeypatch, example):
    monkeypatch.delenv("WITTZETA_ENUM_BUDGET", raising=False)
    code = main(example["argv"])
    out, err = capsys.readouterr()
    assert code == example["code"], err
    if example["code"] == 0:
        assert err == "" and len(out.splitlines()) == 1
        json.loads(out)
        if example["stdout"] is not None:
            assert out == example["stdout"] + "\n"
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"]["code"] == example["error"]
