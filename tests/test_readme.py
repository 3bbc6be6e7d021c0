"""The README's Example section, replayed through `cli.main`.

Every `echo` and `python -m gmmsense.cli` line of the example runs in a
temporary directory, and everything it prints must equal the lines the
README shows under it, except the wall-time column of the `report` table.
When a library change moves a printed number, this fails until the README
example is re-run and pasted again.
"""

import shlex
from pathlib import Path

from gmmsense import cli

README = Path(__file__).resolve().parents[1] / "README.md"
CLI = ["python", "-m", "gmmsense.cli"]


def example_session():
    """(command, printed lines) for each `$ ` line of the Example block."""
    section = README.read_text().split("\n## Example\n", 1)[1]
    block = section.split("```\n", 2)[1]
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return steps


def without_wall_time(lines):
    """Drop the last CSV field of a report table's rows: it is wall time."""
    if not lines or not lines[0].endswith(",wall_time_s"):
        return lines
    return [line.rsplit(",", 1)[0] for line in lines]


def test_readme_example_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, shown in example_session():
        words = shlex.split(command)
        if words[:3] == CLI:
            assert cli.main(words[3:]) == 0, command
            printed = capsys.readouterr().out.splitlines()
            assert without_wall_time(printed) == without_wall_time(shown), command
            ran.append(words[3])
        elif words[0] == "echo":
            text, redirect, path = words[1:]
            assert redirect == ">" and shown == []
            Path(path).write_text(text + "\n")
        else:
            assert command == "export PYTHONPATH=src" and shown == []
    assert ran == ["gen-synthetic", "design", "run-protocol", "run-protocol", "report"]
