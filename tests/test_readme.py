"""The README's Example and Diagnostics sections, replayed.

Every `echo` and `python -m gmmsense.cli` line of the example runs in a
temporary directory through `cli.main`, and everything it prints must equal
the lines the README shows under it, except the wall-time column of the
`report` table. The Diagnostics script `diag.py` runs in a fresh Python
process on the example's model, and the DEBUG records it writes must equal
the lines the README shows. When a library change moves a printed number,
this fails until the README is re-run and pasted again.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from gmmsense import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CLI = ["python", "-m", "gmmsense.cli"]


def session(heading):
    """(command, printed lines) for each `$ ` line of a section's first block."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
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
    for command, shown in session("Example"):
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


def test_readme_diagnostics_log_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (generate, _), *_ = [step for step in session("Example") if "gen-synthetic" in step[0]]
    assert cli.main(shlex.split(generate)[3:]) == 0
    capsys.readouterr()
    (cat, script), (run, shown) = session("Diagnostics")
    assert (cat, run) == ("cat diag.py", "python diag.py")
    Path("diag.py").write_text("\n".join(script) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "diag.py"], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == ""
    assert done.stderr.splitlines() == shown
