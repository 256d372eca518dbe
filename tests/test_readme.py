"""The README's examples run as written.

The library sketch is executed as is. The command-line walkthrough is split
into its `relfine ...` commands and run through `relfine.cli.main`
in-process from the repository root, with every `out/` path moved under the
test's temporary directory, so the checkout is left untouched.
"""

from __future__ import annotations

import shlex
from pathlib import Path

from relfine.cli import main

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def _block(heading: str, language: str) -> str:
    """The first fenced `language` block after the line `heading`."""
    text = README.read_text(encoding="utf-8")
    fence = f"```{language}\n"
    start = text.index(fence, text.index(f"\n{heading}\n")) + len(fence)
    return text[start : text.index("```", start)]


def _commands(script: str) -> list[list[str]]:
    """The arguments of each `relfine` command in a shell block, with
    continuation lines joined and comments dropped."""
    commands = []
    for line in script.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "relfine", line
            commands.append(words[1:])
    return commands


def test_readme_library_sketch_runs(capsys):
    exec(compile(_block("## Library sketch", "python"), str(README), "exec"), {})
    miou, satisfaction = (float(word) for word in capsys.readouterr().out.split())
    assert 0.0 < miou <= 1.0 and 0.0 <= satisfaction <= 1.0


def test_readme_command_line_walkthrough_runs(tmp_path, monkeypatch, capsys):
    commands = _commands(_block("## Command line", "bash"))
    assert [argv[0] for argv in commands] == [
        "gen-scenes", "calibrate", "calibrate", "refine", "refine", "eval", "gradcheck",
    ]
    monkeypatch.chdir(ROOT)
    for argv in commands:
        argv = [str(tmp_path / word) if word.startswith("out/") else word for word in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    written = {path.relative_to(tmp_path / "out").as_posix() for path in (tmp_path / "out").iterdir()}
    assert written == {"scenes", "calibrated.json", "audit.json", "calibrated_geo.json", "baseline", "refined",
                       "report.json", "buckets.csv"}
