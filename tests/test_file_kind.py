"""Inputs of the wrong kind end in a documented exit code and name the path.

tests/test_mutation.py corrupts the contents of each input a user hands the
CLI; this test changes the kind of file instead. Each of those inputs is
first deleted, then replaced by a directory, and the same commands run
through cli.main in-process. Every call must return 2 (4 for `eval` when its
prediction labels.pgm is missing), raise nothing, and name the path on
stderr.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from relfine.cli import main
from test_mutation import _commands, inputs  # noqa: F401 - `inputs` is the shared fixture

KINDS = ("missing", "directory")


def _target(root: Path, out: Path, relative: str) -> Path:
    """The file the commands read for `relative`: eval reads labels.pgm as
    the copy under its prediction directory."""
    return out / "pred" / "labels.pgm" if relative == "labels.pgm" else root / relative


def _expected(relative: str, kind: str, target: Path) -> tuple[int, str]:
    """The exit code and the stderr fragment that names the path."""
    if kind == "missing" and relative == "labels.pgm":
        return 4, f"{target} missing"
    if kind == "missing" and relative == "scenes/s/spec.json":
        # A directory without spec.json is no bundle, so it is read as a scene set.
        return 2, f"{target.parent}: neither a scene bundle (spec.json)"
    return 2, f"{target}: cannot read: " + ("No such file or directory" if kind == "missing" else "Is a directory")


@contextmanager
def _replaced(target: Path, kind: str, original: bytes | None) -> Iterator[None]:
    """Delete `target`, or replace it by a directory, then put `original` back."""
    target.unlink()
    if kind == "directory":
        target.mkdir()
    try:
        yield
    finally:
        if original is not None:
            if kind == "directory":
                target.rmdir()
            target.write_bytes(original)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("relative", list(_commands(Path("."), Path("."))))
def test_missing_or_directory_input_ends_in_a_documented_exit_code(inputs, relative, kind, capsys):
    out = inputs / "out"
    target = _target(inputs, out, relative)
    original = None if relative == "labels.pgm" else target.read_bytes()
    expected_code, named = _expected(relative, kind, target)
    failures = []
    for argv in _commands(inputs, out)[relative]:
        shutil.rmtree(out, ignore_errors=True)
        (out / "pred").mkdir(parents=True)
        shutil.copy(inputs / "labels.pgm", out / "pred" / "labels.pgm")
        capsys.readouterr()
        with _replaced(target, kind, original):
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - any traceback is the failure under test
                failures.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
                continue
        err = capsys.readouterr().err
        if code != expected_code or not err.startswith("error: ") or named not in err:
            failures.append(f"{argv[0]} returned {code} (expected {expected_code}): {err!r}")
    assert not failures, "\n".join(failures)
