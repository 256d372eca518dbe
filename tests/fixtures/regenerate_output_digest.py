"""Rewrite tests/fixtures/output_digest.json, the reference that
tests/test_output_digest.py compares the fixture flow's outputs against.

Run it only after a change that moves outputs on purpose, from the repo root:

    PYTHONPATH=src python3 tests/fixtures/regenerate_output_digest.py

A float field whose new value the test would accept against the stored one
keeps the stored value, so a rerun on unchanged code, on any machine, leaves
the file as it is; only fields that moved beyond the test's bound change.
Each entry it changes is printed as the test would report it: a file or
field that is new, one that is missing (the reference drops it), or one that
changed or moved beyond the test's bound.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_output_digest import REFERENCE, _differences, collect_digest  # noqa: E402


def _accepted(name: str, field: str, new: dict, stored: dict) -> bool:
    """Whether the test passes `new` against `stored` for this one field."""
    def digest(value: dict) -> dict:
        return {"commands": [], "files": {}, "fields": {name: {"discrete": {}, "floats": {field: value}}}}
    return not _differences(digest(new), digest(stored), [])


with tempfile.TemporaryDirectory() as work:
    digest, gap, runs = collect_digest(Path(work))
stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"commands": [], "files": {}, "fields": {}}
for name, entry in digest["fields"].items():
    for field, value in entry["floats"].items():
        old = stored["fields"].get(name, {}).get("floats", {}).get(field)
        if old is not None and _accepted(name, field, value, old):
            entry["floats"][field] = old
for line in _differences(digest, stored, runs):
    print(f"reference changed: {line}")
REFERENCE.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
print(f"wrote {REFERENCE}; smallest top-1/top-2 probability gap among refined pixels: {gap:.3e}")
