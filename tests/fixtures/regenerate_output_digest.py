"""Rewrite tests/fixtures/output_digest.json, the reference that
tests/test_output_digest.py compares the fixture flow's outputs against.

Run it only after a change that moves outputs on purpose, from the repo root:

    PYTHONPATH=src python3 tests/fixtures/regenerate_output_digest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_output_digest import REFERENCE, collect_digest  # noqa: E402

with tempfile.TemporaryDirectory() as work:
    digest, gap, _ = collect_digest(Path(work))
REFERENCE.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
print(f"wrote {REFERENCE}; smallest top-1/top-2 probability gap among refined pixels: {gap:.3e}")
