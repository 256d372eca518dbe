"""The bytes of `calibrate --oracle` on the recorded lighthouse log, pinned.

`tests/test_output_digest.py` runs only `calibrate --geometric`. This test
runs the scripted-oracle path on `tests/fixtures/lighthouse_log` and pins by
sha256 the calibrated triplet file, the audit file and the command's stdout.
The log exercises every stage: reverses to add, answers that fail
validation, and contradictions settled by choosing a side and by discarding
both. Its outputs are discrete, so they are the same on every machine.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

from relfine.cli import main

LOG = Path(__file__).parent / "fixtures" / "lighthouse_log"

CALIBRATED_SHA256 = "bf142571bd2da503f3e76cb01ff4d6362e32f1bc853158fbf0bdc2528f183f90"
AUDIT_SHA256 = "11f660f4a21b41569fb726c2f432ac7b58d960a39e93ee6293ad05775c41b071"
STDOUT_SHA256 = "94d5e23e86113123b6d43e47faa49e2b35b36ef9cf5f6f1270b4fbb9198487c9"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_scripted_calibration_outputs_match_the_reference(tmp_path):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([
            "calibrate", "--triplets", str(LOG / "triplets.json"), "--oracle", str(LOG / "oracle.json"),
            "--out-triplets", str(tmp_path / "calibrated.json"), "--out-audit", str(tmp_path / "audit.json"),
        ])
    assert code == 0
    assert _sha((tmp_path / "calibrated.json").read_bytes()) == CALIBRATED_SHA256
    assert _sha((tmp_path / "audit.json").read_bytes()) == AUDIT_SHA256
    assert _sha(out.getvalue().encode()) == STDOUT_SHA256
