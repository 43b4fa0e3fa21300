"""Byte-identity gates: seeded CLI outputs pinned by sha256.

The cycle engine is the golden model, so a change to how it computes
must not change one byte of what it produces: the Figure 5 VCD, the
fault campaign report and the resilience soak's event log.  Each
command runs in a fresh interpreter, as a user would run it; a digest
moves only with a deliberate behaviour change, re-pinned in the same
commit with the reason.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``repro trace``: the Figure 5 escape-generate waveform.
VCD_SHA256 = "50208a0fd923b06913d6d2a9a91c9300a82a4c7f411dc6041425721a1410b1de"
#: ``repro faults --campaign smoke --json``: 208 seeded faults.
FAULTS_SHA256 = "b1d71f2bef2960c7006fbcf30c794153a47b334fbf9a21fca9a6e70d84b4a883"
#: ``repro resilience --soak --smoke --events-out``: the event log.
EVENTS_SHA256 = "c3ae269a7c4a9c4eeac1c33f190b0d6b258c46dfd93699593503e3eda21b1dd8"


def _repro(*args: str, cwd: Path) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, check=True,
    )
    return proc.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_trace_vcd_is_pinned(tmp_path):
    _repro("trace", "--out", "figure5.vcd", cwd=tmp_path)
    assert _sha256((tmp_path / "figure5.vcd").read_bytes()) == VCD_SHA256


def test_faults_smoke_json_is_pinned(tmp_path):
    out = _repro("faults", "--campaign", "smoke", "--json", cwd=tmp_path)
    assert _sha256(out) == FAULTS_SHA256


def test_resilience_soak_event_log_is_pinned(tmp_path):
    _repro(
        "resilience", "--soak", "--smoke", "--events-out", "events.json",
        cwd=tmp_path,
    )
    assert _sha256((tmp_path / "events.json").read_bytes()) == EVENTS_SHA256
