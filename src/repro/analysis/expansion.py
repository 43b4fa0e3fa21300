"""Stuffing-expansion statistics — sizing the resynchronisation buffer.

Every escapable octet costs one extra octet on the wire, so a payload
with escape-octet density ``p`` expands by factor ``1 + p`` in
expectation, with worst case 2.0 (all-flag payload).  The empirical
measurement cross-checks the generators and drives ablation A2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdlc.encoder import stuff

__all__ = [
    "expected_expansion",
    "worst_case_expansion",
    "measure_expansion",
    "ExpansionSample",
]

#: Escape-octet density of uniformly random bytes: 2 of 256 values.
UNIFORM_RANDOM_DENSITY = 2 / 256


def expected_expansion(density: float) -> float:
    """Analytic expansion factor for escape density ``density``."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    return 1.0 + density


def worst_case_expansion() -> float:
    """The adversarial bound: every octet escaped."""
    return 2.0


@dataclass(frozen=True)
class ExpansionSample:
    """Measured expansion of one payload."""

    payload_bytes: int
    stuffed_bytes: int

    @property
    def factor(self) -> float:
        return self.stuffed_bytes / self.payload_bytes if self.payload_bytes else 1.0


def measure_expansion(payload: bytes) -> ExpansionSample:
    """Stuff ``payload`` and report the observed expansion."""
    return ExpansionSample(len(payload), len(stuff(payload)))
