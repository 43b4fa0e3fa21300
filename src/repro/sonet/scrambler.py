"""SONET scramblers.

Two distinct scramblers appear in PPP-over-SONET:

* the **frame-synchronous scrambler** (G.707 section 6.5): generator
  ``1 + x^6 + x^7``, seeded to all-ones on the first SPE byte of each
  frame, applied to everything except the first row of section
  overhead.  Guarantees clock-recovery transition density for
  arbitrary *overhead*, but restarts predictably every frame.
* the **self-synchronous x^43 + 1 payload scrambler** (RFC 2615):
  applied to the SPE payload before mapping, precisely because a
  malicious PPP payload can reproduce the frame-sync scrambler's
  pattern and kill the line ("scrambler-killer" packets).  RFC 1619
  (the paper's citation) lacked it; its absence is why RFC 1619 was
  obsoleted — we implement both so the path can be configured either
  way.

The frame-synchronous keystream repeats every 127 bytes, so it is
generated bit by bit once per process and tiled to any length; the
self-synchronous scrambler works on the whole chunk as one Python
integer, so its per-bit recurrence runs as a few C-level shifts and
XORs.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["FrameSyncScrambler", "SelfSyncScrambler"]

#: 1 + x^6 + x^7 is maximal length: its bit stream has period 127, and
#: since gcd(8, 127) = 1 the byte keystream repeats every 127 bytes.
FRAME_SYNC_PERIOD_BYTES = 127


def _lfsr_bytes(nbytes: int) -> np.ndarray:
    """The 1 + x^6 + x^7 keystream, one bit at a time, from all ones."""
    state = 0x7F  # seven ones
    out = np.empty(nbytes, dtype=np.uint8)
    for i in range(nbytes):
        byte = 0
        for _ in range(8):
            bit = (state >> 6) & 1            # output = x^7 tap
            feedback = ((state >> 6) ^ (state >> 5)) & 1  # x^7 + x^6
            state = ((state << 1) | feedback) & 0x7F
            byte = (byte << 1) | bit
        out[i] = byte
    return out


@functools.lru_cache(maxsize=None)
def _frame_sync_period() -> np.ndarray:
    period = _lfsr_bytes(FRAME_SYNC_PERIOD_BYTES)
    period.flags.writeable = False
    return period


class FrameSyncScrambler:
    """The 2^7 - 1 frame-synchronous scrambler (1 + x^6 + x^7).

    :meth:`sequence` produces the keystream bytes for one frame; XOR
    is its own inverse so the same call descrambles.
    """

    def sequence(self, nbytes: int) -> np.ndarray:
        """Keystream of ``nbytes`` bytes, starting from the all-ones seed."""
        return np.resize(_frame_sync_period(), nbytes)

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Scramble/descramble a frame-aligned byte array."""
        data = np.asarray(data, dtype=np.uint8)
        return data ^ self.sequence(data.size)


class SelfSyncScrambler:
    """The x^43 + 1 self-synchronous scrambler.

    Scramble: ``out[i] = in[i] ^ out[i-43]`` (bitwise over the
    MSB-first bit stream).  Descramble: ``out[i] = in[i] ^ in[i-43]``
    — errors propagate exactly 43 bits, and the two directions
    maintain independent 43-bit state carried across calls (the stream
    spans frame boundaries).

    A chunk is handled as one big-endian integer with the 43 state
    bits prepended above it, so bit ``i - 43`` of the stream sits 43
    places above bit ``i``.
    """

    TAPS = 43
    _STATE_MASK = (1 << TAPS) - 1

    def __init__(self) -> None:
        self._tx_state = 0
        self._rx_state = 0

    def reset(self) -> None:
        self._tx_state = 0
        self._rx_state = 0

    def scramble(self, data: bytes) -> bytes:
        """Scramble ``data`` continuing from previous state.

        ``out = in ^ (out >> 43)`` unrolls to the prefix XOR
        ``in ^ (in >> 43) ^ (in >> 86) ^ ...``, built by doubling the
        shift: each step doubles how many terms are folded in, so a
        chunk of ``b`` bits takes about ``log2(b / 43)`` steps.  The
        state bits, having nothing above them, come out unchanged.
        """
        nbits = 8 * len(data)
        if not nbits:
            return b""
        x = (self._tx_state << nbits) | int.from_bytes(data, "big")
        shift = self.TAPS
        while shift < nbits + self.TAPS:
            x ^= x >> shift
            shift <<= 1
        self._tx_state = x & self._STATE_MASK
        return (x & ((1 << nbits) - 1)).to_bytes(len(data), "big")

    def descramble(self, data: bytes) -> bytes:
        """Descramble ``data`` continuing from previous state."""
        nbits = 8 * len(data)
        if not nbits:
            return b""
        x = (self._rx_state << nbits) | int.from_bytes(data, "big")
        self._rx_state = x & self._STATE_MASK
        return ((x ^ (x >> self.TAPS)) & ((1 << nbits) - 1)).to_bytes(len(data), "big")
