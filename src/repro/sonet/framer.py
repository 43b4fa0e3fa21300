"""STS-N/STS-Nc frame construction and parsing.

A frame is a 9 x 90N byte grid transmitted row-major.  This framer
implements the overhead subset that matters to a PPP-over-SONET line
card:

* section overhead: A1/A2 framing, J0 trace, B1 (section BIP-8);
* line overhead: H1/H2 payload pointer (+ concatenation indications),
  H3, B2 (line BIP-8xN), K1/K2;
* path overhead: J1 trace, B3 (path BIP-8), C2 signal label, G1.

B1 covers the *previous* frame after scrambling; B2 covers the
previous frame's line portion before scrambling; B3 covers the
previous SPE — all per GR-253, so parity errors localise exactly like
real equipment sees them.  The frame-synchronous scrambler covers
everything except row 0 of the section overhead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import PointerError, SonetError
from repro.sonet.constants import (
    A1,
    A2,
    J0_DEFAULT,
    NDF_NORMAL,
    POINTER_MAX,
    ROWS,
    SONET_C2_PPP_SCRAMBLED,
)
from repro.sonet.rates import StsRate, fixed_stuff_columns
from repro.sonet.scrambler import FrameSyncScrambler

__all__ = ["SonetFrame", "SonetFramer"]


def _bip8(data: np.ndarray) -> int:
    """BIP-8: even parity per bit position over all bytes."""
    return int(np.bitwise_xor.reduce(data, axis=None)) if data.size else 0


@functools.lru_cache(maxsize=None)
def payload_columns(n: int, poh_col: int) -> Union[slice, np.ndarray]:
    """Grid columns carrying payload when the POH sits in ``poh_col``.

    The SPE columns minus the POH column and the fixed-stuff columns
    after it (wrapping within the SPE).  A slice when they are
    contiguous, as they are at pointer 0; a read-only index array
    otherwise.  Cached: the geometry depends on nothing else.
    """
    rate = StsRate(n)
    toh, width = rate.toh_columns, rate.spe_columns
    reserved = {
        toh + (poh_col - toh + k) % width for k in range(fixed_stuff_columns(n) + 1)
    }
    cols = [c for c in range(toh, rate.columns) if c not in reserved]
    if cols[-1] - cols[0] + 1 == len(cols):
        return slice(cols[0], cols[-1] + 1)
    index = np.array(cols)
    index.flags.writeable = False
    return index


def keystream_grid(rate: StsRate) -> np.ndarray:
    """The frame-sync keystream laid over one frame's grid.

    Zero under row 0's transport overhead (A1/A2/J0 are sent in the
    clear), so scrambling a whole frame is a single XOR.
    """
    grid = np.zeros(ROWS * rate.columns, dtype=np.uint8)
    grid[rate.toh_columns :] = FrameSyncScrambler().sequence(grid.size - rate.toh_columns)
    return grid.reshape(ROWS, rate.columns)


@dataclass
class SonetFrame:
    """One transmitted/received frame as a 9 x 90N grid plus metadata."""

    grid: np.ndarray                # uint8, shape (9, 90N)
    n: int                          # STS level

    @property
    def rate(self) -> StsRate:
        return StsRate(self.n)

    def to_wire(self) -> bytes:
        """Row-major serialisation (transmission order)."""
        return self.grid.astype(np.uint8).tobytes()

    @classmethod
    def from_wire(cls, data: bytes, n: int) -> "SonetFrame":
        rate = StsRate(n)
        expected = ROWS * rate.columns
        if len(data) != expected:
            raise SonetError(f"frame must be {expected} bytes for {rate.name}")
        grid = np.frombuffer(data, dtype=np.uint8).reshape(ROWS, rate.columns).copy()
        return cls(grid, n)


class SonetFramer:
    """Build (and book-keep parity across) successive STS-Nc frames.

    Parameters
    ----------
    n:
        STS level (1, 3, 12, 48...).  OC-48 is the paper's target.
    pointer:
        H1/H2 payload offset, 0..782.  0 places J1 immediately after
        the H3 byte position; nonzero values exercise the receiver's
        pointer interpretation.
    c2:
        Path signal label; defaults to the scrambled-PPP value.
    scramble:
        Apply the frame-synchronous scrambler (on by default; switch
        off to observe raw overhead in tests).
    """

    def __init__(
        self,
        n: int,
        *,
        pointer: int = 0,
        c2: int = SONET_C2_PPP_SCRAMBLED,
        j0: int = J0_DEFAULT,
        j1: bytes = b"repro-path-trace",
        scramble: bool = True,
    ) -> None:
        if not 0 <= pointer <= POINTER_MAX:
            raise PointerError(f"pointer {pointer} outside 0..{POINTER_MAX}")
        self.rate = StsRate(n)
        self.n = n
        self.pointer = pointer
        self.c2 = c2
        self.j0 = j0
        self.j1 = (j1 + b" " * 16)[:16]
        self.scramble = scramble
        self._keystream = keystream_grid(self.rate) if scramble else None
        # B1/B2/B3 owed to the next frame: parity of this one.
        self._b1: Optional[int] = None
        self._b2: Optional[int] = None
        self._b3: Optional[int] = None
        self._j1_cursor = 0
        self.frames_built = 0

    # ------------------------------------------------------------- geometry
    @property
    def payload_bytes_per_frame(self) -> int:
        from repro.sonet.rates import payload_capacity_bytes

        return payload_capacity_bytes(self.n)

    def _wrap_spe_col(self, col: int, offset: int) -> int:
        toh = self.rate.toh_columns
        spe_width = self.rate.spe_columns
        return toh + (col - toh + offset) % spe_width

    # ---------------------------------------------------------------- build
    def build(self, payload: bytes) -> bytes:
        """Assemble one frame around ``payload`` and return wire bytes.

        ``payload`` must be exactly :attr:`payload_bytes_per_frame`
        long — the continuous HDLC stream mapper
        (:class:`~repro.sonet.path.PppOverSonet`) guarantees that by
        inter-frame flag fill.
        """
        if len(payload) != self.payload_bytes_per_frame:
            raise SonetError(
                f"payload must be exactly {self.payload_bytes_per_frame} bytes, "
                f"got {len(payload)}"
            )
        grid = np.zeros((ROWS, self.rate.columns), dtype=np.uint8)
        self._write_toh(grid)
        self._write_poh_and_payload(grid, payload)
        self._write_parity(grid)
        wire = grid ^ self._keystream if self.scramble else grid
        self._b1 = _bip8(wire)
        self.frames_built += 1
        return wire.tobytes()

    def _write_toh(self, grid: np.ndarray) -> None:
        n = self.n
        # Row 0: A1 x N, A2 x N, J0/Z0 x N.
        grid[0, 0:n] = A1
        grid[0, n : 2 * n] = A2
        grid[0, 2 * n] = self.j0
        # Row 3: H1/H2 pointer in the first STS-1; concatenation
        # indication (NDF=1001, offset all-ones) in the rest.
        h1 = (NDF_NORMAL << 4) | ((self.pointer >> 8) & 0x03)
        h2 = self.pointer & 0xFF
        grid[3, 0] = h1
        grid[3, n] = h2
        if n > 1:
            grid[3, 1:n] = 0x93          # 1001 ss 11: concatenation H1
            grid[3, n + 1 : 2 * n] = 0xFF  # concatenation H2
        # K1/K2 (APS) idle.
        grid[4, 2 * n] = 0x00

    def _write_poh_and_payload(self, grid: np.ndarray, payload: bytes) -> None:
        poh_col = self._wrap_spe_col(self.rate.toh_columns, self.pointer)
        # Path overhead column: J1, B3 (filled in _write_parity), C2, G1.
        grid[0, poh_col] = self.j1[self._j1_cursor]
        self._j1_cursor = (self._j1_cursor + 1) % len(self.j1)
        grid[2, poh_col] = self.c2
        grid[3, poh_col] = 0x00  # G1: no remote defects
        grid[:, payload_columns(self.n, poh_col)] = np.frombuffer(
            payload, dtype=np.uint8
        ).reshape(ROWS, -1)
        self._poh_col_last = poh_col

    def _write_parity(self, grid: np.ndarray) -> None:
        # B1 (row 1, col 0): section BIP-8 over previous scrambled frame.
        if self._b1 is not None:
            grid[1, 0] = self._b1
        # B2 (row 5, col 0): line BIP over previous frame's line portion.
        if self._b2 is not None:
            grid[5, 0] = self._b2
        # B3 (row 1 of POH): path BIP-8 over the previous SPE.
        if self._b3 is not None:
            grid[1, self._poh_col_last] = self._b3
        self._b2 = _bip8(grid[3:, :])
        self._b3 = _bip8(grid[:, self.rate.toh_columns :])
