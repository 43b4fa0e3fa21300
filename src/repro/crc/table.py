"""Byte-table CRC — the one software CRC engine of the behavioural paths.

:class:`TableCrc` picks its update kernel once, at construction, from
properties of the spec (no option selects it):

* **CRC-32** (width 32, poly ``0x04C11DB7``, reflected — FCS-32, the
  GFP pFCS) runs on :func:`zlib.crc32`;
* **width 16, poly 0x1021, MSB-first** (XMODEM — the GFP HEC — and
  CCITT-FALSE) runs on :func:`binascii.crc_hqx`;
* **every other spec** runs the classic 256-entry byte-table loop.
  The table is built once per :class:`~repro.crc.polynomial.CrcSpec`
  by a module-level cache, as a tuple of Python ints.

All three arms keep the same register, so one engine can be fed in
any chunking and read at any point; the differential tests hold each
arm to the bit-serial golden model.
"""

from __future__ import annotations

import binascii
import zlib
from functools import lru_cache
from typing import Callable, Optional, Tuple

from repro.crc.bitserial import BitSerialCrc
from repro.crc.polynomial import CrcSpec
from repro.utils.bits import bit_reflect

__all__ = ["TableCrc"]

#: ``(data, register) -> register`` for one spec's register domain.
Step = Callable[[bytes, int], int]

_CRC32_POLY = 0x04C11DB7
_ONES32 = 0xFFFFFFFF


@lru_cache(maxsize=None)
def _table(spec: CrcSpec) -> Tuple[int, ...]:
    """The 256-entry byte table of ``spec`` (reflected or MSB-first form)."""
    table = []
    if spec.refin:
        poly = bit_reflect(spec.poly, spec.width)
        for byte in range(256):
            reg = byte
            for _ in range(8):
                reg = (reg >> 1) ^ (poly if reg & 1 else 0)
            table.append(reg)
    else:
        top = 1 << (spec.width - 1)
        for byte in range(256):
            reg = byte << (spec.width - 8)
            for _ in range(8):
                reg = ((reg << 1) ^ spec.poly if reg & top else reg << 1) & spec.mask
            table.append(reg)
    return tuple(table)


def _zlib_step(data: bytes, reg: int) -> int:
    # zlib keeps the complemented register; ours is the reflected one.
    return zlib.crc32(data, reg ^ _ONES32) ^ _ONES32


def _table_step(spec: CrcSpec) -> Step:
    table = _table(spec)
    if spec.refin:
        def step(data: bytes, reg: int) -> int:
            for byte in data:
                reg = table[(reg ^ byte) & 0xFF] ^ (reg >> 8)
            return reg
    else:
        shift = spec.width - 8
        mask = spec.mask

        def step(data: bytes, reg: int) -> int:
            for byte in data:
                reg = (table[((reg >> shift) ^ byte) & 0xFF] ^ (reg << 8)) & mask
            return reg
    return step


def _step_for(spec: CrcSpec) -> Step:
    """The update kernel for ``spec``: zlib, crc_hqx, or the table loop."""
    if spec.width == 32 and spec.poly == _CRC32_POLY and spec.refin:
        return _zlib_step
    if spec.width == 16 and spec.poly == 0x1021 and not spec.refin:
        return binascii.crc_hqx
    return _table_step(spec)


class TableCrc:
    """Streaming CRC calculator for any registered spec.

    For fully reflected specs (``refin and refout``, e.g. both PPP FCS
    variants) the register is kept in the *reflected* domain, so the
    per-byte update is the familiar
    ``reg = table[(reg ^ byte) & 0xFF] ^ (reg >> 8)`` and the register
    is already in the refout domain.  Non-reflected specs use the
    MSB-first form.  Mixed-reflection specs and widths below 8 (none
    registered) fall back to the bit-serial engine.

    :attr:`crc_of` is the stateless one-shot kernel, ``data -> CRC``:
    :func:`zlib.crc32` itself for CRC-32/ISO-HDLC, so a per-frame
    caller pays no Python layer for it.
    """

    def __init__(self, spec: CrcSpec) -> None:
        self.spec = spec
        self._fallback: Optional[BitSerialCrc] = None
        if spec.refin != spec.refout or spec.width < 8:
            self._fallback = BitSerialCrc(spec)
            self.crc_of: Callable[[bytes], int] = BitSerialCrc(spec).compute
        else:
            self._step = _step_for(spec)
            # The initial register, in the kernel's register domain.
            self._init = bit_reflect(spec.init, spec.width) if spec.refin else spec.init
            if self._step is _zlib_step and spec.init == spec.xorout == _ONES32:
                self.crc_of = zlib.crc32
            else:
                step, init, xorout = self._step, self._init, spec.xorout
                self.crc_of = lambda data: step(data, init) ^ xorout
        self.reset()

    # ------------------------------------------------------------- streaming
    def reset(self) -> None:
        if self._fallback is not None:
            self._fallback.reset()
        else:
            self._reg = self._init

    def update(self, data: bytes) -> "TableCrc":
        """Absorb ``data``; returns self for chaining."""
        if self._fallback is not None:
            self._fallback.update(data)
        else:
            self._reg = self._step(data, self._reg)
        return self

    # --------------------------------------------------------------- results
    def value(self) -> int:
        """Published CRC of everything absorbed so far."""
        return self.residue_value() ^ self.spec.xorout

    def residue_value(self) -> int:
        """Register in the refout domain without xorout."""
        if self._fallback is not None:
            return self._fallback.residue_value()
        return self._reg

    def compute(self, data: bytes) -> int:
        """One-shot CRC of ``data`` (resets first)."""
        self.reset()
        self.update(data)
        return self.value()
