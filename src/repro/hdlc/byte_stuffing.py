"""Octet-synchronous transparency (byte stuffing), RFC 1662 section 4.2.

This is the computation the paper's Escape Generate and Escape Detect
hardware performs — here as the *behavioural golden model* the
cycle-accurate pipelines in :mod:`repro.core.escape_pipeline` are
checked against.

Two implementations of each direction are provided:

* a legible scalar reference (``_stuff_scalar`` / ``_unstuff_scalar``);
* :func:`stuff` is a ``bytes.replace`` chain, one pass per escapable
  octet, and :func:`unstuff` takes a numpy-vectorised bulk path for
  larger buffers (destuffing is applied to every received byte).
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.errors import AbortError, FramingError
from repro.hdlc.accm import Accm
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET

__all__ = ["escape_set", "stuff", "unstuff", "stuffed_length"]

#: Buffers at least this large take the vectorised paths.
_VECTOR_THRESHOLD = 64

_MANDATORY = frozenset({FLAG_OCTET, ESC_OCTET})


def escape_set(accm: Optional[Accm] = None) -> FrozenSet[int]:
    """The set of octet values that must be escaped on transmit."""
    if accm is None:
        return _MANDATORY
    return accm.escape_octets()


def stuffed_length(data: bytes, accm: Optional[Accm] = None) -> int:
    """Length of ``stuff(data)`` without materialising it.

    Every escapable octet costs exactly one extra octet, so this is
    ``len(data) + count(escapable)`` — the quantity the paper's
    resynchronisation buffer has to absorb.
    """
    escapes = escape_set(accm)
    if len(data) >= _VECTOR_THRESHOLD:
        arr = np.frombuffer(data, dtype=np.uint8)
        needs = np.isin(arr, np.fromiter(escapes, dtype=np.uint8))
        return len(data) + int(needs.sum())
    return len(data) + sum(1 for b in data if b in escapes)


# --------------------------------------------------------------------- stuff
def _stuff_scalar(data: bytes, escapes: FrozenSet[int]) -> bytes:
    out = bytearray()
    for byte in data:
        if byte in escapes:
            out.append(ESC_OCTET)
            out.append(byte ^ ESCAPE_XOR)
        else:
            out.append(byte)
    return bytes(out)


@lru_cache(maxsize=None)
def _stuff_pairs(escapes: FrozenSet[int]) -> Tuple[Tuple[bytes, bytes], ...]:
    """``(octet, escaped form)`` per escapable octet, the escape octet first."""
    order = [ESC_OCTET] + sorted(escapes - {ESC_OCTET})
    return tuple((bytes([v]), bytes([ESC_OCTET, v ^ ESCAPE_XOR])) for v in order)


def stuff(data: bytes, accm: Optional[Accm] = None) -> bytes:
    """Apply octet transparency: escape flags, escapes and ACCM octets.

    ``0x7E`` becomes ``0x7D 0x5E``, ``0x7D`` becomes ``0x7D 0x5D``, and
    any ACCM-selected control octet ``c`` becomes ``0x7D, c ^ 0x20``.
    One ``bytes.replace`` pass per escapable octet, the escape octet
    first, is exact: the escaped forms' second octets (``0x5D``,
    ``0x5E`` and ``0x20``-``0x3F``) are never escapable, so no pass
    matches what an earlier pass wrote.
    """
    out = bytes(data)
    for octet, escaped in _stuff_pairs(escape_set(accm)):
        out = out.replace(octet, escaped)
    return out


# ------------------------------------------------------------------- unstuff
def _unstuff_scalar(data: bytes, *, strict: bool) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        if byte == FLAG_OCTET:
            raise FramingError(f"unescaped flag octet inside frame at offset {i}")
        if byte == ESC_OCTET:
            if i + 1 >= n:
                # The octet after a frame body is its closing flag, so
                # a trailing escape is the RFC 1662 abort sequence.
                raise AbortError("frame aborted: escape immediately before closing flag")
            nxt = data[i + 1]
            if nxt == FLAG_OCTET:
                raise AbortError(f"abort sequence (7D 7E) at offset {i}")
            restored = nxt ^ ESCAPE_XOR
            if strict and nxt == ESC_OCTET:
                # 7D 7D is not producible by a conforming sender.
                raise FramingError(f"invalid escape pair 7D 7D at offset {i}")
            out.append(restored)
            i += 2
        else:
            out.append(byte)
            i += 1
    return bytes(out)


def _unstuff_vector(data: bytes, *, strict: bool) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8)
    flags = np.flatnonzero(arr == FLAG_OCTET)
    if flags.size:
        first = int(flags[0])
        if first > 0 and arr[first - 1] == ESC_OCTET:
            raise AbortError(f"abort sequence (7D 7E) at offset {first - 1}")
        raise FramingError(f"unescaped flag octet inside frame at offset {first}")
    is_esc = arr == ESC_OCTET
    if not is_esc.any():
        return data
    # An octet is "escaped" iff preceded by an odd run of escape octets;
    # with conforming input escapes never chain (7D 7D is invalid), so a
    # simple shift suffices once chained escapes are rejected.
    esc_idx = np.flatnonzero(is_esc)
    if esc_idx[-1] == arr.size - 1:
        # See the scalar path: a trailing escape is an aborted frame.
        raise AbortError("frame aborted: escape immediately before closing flag")
    following = arr[esc_idx + 1]
    if (following == ESC_OCTET).any():
        if strict:
            where = int(esc_idx[np.argmax(following == ESC_OCTET)])
            raise FramingError(f"invalid escape pair 7D 7D at offset {where}")
        # Chained escapes break the shift trick; defer to the scalar walk.
        return _unstuff_scalar(data, strict=strict)
    out = arr.copy()
    out[esc_idx + 1] ^= ESCAPE_XOR
    keep = np.ones(arr.size, dtype=bool)
    keep[esc_idx] = False
    return out[keep].tobytes()


def unstuff(data: bytes, *, strict: bool = True) -> bytes:
    """Remove octet transparency (inverse of :func:`stuff`).

    ``data`` is the body *between* two flags, so a trailing escape
    octet means the escape was immediately followed by the closing
    flag — the RFC 1662 abort sequence.

    Raises
    ------
    AbortError
        On the abort sequence: ``0x7D 0x7E`` inside the buffer, or a
        trailing ``0x7D``.
    FramingError
        On a bare flag inside the frame or (when ``strict``) the
        unproducible pair ``0x7D 0x7D``.
    """
    if len(data) >= _VECTOR_THRESHOLD:
        return _unstuff_vector(data, strict=strict)
    return _unstuff_scalar(data, strict=strict)
