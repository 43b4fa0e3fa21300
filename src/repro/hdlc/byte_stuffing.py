"""Octet-synchronous transparency (byte stuffing), RFC 1662 section 4.2.

This is the computation the paper's Escape Generate and Escape Detect
hardware performs — here as the *behavioural golden model* the
cycle-accurate pipelines in :mod:`repro.core.escape_pipeline` are
checked against.

* :func:`~repro.hdlc.encoder.stuff` lives with the transmit codec.
* :func:`destuff` is the receive codec's escape removal (see
  :class:`~repro.hdlc.delineation.Delineator`): the inverse chain,
  checked by the escape count, with :func:`_run_parity` as the exact
  fallback.  :func:`unstuff` is that kernel behind RFC 1662's error
  rules.
* ``_stuff_scalar`` / ``_unstuff_scalar`` are the legible per-octet
  references the tests hold both directions to.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Tuple

from repro.errors import AbortError, FramingError
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET

__all__ = ["unstuff"]

_ESC = bytes([ESC_OCTET])


def check_framing_octets(flag: int, esc: int) -> None:
    """Reject framing octets under which stuffing is not invertible:
    the flag, the escape and their escaped forms must all differ."""
    octets = (flag, esc)
    if flag == esc or any(v ^ ESCAPE_XOR in octets for v in octets):
        raise ValueError("flag, escape and their escaped forms must all differ")


# --------------------------------------------------------------------- stuff
def _stuff_scalar(data: bytes, escapes: FrozenSet[int], esc: int = ESC_OCTET) -> bytes:
    out = bytearray()
    for byte in data:
        if byte in escapes:
            out.append(esc)
            out.append(byte ^ ESCAPE_XOR)
        else:
            out.append(byte)
    return bytes(out)


# ------------------------------------------------------------------- unstuff
def _unstuff_scalar(
    data: bytes, *, strict: bool, flag: int = FLAG_OCTET, esc: int = ESC_OCTET
) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        if byte == flag:
            raise FramingError(f"unescaped flag octet inside frame at offset {i}")
        if byte == esc:
            if i + 1 >= n:
                # The octet after a frame body is its closing flag, so
                # a trailing escape is the RFC 1662 abort sequence.
                raise AbortError("frame aborted: escape immediately before closing flag")
            nxt = data[i + 1]
            if nxt == flag:
                raise AbortError(f"abort sequence (7D 7E) at offset {i}")
            restored = nxt ^ ESCAPE_XOR
            if strict and nxt == esc:
                # 7D 7D is not producible by a conforming sender.
                raise FramingError(f"invalid escape pair 7D 7D at offset {i}")
            out.append(restored)
            i += 2
        else:
            out.append(byte)
            i += 1
    return bytes(out)


@lru_cache(maxsize=None)
def unstuff_pairs(flag: int, esc: int) -> Tuple[Tuple[bytes, bytes], ...]:
    """``(escaped form, octet)`` for the flag and the escape, escape last.

    Each pass turns ``ESC x`` into ``x ^ 0x20``; the escape pair runs
    last, so the escapes it restores meet no later pass.  Escapes of
    any other octet (ACCM control octets, or ones no sender needed)
    are left to :func:`_run_parity`.
    """
    return tuple(
        (bytes([esc, v ^ ESCAPE_XOR]), bytes([v])) for v in (flag, esc)
    )


def _run_parity(body: bytes, esc: bytes) -> bytes:
    """Escape removal with cycle-exact run semantics.

    :func:`~repro.core.escape_det.contract_word` deletes an escape and
    XORs whatever octet follows, so within a run of consecutive escape
    octets the even-offset ones delete and the odd-offset ones are the
    restored data: the non-conforming ``7D 7D`` decodes to ``5D``, and
    an unpaired escape at the very end is deleted.
    """
    parts = body.split(esc)
    out = [parts[0]]
    restored_esc = bytes([esc[0] ^ ESCAPE_XOR])
    pending = False  # the previous escape deleted and awaits its octet
    for part in parts[1:]:
        if pending:
            out += (restored_esc, part)
            pending = False
        elif part:
            out += (bytes([part[0] ^ ESCAPE_XOR]), part[1:])
        else:
            pending = True
    return b"".join(out)


def destuff(
    body: bytes, escapes: int, pairs: Tuple[Tuple[bytes, bytes], ...], esc: bytes
) -> bytes:
    """Remove the ``escapes`` escape octets of one flag-free body.

    The :func:`unstuff_pairs` chain is accepted only if it deleted
    exactly one octet per escape: that holds on all conforming input.
    Anything else (``7D 7D`` chains, escapes of octets outside the
    chain) takes :func:`_run_parity`, which decodes every input.
    """
    clear = body
    for escaped, octet in pairs:
        clear = clear.replace(escaped, octet)
    if len(body) - len(clear) == escapes:
        return clear
    return _run_parity(body, esc)


def unstuff(data: bytes, *, strict: bool = True) -> bytes:
    """Remove octet transparency (inverse of :func:`stuff`).

    ``data`` is the body *between* two flags, so a trailing escape
    octet means the escape was immediately followed by the closing
    flag — the RFC 1662 abort sequence.  The first violation, reading
    left to right, decides the error, as in ``_unstuff_scalar``.

    Raises
    ------
    AbortError
        On the abort sequence: ``0x7D 0x7E`` inside the buffer, or a
        trailing ``0x7D``.
    FramingError
        On a bare flag inside the frame or (when ``strict``) the
        unproducible pair ``0x7D 0x7D``.
    """
    data = bytes(data)
    flag_at = data.find(FLAG_OCTET)
    body = data if flag_at < 0 else data[:flag_at]
    if strict and _ESC + _ESC in body:
        raise FramingError("invalid escape pair 7D 7D")
    if (len(body) - len(body.rstrip(_ESC))) % 2:
        # An odd escape run ends in an escape with nothing to escape.
        raise AbortError("frame aborted: escape immediately before a flag")
    if flag_at >= 0:
        raise FramingError(f"unescaped flag octet inside frame at offset {flag_at}")
    return destuff(body, body.count(_ESC), unstuff_pairs(FLAG_OCTET, ESC_OCTET), _ESC)
