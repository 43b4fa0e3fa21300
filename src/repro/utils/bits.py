"""Bit- and byte-level helpers used across the CRC, HDLC and SONET code.

Conventions
-----------
* Bit sequences are numpy ``uint8`` arrays of 0/1 values unless stated
  otherwise.
* "LSB-first" serialisation follows RFC 1662 / SONET practice: within
  each octet the least-significant bit is transmitted first for HDLC
  octet-synchronous links, while SONET transmits MSB first.  Functions
  take an explicit ``lsb_first`` flag so callers never guess.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

if TYPE_CHECKING:
    import numpy as np

# numpy is imported by the three array helpers that use it, not here:
# the CRC engines import this module for bit_reflect alone, and the
# cycle engine's import path stays numpy-free.

__all__ = [
    "popcount",
    "parity",
    "bit_reflect",
    "int_to_bits",
    "bits_to_int",
    "bytes_to_bits",
    "bits_to_bytes",
    "hexdump",
]


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount requires a non-negative integer")
    return bin(value).count("1")


def parity(value: int) -> int:
    """GF(2) parity (XOR of all bits) of a non-negative integer."""
    return popcount(value) & 1


def bit_reflect(value: int, width: int) -> int:
    """Reverse the bit order of ``value`` within ``width`` bits.

    ``bit_reflect(0b0001, 4) == 0b1000``.  Used by reflected CRC
    algorithms (CRC-32, CRC-16/X-25) where data is clocked LSB first.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if value >> width:
        raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
    result = 0
    for i in range(width):
        if (value >> i) & 1:
            result |= 1 << (width - 1 - i)
    return result


def int_to_bits(value: int, width: int, *, lsb_first: bool = False) -> np.ndarray:
    """Expand ``value`` into a ``uint8`` array of ``width`` bits.

    MSB-first by default; set ``lsb_first=True`` for serial links that
    shift the least-significant bit out first.
    """
    import numpy as np

    if value >> width:
        raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    if not lsb_first:
        bits = bits[::-1]
    return np.ascontiguousarray(bits)


def bits_to_int(bits: Iterable[int], *, lsb_first: bool = False) -> int:
    """Inverse of :func:`int_to_bits`."""
    seq: List[int] = [int(b) & 1 for b in bits]
    if lsb_first:
        seq = seq[::-1]
    value = 0
    for b in seq:
        value = (value << 1) | b
    return value


def bytes_to_bits(data: bytes, *, lsb_first: bool = False) -> np.ndarray:
    """Serialise ``data`` into a flat bit array, one octet at a time.

    Vectorised with :func:`numpy.unpackbits`; the per-octet bit order is
    selected with ``lsb_first`` (HDLC octet links are LSB-first, SONET
    is MSB-first).
    """
    import numpy as np

    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    order = "little" if lsb_first else "big"
    return np.unpackbits(arr, bitorder=order)


def bits_to_bytes(bits: np.ndarray, *, lsb_first: bool = False) -> bytes:
    """Pack a flat bit array back into bytes (inverse of :func:`bytes_to_bits`).

    The bit count must be a multiple of 8.
    """
    import numpy as np

    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    order = "little" if lsb_first else "big"
    return np.packbits(bits, bitorder=order).tobytes()


def hexdump(data: bytes, *, width: int = 16) -> str:
    """Render ``data`` as a classic offset/hex/ASCII dump (for traces)."""
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        asciipart = "".join(chr(b) if 0x20 <= b < 0x7F else "." for b in chunk)
        lines.append(f"{off:08x}  {hexpart:<{width * 3 - 1}}  |{asciipart}|")
    return "\n".join(lines)
