"""Bit- and byte-level helpers: the CRC engines' bit reflection and a
hex dump for traces.
"""

from __future__ import annotations

__all__ = ["bit_reflect", "hexdump"]


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


def hexdump(data: bytes, *, width: int = 16) -> str:
    """Render ``data`` as a classic offset/hex/ASCII dump (for traces)."""
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        asciipart = "".join(chr(b) if 0x20 <= b < 0x7F else "." for b in chunk)
        lines.append(f"{off:08x}  {hexpart:<{width * 3 - 1}}  |{asciipart}|")
    return "\n".join(lines)
