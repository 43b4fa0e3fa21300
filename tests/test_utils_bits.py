"""Unit tests for repro.utils.bits."""

import pytest

from repro.utils.bits import bit_reflect, hexdump


class TestBitReflect:
    def test_nibble(self):
        assert bit_reflect(0b0001, 4) == 0b1000

    def test_byte(self):
        assert bit_reflect(0x80, 8) == 0x01

    def test_palindrome_fixed_point(self):
        assert bit_reflect(0b1001, 4) == 0b1001

    def test_involution(self):
        for value in (0x12345678, 0, 0xFFFFFFFF, 0xDEADBEEF):
            assert bit_reflect(bit_reflect(value, 32), 32) == value

    def test_rejects_oversized_value(self):
        with pytest.raises(ValueError):
            bit_reflect(0x100, 8)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            bit_reflect(0, 0)


class TestHexdump:
    def test_shows_offset_hex_and_ascii(self):
        dump = hexdump(b"Hello\x00World")
        assert "00000000" in dump
        assert "48 65 6c 6c 6f" in dump
        assert "|Hello.World|" in dump

    def test_multiline(self):
        dump = hexdump(bytes(40), width=16)
        assert len(dump.splitlines()) == 3
