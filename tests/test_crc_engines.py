"""Unit tests for the three CRC engines and the polynomial registry."""

import binascii
import zlib

import pytest

from repro.crc import (
    CRC8,
    CRC16_CCITT_FALSE,
    CRC16_KERMIT,
    CRC16_X25,
    CRC16_XMODEM,
    CRC32,
    BitSerialCrc,
    CrcSpec,
    ParallelCrc,
    TableCrc,
    get_spec,
    registered_specs,
)
from repro.crc.table import _table

ALL_SPECS = [CRC8, CRC16_CCITT_FALSE, CRC16_KERMIT, CRC16_X25, CRC32]


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_spec("CRC-32/ISO-HDLC") is CRC32

    def test_ppp_aliases(self):
        assert get_spec("FCS-16") is CRC16_X25
        assert get_spec("FCS-32") is CRC32

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="FCS-16"):
            get_spec("CRC-99/NOPE")

    def test_registered_specs_nonempty(self):
        assert "FCS-32" in registered_specs()

    def test_spec_validates_width(self):
        with pytest.raises(ValueError):
            CrcSpec("bad", 0, 0, 0, False, False, 0, 0, 0)

    def test_spec_validates_field_ranges(self):
        with pytest.raises(ValueError):
            CrcSpec("bad", 8, poly=0x1FF, init=0, refin=False,
                    refout=False, xorout=0, check=0, residue=0)

    def test_mask(self):
        assert CRC16_X25.mask == 0xFFFF
        assert CRC32.mask == 0xFFFFFFFF


class TestKnownValues:
    """The published check values are external ground truth."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_check_value_all_engines(self, spec):
        message = b"123456789"
        assert BitSerialCrc(spec).compute(message) == spec.check
        assert TableCrc(spec).compute(message) == spec.check
        for width in (8, 16, 32, 64):
            assert ParallelCrc(spec, width).compute(message) == spec.check

    def test_crc32_matches_zlib(self, rng):
        for n in (0, 1, 7, 64, 1000):
            data = rng.integers(0, 256, n, dtype="uint8").tobytes()
            assert BitSerialCrc(CRC32).compute(data) == zlib.crc32(data)

    def test_empty_message(self):
        # CRC-32 of nothing is xorout ^ reflect(init) = 0x00000000 ^ ...
        assert BitSerialCrc(CRC32).compute(b"") == zlib.crc32(b"")


class TestBitSerial:
    def test_streaming_equals_one_shot(self):
        crc = BitSerialCrc(CRC32)
        crc.update(b"1234")
        crc.update(b"56789")
        assert crc.value() == BitSerialCrc(CRC32).compute(b"123456789")

    def test_reset(self):
        crc = BitSerialCrc(CRC32)
        crc.update(b"garbage")
        crc.reset()
        crc.update(b"123456789")
        assert crc.value() == CRC32.check

    def test_update_byte_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BitSerialCrc(CRC32).update_byte(256)

    def test_state_setter_validates(self):
        crc = BitSerialCrc(CRC16_X25)
        with pytest.raises(ValueError):
            crc.state = 0x10000

    def test_residue_property(self):
        """RFC 1662: CRC over message+FCS leaves the magic residue."""
        for spec in (CRC16_X25, CRC32):
            msg = b"residue test message"
            fcs = BitSerialCrc(spec).compute(msg)
            trailer = fcs.to_bytes(spec.width // 8, "little")
            crc = BitSerialCrc(spec)
            crc.update(msg + trailer)
            assert crc.residue_value() == spec.residue


class TestTable:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_agrees_with_bitserial(self, spec, rng):
        for n in (0, 1, 3, 100):
            data = rng.integers(0, 256, n, dtype="uint8").tobytes()
            assert TableCrc(spec).compute(data) == BitSerialCrc(spec).compute(data)

    def test_streaming(self):
        crc = TableCrc(CRC16_X25)
        crc.update(b"12345").update(b"6789")
        assert crc.value() == CRC16_X25.check

    def test_residue(self):
        msg = b"abc"
        fcs = TableCrc(CRC32).compute(msg)
        crc = TableCrc(CRC32)
        crc.update(msg + fcs.to_bytes(4, "little"))
        assert crc.residue_value() == CRC32.residue

    def test_dispatch_arms(self):
        """Both C kernels and the table loop are in use among the specs."""
        assert TableCrc(CRC32).crc_of is zlib.crc32
        assert TableCrc(CRC16_XMODEM)._step is binascii.crc_hqx
        assert TableCrc(CRC16_CCITT_FALSE)._step is binascii.crc_hqx
        for spec in (CRC8, CRC16_KERMIT, CRC16_X25):
            assert TableCrc(spec)._step.__name__ == "step"

    def test_table_built_once_per_spec(self):
        assert _table(CRC16_X25) is _table(CRC16_X25)
        table = _table(CRC16_X25)
        assert len(table) == 256 and all(type(v) is int for v in table)

    def test_sub_byte_width_falls_back_to_bitserial(self):
        crc5 = CrcSpec("CRC-5/USB", 5, 0x05, 0x1F, True, True, 0x1F, 0x19, 0x06)
        crc = TableCrc(crc5)
        crc.update(b"1234").update(b"56789")
        assert crc.value() == crc5.check == crc.crc_of(b"123456789")


class TestParallel:
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_agrees_with_bitserial(self, width, rng):
        for n in (1, 4, 5, 63, 64, 200):
            data = rng.integers(0, 256, n, dtype="uint8").tobytes()
            assert (
                ParallelCrc(CRC32, width).compute(data)
                == BitSerialCrc(CRC32).compute(data)
            )

    def test_step_requires_exact_word(self):
        crc = ParallelCrc(CRC32, 32)
        with pytest.raises(ValueError):
            crc.step(b"abc")

    def test_partial_step_bounds(self):
        crc = ParallelCrc(CRC32, 32)
        with pytest.raises(ValueError):
            crc.step_partial(b"abcd")   # full word is not partial
        with pytest.raises(ValueError):
            crc.step_partial(b"")

    def test_word_count(self):
        crc = ParallelCrc(CRC32, 32)
        crc.update(b"0123456789")      # 2 full words + 2-byte tail
        assert crc.words_absorbed == 3

    def test_fcs16_parallel(self, rng):
        data = rng.integers(0, 256, 77, dtype="uint8").tobytes()
        assert (
            ParallelCrc(CRC16_X25, 32).compute(data)
            == BitSerialCrc(CRC16_X25).compute(data)
        )

    def test_rejects_non_multiple_of_8(self):
        with pytest.raises(ValueError):
            ParallelCrc(CRC32, 12)


class TestCompareEngines:
    def test_comparison_structure(self, rng):
        data = rng.integers(0, 256, 50, dtype="uint8").tobytes()
        reference = BitSerialCrc(CRC32).compute(data)
        assert TableCrc(CRC32).compute(data) == reference
        for width in (8, 16, 32, 64):
            assert ParallelCrc(CRC32, width).compute(data) == reference
