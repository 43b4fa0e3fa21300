"""Property-based tests (hypothesis) for the CRC engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc import (
    CRC16_X25,
    CRC32,
    BitSerialCrc,
    ParallelCrc,
    TableCrc,
    get_spec,
    registered_specs,
)

payloads = st.binary(min_size=0, max_size=400)


@given(data=payloads)
def test_all_engines_agree_crc32(data):
    expected = BitSerialCrc(CRC32).compute(data)
    assert TableCrc(CRC32).compute(data) == expected
    assert ParallelCrc(CRC32, 32).compute(data) == expected


@given(data=payloads)
def test_all_engines_agree_fcs16(data):
    expected = BitSerialCrc(CRC16_X25).compute(data)
    assert TableCrc(CRC16_X25).compute(data) == expected
    assert ParallelCrc(CRC16_X25, 8).compute(data) == expected


@given(data=st.binary(min_size=1, max_size=300))
def test_residue_invariant(data):
    """Appending the little-endian FCS always leaves the magic residue."""
    for spec in (CRC16_X25, CRC32):
        fcs = TableCrc(spec).compute(data)
        crc = TableCrc(spec)
        crc.update(data + fcs.to_bytes(spec.width // 8, "little"))
        assert crc.residue_value() == spec.residue


@given(data=st.binary(min_size=1, max_size=200),
       flip=st.integers(min_value=0))
def test_single_bit_error_always_detected(data, flip):
    """A CRC detects every single-bit error by construction."""
    bit = flip % (len(data) * 8)
    corrupted = bytearray(data)
    corrupted[bit // 8] ^= 1 << (bit % 8)
    assert BitSerialCrc(CRC32).compute(data) != BitSerialCrc(CRC32).compute(
        bytes(corrupted)
    )


@given(a=payloads, b=payloads)
def test_streaming_split_invariance(a, b):
    """CRC(a||b) must not depend on how the stream was chunked.

    The parallel engine absorbs bytes at byte granularity (partial
    steps), so chunk boundaries — even mid-word — cannot change the
    result.
    """
    whole = BitSerialCrc(CRC32).compute(a + b)
    crc = ParallelCrc(CRC32, 32)
    crc.update(a)
    crc.update(b)
    assert crc.value() == whole


@given(data=st.binary(min_size=64, max_size=256))
@settings(max_examples=25)
def test_parallel_widths_consistent(data):
    values = {ParallelCrc(CRC32, w).compute(data) for w in (8, 16, 32, 64)}
    assert len(values) == 1


@pytest.mark.parametrize("name", registered_specs())
@given(chunks=st.lists(st.binary(max_size=40), max_size=6))
@settings(max_examples=40)
def test_table_matches_bitserial_under_any_chunking(name, chunks):
    """Every dispatch arm (zlib, crc_hqx, table loop) is the LFSR.

    ``value()`` and ``residue_value()`` must agree after every chunk,
    and the one-shot kernel must agree on the concatenation.
    """
    spec = get_spec(name)
    table, serial = TableCrc(spec), BitSerialCrc(spec)
    for chunk in chunks:
        table.update(chunk)
        serial.update(chunk)
        assert table.value() == serial.value()
        assert table.residue_value() == serial.residue_value()
    assert table.crc_of(b"".join(chunks)) == serial.value()


@pytest.mark.parametrize("width_bits", [8, 16, 32, 64])
@pytest.mark.parametrize("name", registered_specs())
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_matrix_netlist_matches_table_engine(name, width_bits, data):
    """The synthesis netlist source (``ParallelCrc`` over ``CrcMatrices``)
    and the engine the cycle model's CRC stages run (``TableCrc``) hold
    the same register after every chunk: whole datapath words, ragged
    tails and arbitrary cuts alike.
    """
    spec = get_spec(name)
    word = width_bits // 8
    sizes = st.one_of(st.just(word), st.integers(min_value=0, max_value=2 * word + 1))
    chunks = data.draw(st.lists(sizes.flatmap(lambda n: st.binary(min_size=n, max_size=n)),
                                max_size=8))
    matrix, table = ParallelCrc(spec, width_bits), TableCrc(spec)
    for chunk in chunks:
        matrix.update(chunk)
        table.update(chunk)
        assert matrix.value() == table.value()
        assert matrix.residue_value() == table.residue_value()
