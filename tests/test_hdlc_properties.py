"""Property-based tests for HDLC framing layers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc import CRC16_X25, CRC32
from repro.hdlc import (
    Accm,
    Delineator,
    HdlcFramer,
    escape_set,
    stuff,
    unstuff,
)
from repro.hdlc.byte_stuffing import _stuff_scalar
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

payloads = st.binary(min_size=0, max_size=500)


@given(data=payloads)
def test_stuff_round_trip(data):
    assert unstuff(stuff(data)) == data


@given(data=payloads)
def test_stuffed_never_contains_bare_flag(data):
    assert FLAG_OCTET not in stuff(data)


@given(data=payloads)
def test_stuff_expansion_bounds(data):
    out = stuff(data)
    assert len(data) <= len(out) <= 2 * len(data)


@given(data=payloads)
def test_stuff_expansion_exact(data):
    specials = sum(1 for b in data if b in (FLAG_OCTET, ESC_OCTET))
    assert len(stuff(data)) == len(data) + specials


@given(data=payloads, mask=st.integers(0, 0xFFFFFFFF))
def test_stuff_matches_scalar_reference_under_any_accm(data, mask):
    # The replace chain must equal the per-octet walk for every ACCM.
    accm = Accm(mask)
    assert stuff(data, accm) == _stuff_scalar(data, escape_set(accm))
    assert unstuff(stuff(data, accm)) == data


@given(data=st.binary(min_size=1, max_size=300))
def test_frame_round_trip_both_fcs(data):
    for spec in (CRC16_X25, CRC32):
        framer = HdlcFramer(spec)
        assert framer.decode(framer.encode(data)).content == data


@given(contents=st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=8))
@settings(max_examples=50)
def test_stream_round_trip(contents):
    framer = HdlcFramer(CRC32)
    decoded = framer.decode_stream(framer.encode_stream(contents))
    assert [f.content for f in decoded] == contents


@given(
    contents=st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=6),
    junk=st.binary(max_size=20),
)
@settings(max_examples=50)
def test_delineator_recovers_all_frames_after_junk(contents, junk):
    """Leading junk may cost hunting octets but never valid frames."""
    framer = HdlcFramer(CRC32)
    wire = junk.replace(bytes([FLAG_OCTET]), b"\x00") + framer.encode_stream(contents)
    delineator = Delineator(HdlcFramer(CRC32).receive_policy)
    got = [content for content, good in delineator.push_bytes(wire) if good]
    assert got == contents


# ------------------------------------------------- contract conformance
def _declared_stuffing_expansion():
    """The max_expansion the escape-generate unit's contract declares."""
    from repro.core.escape_pipeline import PipelinedEscapeGenerate
    from repro.rtl.module import Channel

    unit = PipelinedEscapeGenerate(
        "gen", Channel("in"), Channel("out"), width_bytes=4
    )
    (timing,) = unit.timing_contract().outputs
    return timing.max_expansion


@given(data=payloads)
def test_stuffing_never_exceeds_declared_max_expansion(data):
    """The x2 bound in the escape-generate timing contract is sound:
    no payload — including hypothesis-found adversarial ones — makes
    byte stuffing expand beyond it."""
    bound = _declared_stuffing_expansion()
    from repro.hdlc import stuffed_length

    assert len(stuff(data)) <= bound * max(len(data), 1)
    assert stuffed_length(data) == len(stuff(data))


def test_adversarial_payloads_reach_but_never_break_the_bound():
    """All-flag and all-escape payloads are the exact worst case the
    contract must cover."""
    bound = _declared_stuffing_expansion()
    assert bound == 2.0
    for octet in (FLAG_OCTET, ESC_OCTET):
        payload = bytes([octet]) * 256
        assert len(stuff(payload)) == int(bound * len(payload))


_FLAG = bytes([FLAG_OCTET])
_ESC = bytes([ESC_OCTET])
#: Small MRU guard so oversize bodies are cheap to draw.
_MAX_CONTENT = 12


def _hostile_segment(framer):
    """One piece of a hostile receive stream."""
    return st.one_of(
        st.binary(max_size=12),                                          # junk, flags included
        st.binary(min_size=1, max_size=24).map(                          # good, or over the MRU
            lambda content: framer.encode(content, leading_flag=False)
        ),
        st.sampled_from([_ESC + _ESC, _ESC + _FLAG, _ESC]),              # 7D 7D, abort, bare escape
        st.binary(max_size=3).map(lambda body: body + _FLAG),            # runts
        st.integers(min_value=1, max_value=6).map(lambda n: _FLAG * n),  # idle flag runs
    )


@given(data=st.data())
@settings(max_examples=200)
def test_push_bytes_matches_per_octet_push(data):
    """Any chunking through ``push_bytes`` is ``push`` octet by octet."""
    spec = data.draw(st.sampled_from([CRC16_X25, CRC32]))
    framer = HdlcFramer(spec, max_content=_MAX_CONTENT)
    stream = b"".join(data.draw(st.lists(_hostile_segment(framer), max_size=12)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=6)))

    reference = Delineator(framer.receive_policy)
    expected = [f for f in map(reference.push, stream) if f is not None]
    chunked = Delineator(framer.receive_policy)
    got = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        got += chunked.push_bytes(stream[start:end])

    assert got == expected
    assert chunked.stats == reference.stats
    assert chunked.in_sync == reference.in_sync
    assert chunked._body == reference._body
