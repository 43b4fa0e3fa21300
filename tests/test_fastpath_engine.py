"""The frame-level fastpath engine: TX/RX kernels and the SONET path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.crc import CRC16_X25, TableCrc
from repro.fastpath import (
    FastpathEngine,
    FastpathRxResult,
    SonetFastpath,
)
from repro.hdlc import Accm, HdlcFramer, stuffed_length
from repro.hdlc.byte_stuffing import _stuff_scalar
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.sonet.path import PppOverSonet
from repro.workloads.packets import ppp_frame_contents

CONTENTS = [b"\xff\x03\x00\x21hello", b"\x7e\x7d\x7e\x7d", bytes(range(64))]


def test_tx_matches_behavioural_framer_back_to_back():
    engine = FastpathEngine()
    framer = HdlcFramer()
    line = engine.encode_frames(CONTENTS).line
    # The cycle TX wraps each frame in its own pair of flags.
    assert line == b"".join(framer.encode(c) for c in CONTENTS)


def test_tx_matches_framer_with_accm():
    mask = 0x0000_000B
    engine = FastpathEngine(P5Config(accm_mask=mask))
    framer = HdlcFramer(accm=Accm(mask))
    contents = [bytes([0, 1, 2, 3, 4]) * 10, b"\x7e\x00\x03"]
    assert engine.encode_frames(contents).line == b"".join(
        framer.encode(c) for c in contents
    )


def test_tx_counters():
    engine = FastpathEngine()
    tx = engine.encode_frames([b"\x7e\x7dAB"])
    assert tx.frames == 1
    assert tx.content_octets == 4
    # 2 escapable content octets; the FCS trailer may add more.
    assert tx.octets_escaped >= 2
    assert tx.line_octets == len(tx.line)


def test_tx_empty_batch_and_empty_frame():
    engine = FastpathEngine()
    assert engine.encode_frames([]).line == b""
    with pytest.raises(ValueError):
        engine.encode_frames([b""])


def test_loopback_recovers_everything():
    engine = FastpathEngine()
    contents = ppp_frame_contents(25, seed=3)
    tx, rx = engine.loopback(contents)
    assert rx.frames_ok == len(contents)
    assert rx.fcs_errors == 0
    assert rx.good_frames() == list(contents)
    # n frames wrapped individually -> n-1 empty inter-frame bodies.
    assert rx.empty_bodies == len(contents) - 1


def test_fcs16_path_uses_table_engine():
    engine = FastpathEngine(P5Config(fcs=CRC16_X25))
    _tx, rx = engine.loopback(CONTENTS)
    assert rx.good_frames() == CONTENTS


def test_rx_hunt_discards_and_open_tail():
    engine = FastpathEngine()
    frame = engine.encode_frame(b"data-frame-x")
    rx = engine.decode_stream(b"\x00\x01\x02" + frame + b"\x55\x66")
    assert rx.octets_discarded_hunting == 3
    assert rx.open_tail_octets == 2
    assert rx.frames_ok == 1


def test_rx_abort_runt_and_no_flag():
    engine = FastpathEngine()
    aborted = bytes([FLAG_OCTET, 0x41, 0x42, ESC_OCTET, FLAG_OCTET])
    rx = engine.decode_stream(aborted)
    assert rx.aborts == 1 and not rx.frames
    runt = bytes([FLAG_OCTET, 1, 2, 3, FLAG_OCTET])  # 3 octets <= FCS-32
    rx = engine.decode_stream(runt)
    assert rx.runt_frames == 1 and not rx.frames
    rx = engine.decode_stream(b"\x00" * 10)  # flagless noise
    assert rx.octets_discarded_hunting == 10 and not rx.frames


def test_rx_oversize_cut_matches_cycle_semantics():
    config = P5Config(max_frame_octets=32)
    engine = FastpathEngine(config)
    body = bytes(100)  # stuffs to itself; way past the 32-octet cut
    line = bytes([FLAG_OCTET]) + body + bytes([FLAG_OCTET])
    rx = engine.decode_stream(line)
    assert rx.oversize_drops == 1
    assert rx.octets_discarded_hunting == len(body) - (32 + 1)
    # The cut prefix is force-closed like the cycle model's: a 33-octet
    # frame that (here) fails its FCS.
    assert rx.frames == [(bytes(33 - 4), False)]
    assert rx.fcs_errors == 1


def test_rx_oversize_boundary_frame_still_decodes():
    """A frame whose stuffed body is exactly max+1 octets is counted
    oversize by the cycle delineator, yet the force-closed prefix is
    the complete frame — it must still FCS-check good."""
    config = P5Config(max_frame_octets=16)
    engine = FastpathEngine(config)
    content = bytes(13)
    line = engine.encode_frame(content)
    assert len(line) == 2 + 17  # no stuffing: 13 content + 4 FCS
    rx = engine.decode_stream(line)
    assert rx.oversize_drops == 1
    assert rx.frames_ok == 1
    assert rx.good_frames() == [content]


def _destuff(body, esc_octet=ESC_OCTET):
    """Escape removal with cycle-exact run semantics (the reference).

    :func:`~repro.core.escape_pipeline.contract_word` deletes an escape
    and XORs whatever octet follows — so within a maximal run of
    consecutive escape octets, the even-offset ones delete and the
    odd-offset ones are themselves the restored data (the
    non-conforming ``7D 7D`` pair decodes to ``5D``).
    """
    body = np.frombuffer(body, dtype=np.uint8)
    esc = body == esc_octet
    if not esc.any():
        return body.tobytes(), 0
    indices = np.arange(body.size)
    prev_esc = np.empty_like(esc)
    prev_esc[0] = False
    prev_esc[1:] = esc[:-1]
    run_start = np.where(esc & ~prev_esc, indices, -1)
    offset_in_run = indices - np.maximum.accumulate(run_start)
    delete = esc & (offset_in_run % 2 == 0)
    xor_next = np.empty_like(delete)
    xor_next[0] = False
    xor_next[1:] = delete[:-1]
    out = body.copy()
    out[xor_next] ^= 0x20
    return out[~delete].tobytes(), int(delete.sum())


def test_destuff_chained_escapes_match_unstuff():
    from repro.hdlc import stuff, unstuff
    from repro.hdlc.byte_stuffing import _run_parity

    esc = bytes([ESC_OCTET])
    payload = bytes([ESC_OCTET, ESC_OCTET, FLAG_OCTET, 0x00, ESC_OCTET])
    stuffed = stuff(payload)
    for clear, deleted in (_destuff(stuffed), (_run_parity(stuffed, esc), None)):
        assert clear == unstuff(stuffed) == payload
        assert deleted in (None, len(stuffed) - len(payload))
    # Non-conforming 7D 7D decodes to 5D, like the cycle pipeline.
    raw = bytes([ESC_OCTET, ESC_OCTET])
    assert _destuff(raw) == (bytes([ESC_OCTET ^ 0x20]), 1)
    assert _run_parity(raw, esc) == bytes([ESC_OCTET ^ 0x20])


def test_sonet_fastpath_roundtrip():
    path = SonetFastpath(n=12)
    contents = ppp_frame_contents(10, seed=1)
    result = path.roundtrip(contents)
    assert result.recovered == contents
    assert result.rx.fcs_errors == 0


def test_sonet_fastpath_batches_form_one_scrambled_stream():
    """Successive encode batches continue one x^43 stream, so a
    behavioural receiver that never restarts its descrambler recovers
    every frame across the batch boundary."""
    tx = SonetFastpath(3)
    first = ppp_frame_contents(40, seed=1)
    second = ppp_frame_contents(40, seed=2)
    lines = tx.encode(first) + tx.encode(second)
    rx = PppOverSonet(3)
    assert rx.receive_line(b"".join(lines)) == first + second
    assert rx.hdlc_stats.frames_ok == 80
    assert rx.hdlc_stats.fcs_errors == 0
    # And the fastpath's own receiver stays in step batch after batch.
    path = SonetFastpath(3)
    for contents in (first, second):
        assert path.roundtrip(contents).recovered == contents
    # Batch encode and per-frame queue_frame/next_line_frame on one
    # mapper continue the same stream, whatever the order.
    third = ppp_frame_contents(12, seed=3)
    mixed = PppOverSonet(3)
    for content in third:
        mixed.queue_frame(content)
    lines = [mixed.next_line_frame()] + mixed.encode(first)
    for content in second:
        mixed.queue_frame(content)
    lines += [mixed.next_line_frame() for _ in range(2)] + mixed.encode([])
    rx = PppOverSonet(3)
    assert rx.receive_line(b"".join(lines)) == third + first + second
    assert rx.hdlc_stats.total_errors() == 0


# ---------------------------------------------------------------------------
# Differential properties: the bytes-native kernels against the reference

#: The configs the kernels special-case: default, an MRU cut, every
#: control octet escaped, and a custom flag and escape.
ROUND_TRIP_CONFIGS = [
    P5Config(),
    P5Config(max_frame_octets=64),
    P5Config(accm_mask=0xFFFFFFFF),
    P5Config(flag_octet=0x5A, esc_octet=0x31),
]
#: Plus an ACCM that makes a replace chain inexact (0x11 escapes to
#: ``31 31``), forcing the regex stuffer and the run-parity destuffer.
#: It cannot round-trip: a body ending in 0x11 ends ``31 31``, which
#: the receiver reads as an abort, exactly like the cycle model.
PROPERTY_CONFIGS = ROUND_TRIP_CONFIGS + [
    P5Config(flag_octet=0x5A, esc_octet=0x31, accm_mask=1 << 0x11),
]
_HOSTILE = [0x7E, 0x7D, 0x5E, 0x5D, 0x00, 0x21, 0x41]


def _alphabet(config):
    extra = [config.flag_octet, config.esc_octet]
    return sorted(set(_HOSTILE + extra + [v ^ 0x20 for v in extra]))


def _reference_decode(engine, line):
    """``decode_stream`` with every body through the run-parity kernel."""
    config = engine.config
    ref = FastpathRxResult()
    flags = [i for i, octet in enumerate(line) if octet == config.flag_octet]
    if not flags:
        ref.octets_discarded_hunting = len(line)
        return ref
    ref.octets_discarded_hunting = flags[0]
    bodies = [line[start + 1 : end] for start, end in zip(flags, flags[1:])]
    tail = line[flags[-1] + 1 :]
    cap = config.max_frame_octets
    if cap and len(tail) > cap:
        bodies.append(tail)  # cut on its (cap+1)-th octet like a closed body
    else:
        ref.open_tail_octets = len(tail)
    for body in bodies:
        if not body:
            ref.empty_bodies += 1
            continue
        if cap and len(body) > cap:
            ref.oversize_drops += 1
            ref.octets_discarded_hunting += len(body) - (cap + 1)
            body = body[: cap + 1]
        elif body[-1] == config.esc_octet:
            ref.aborts += 1
            continue
        clear, deleted = _destuff(body, config.esc_octet)
        ref.octets_deleted += deleted
        if len(clear) <= engine.fcs_octets:
            ref.runt_frames += 1
            continue
        good = TableCrc(config.fcs).crc_of(clear) == config.fcs.residue ^ config.fcs.xorout
        ref.frames_ok += good
        ref.fcs_errors += not good
        ref.frames.append((clear[: -engine.fcs_octets], good))
    return ref


def _cases(configs, examples):
    """``(config, example)`` pairs, the example drawn from ``examples(config)``."""
    return st.sampled_from(configs).flatmap(lambda c: st.tuples(st.just(c), examples(c)))


def _octets(config, **size):
    return st.lists(st.sampled_from(_alphabet(config)), **size).map(bytes)


def _frames(config):
    # <= 28 octets + FCS stuffs to <= 64, inside the MRU cut.
    return st.lists(_octets(config, min_size=1, max_size=28), min_size=1, max_size=8)


def _stream(config):
    """Hostile octets with whole encoded frames spliced in, so good,
    bad, aborted, runt and oversize bodies all occur."""
    engine = FastpathEngine(config)
    frame = _octets(config, min_size=1, max_size=40).map(engine.encode_frame)
    piece = st.one_of(_octets(config, max_size=40), frame)
    return st.lists(piece, max_size=8).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(_cases(PROPERTY_CONFIGS, _stream))
def test_decode_stream_matches_run_parity_reference(case):
    config, line = case
    engine = FastpathEngine(config)
    got = dataclasses.asdict(engine.decode_stream(line))
    assert got == dataclasses.asdict(_reference_decode(engine, line))


def _bodies(engine, contents):
    return [c + engine.fcs_of(c).to_bytes(engine.fcs_octets, "little") for c in contents]


@settings(max_examples=200, deadline=None)
@given(_cases(PROPERTY_CONFIGS, _frames))
def test_encode_frames_matches_octet_stuffing(case):
    config, contents = case
    engine = FastpathEngine(config)
    tx = engine.encode_frames(contents)
    flag, esc = bytes([config.flag_octet]), config.esc_octet
    bodies = _bodies(engine, contents)
    stuffed = [_stuff_scalar(body, config.escape_octets, esc) for body in bodies]
    assert tx.line == b"".join(flag + s + flag for s in stuffed)
    growth = sum(len(s) - len(b) for s, b in zip(stuffed, bodies))
    assert tx.octets_escaped == growth
    if (config.flag_octet, esc) == (FLAG_OCTET, ESC_OCTET):
        accm = Accm(config.accm_mask)
        assert growth == sum(stuffed_length(b, accm) - len(b) for b in bodies)
        framer = HdlcFramer(config.fcs, accm)
        assert tx.line == b"".join(map(framer.encode, contents))


@settings(max_examples=200, deadline=None)
@given(_cases(ROUND_TRIP_CONFIGS, _frames))
def test_encode_decode_round_trip(case):
    config, contents = case
    engine = FastpathEngine(config)
    tx = engine.encode_frames(contents)
    rx = engine.decode_stream(tx.line)
    assert rx.good_frames() == contents
    assert rx.fcs_errors == rx.aborts == rx.runt_frames == rx.oversize_drops == 0
    assert rx.octets_deleted == tx.octets_escaped
