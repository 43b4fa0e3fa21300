"""The streaming receive codec: named policy values, chunk invariance,
bounded carry and a seeded hostile corpus.

Every frame-level receiver runs :class:`repro.hdlc.Delineator`; the
places where its callers used to disagree are :class:`ReceivePolicy`
fields, each pinned here by its own test.
"""

import ast
import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.crc import CRC16_X25, CRC32
from repro.errors import AbortError, FramingError
from repro.fastpath import DifferentialHarness, FastpathEngine
from repro.hdlc import Delineator, HdlcFramer, ReceivePolicy, unstuff
from repro.hdlc.byte_stuffing import _unstuff_scalar
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.ppp import IpcpConfig, LcpConfig, PppEndpoint, connect_endpoints
from repro.ppp.ipcp import parse_ipv4
from repro.ppp.options import FCS_32
from repro.resilience import FastpathGuard
from repro.sonet.constants import SONET_C2_PPP_SCRAMBLED
from repro.sonet.framer import SonetFramer
from repro.sonet.path import PppOverSonet
from repro.sonet.scrambler import SelfSyncScrambler
from repro.utils.rng import make_rng

FLAG = bytes([FLAG_OCTET])
ESC = bytes([ESC_OCTET])

#: The cycle receiver's choices (what FastpathEngine sets), with a cut.
CYCLE = ReceivePolicy(reject_escape_pairs=False, max_content=0, max_frame_octets=64)
#: HdlcFramer's choices, with a small MRU so drops are cheap to reach.
FRAMER = ReceivePolicy(max_content=24)
POLICIES = [
    CYCLE,
    FRAMER,
    ReceivePolicy(fcs=CRC16_X25, reject_escape_pairs=False, max_content=0),
    ReceivePolicy(
        reject_escape_pairs=False,
        max_content=0,
        max_frame_octets=20,
        flag_octet=0x5A,
        esc_octet=0x31,
    ),
]


def _snapshot(rx):
    return (
        dataclasses.asdict(rx.stats),
        rx.in_sync,
        bytes(rx._body),
        rx.open_frame(),
    )


def _chunked(policy, stream, cuts):
    rx = Delineator(policy)
    frames = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        frames += rx.push_bytes(stream[start:end])
    return frames, _snapshot(rx)


# ---------------------------------------------------------------------------
# Named policy values


def _pair_escaped_frame():
    """A frame whose plain 0x5D a non-conforming sender sent as 7D 7D."""
    content = b"\xff\x03A\x5dB"
    wire = HdlcFramer().encode(content)
    assert wire.count(b"A\x5dB") == 1
    return content, wire.replace(b"A\x5dB", b"A" + ESC + ESC + b"B")


def test_escape_pairs_rejected_is_a_framing_error():
    _content, wire = _pair_escaped_frame()
    rx = Delineator(ReceivePolicy(reject_escape_pairs=True))
    assert rx.push_bytes(wire) == []
    assert rx.stats.framing_errors == 1 and rx.stats.fcs_errors == 0
    with pytest.raises(FramingError):
        HdlcFramer().decode(wire)


def test_escape_pairs_by_run_parity_let_the_fcs_decide():
    content, wire = _pair_escaped_frame()
    rx = Delineator(ReceivePolicy(reject_escape_pairs=False))
    # 7D 7D decodes to 5D, so the FCS over the original content holds.
    assert rx.push_bytes(wire) == [(content, True)]
    assert rx.stats.framing_errors == 0
    assert FastpathEngine().decode_stream(wire).good_frames() == [content]


def _big_frame():
    content = (bytes(range(ESC_OCTET)) * 25)[:3000]  # nothing to escape
    return content, HdlcFramer(max_content=4000).encode(content)


def test_max_content_drops_by_decoded_size():
    _content, wire = _big_frame()
    rx = Delineator(ReceivePolicy(max_content=1508))
    assert rx.push_bytes(wire) == []
    assert rx.stats.oversize == 1
    assert rx.stats.octets_discarded_hunting == 0
    assert PppOverSonet(3).delineator.policy.max_content == 1508


def test_max_frame_octets_cuts_and_rehunts():
    content, wire = _big_frame()
    body = len(wire) - 2
    rx = Delineator(CYCLE)
    # The 65-octet prefix is force-closed (and fails its FCS); the rest
    # of the body is hunt discard.
    assert rx.push_bytes(wire) == [(content[: 65 - 4], False)]
    assert rx.stats.oversize == 1 and rx.stats.fcs_errors == 1
    assert rx.stats.octets_discarded_hunting == body - 65


def test_no_size_limit_decodes_the_big_frame():
    content, wire = _big_frame()
    unlimited = ReceivePolicy(reject_escape_pairs=False, max_content=0)
    assert Delineator(unlimited).push_bytes(wire) == [(content, True)]
    assert FastpathEngine().decode_stream(wire).good_frames() == [content]


def test_policy_validation():
    with pytest.raises(ValueError):
        ReceivePolicy(max_frame_octets=64)  # the default MRU drop is set too
    with pytest.raises(ValueError):
        ReceivePolicy(max_content=-1)
    with pytest.raises(ValueError):
        ReceivePolicy(flag_octet=0x5D)  # the escape's escaped form
    assert ReceivePolicy().carry_limit == 2 * (1508 + 4)
    assert CYCLE.carry_limit == 64


def test_policy_swap_keeps_the_open_body():
    content = b"\xff\x03" + bytes(range(40))
    wire = HdlcFramer(CRC16_X25).encode(content)
    rx = Delineator(ReceivePolicy(fcs=CRC32))
    assert rx.push_bytes(wire[:20]) == []
    rx.policy = HdlcFramer(CRC16_X25, max_content=100).receive_policy
    assert rx.push_bytes(wire[20:]) == [(content, True)]


def test_session_reprograms_its_receiver_in_place():
    a = PppEndpoint(
        "A", LcpConfig(fcs_flags=FCS_32),
        IpcpConfig(local_address=parse_ipv4("1.1.1.1")),
        fcs_spec=CRC16_X25, magic_seed=1,
    )
    b = PppEndpoint(
        "B", LcpConfig(fcs_flags=FCS_32),
        IpcpConfig(local_address=parse_ipv4("1.1.1.2")),
        fcs_spec=CRC16_X25, magic_seed=2,
    )
    receiver = b.delineator
    connect_endpoints(a, b)
    assert b.delineator is receiver
    assert receiver.policy == b.rx_framer.receive_policy
    assert receiver.policy.fcs is CRC32


# ---------------------------------------------------------------------------
# Bounded carry on endless frames

_MEGABYTE = 1 << 20


def test_pos_path_carry_stays_bounded_on_an_endless_frame():
    rx = PppOverSonet(3)
    framer = SonetFramer(3, c2=SONET_C2_PPP_SCRAMBLED)
    need = framer.payload_bytes_per_frame
    payload = FLAG + b"\x41" * _MEGABYTE
    payload += b"\x41" * (-len(payload) % need)
    payload = SelfSyncScrambler().scramble(payload)
    line = b"".join(
        framer.build(payload[off : off + need]) for off in range(0, len(payload), need)
    )
    bound = rx.delineator.policy.carry_limit
    for off in range(0, len(line), 1024):
        assert rx.receive_line(line[off : off + 1024]) == []
        assert len(rx.delineator._body) <= bound
    assert rx.hdlc_stats.oversize == 1  # counted once, at the drop
    assert rx.hdlc_stats.octets_in == len(payload)


def test_guard_carry_stays_bounded_on_an_endless_frame():
    config = P5Config.thirty_two_bit(max_frame_octets=512)  # the supervisor's
    guard = FastpathGuard(config, name="lane", check_every=100)
    data = FLAG + b"\x41" * _MEGABYTE
    faults = hunted = 0
    for i, off in enumerate(range(0, len(data), 1024)):
        delta = guard.decode(data[off : off + 1024], i)
        faults += delta.framing_faults
        hunted += delta.hunt_octets
        assert len(guard._fast_rx._body) <= config.max_frame_octets + 1
    assert faults == 1  # the cut, counted once
    assert hunted == _MEGABYTE - (config.max_frame_octets + 1)


# ---------------------------------------------------------------------------
# Seeded hostile corpus


def _frame_at_lane(engine, octet, lane, width):
    """A good frame whose first content octet ``octet`` sits in ``lane``."""
    lead = (lane - 1) % width  # the opening flag takes stream offset 0
    return engine.encode_frame(b"\x41" * lead + bytes([octet]) + b"\x42" * 5)


def hostile_corpus(seed, config):
    """Wire streams that start and end on a flag, built from ``seed``.

    Covers escapes and flags in every lane of the datapath word,
    ``7D 7D`` chains (inside bodies and right before the closing flag),
    ``7D 7E`` aborts, truncated frames, runts and oversize bodies.
    """
    rng = make_rng(seed)
    engine = FastpathEngine(config)
    width = config.width_bytes
    streams = [
        _frame_at_lane(engine, octet, lane, width)
        for octet in (ESC_OCTET, FLAG_OCTET)
        for lane in range(width)
    ]
    for run in range(1, 7):
        streams.append(FLAG + b"\x41\x42" + ESC * run + b"\x43\x44\x45\x46\x47" + FLAG)
        streams.append(FLAG + b"\x41\x42\x43\x44\x45" + ESC * run + FLAG)
    for _ in range(8):
        pieces = []
        for _ in range(int(rng.integers(2, 6))):
            content = bytes(rng.integers(0, 256, int(rng.integers(1, 40)), dtype="uint8"))
            frame = engine.encode_frame(content)
            kind = int(rng.integers(0, 6))
            if kind == 1:  # truncated: a flag lands mid-body
                frame = frame[: int(rng.integers(2, len(frame)))] + FLAG
            elif kind == 2:  # aborted by 7D 7E, mid-body
                frame = frame[: int(rng.integers(2, len(frame) - 1))] + ESC + FLAG
            elif kind == 3:  # runt
                runt = rng.integers(0, ESC_OCTET, int(rng.integers(1, 5)), dtype="uint8")
                frame = FLAG + bytes(runt) + FLAG
            elif kind == 4:  # oversize
                frame = engine.encode_frame(content * 4 + bytes(80))
            pieces.append(frame)
        streams.append(b"".join(pieces))
    return streams


CORPUS_CONFIG = P5Config(max_frame_octets=64)
CORPUS = hostile_corpus(20260, CORPUS_CONFIG)


@pytest.mark.parametrize("policy", [CYCLE, FRAMER], ids=["cycle", "framer"])
def test_corpus_any_single_split_matches_whole_stream(policy):
    for stream in CORPUS:
        whole = _chunked(policy, stream, [])
        for cut in range(len(stream) + 1):
            assert _chunked(policy, stream, [cut]) == whole, (stream.hex(), cut)


@pytest.mark.parametrize("policy", [CYCLE, FRAMER], ids=["cycle", "framer"])
def test_corpus_chunked_like_the_cycle_word_stream(policy):
    joined = b"".join(CORPUS)
    whole = _chunked(policy, joined, [])
    for width in (1, 4, 8):
        cuts = list(range(width, len(joined), width))
        assert _chunked(policy, joined, cuts) == whole


def test_corpus_fastpath_matches_cycle_receiver():
    harness = DifferentialHarness(CORPUS_CONFIG)
    for stream in CORPUS:
        harness.run_rx(stream).assert_ok()


def test_corpus_escapes_in_every_lane_loop_back_identically():
    for config in (P5Config(), P5Config(width_bits=64)):
        engine = FastpathEngine(config)
        contents = [
            b"\x41" * ((lane - 1) % config.width_bytes) + bytes([octet]) + b"\x42" * 5
            for octet in (ESC_OCTET, FLAG_OCTET)
            for lane in range(config.width_bytes)
        ]
        DifferentialHarness(config).run(contents).assert_ok()
        assert engine.loopback(contents)[1].good_frames() == contents


# ---------------------------------------------------------------------------
# Properties

_HOSTILE = [0x7E, 0x7D, 0x5E, 0x5D, 0x5A, 0x31, 0x7A, 0x11, 0x00, 0x41]


def _streams(policy):
    framer_fcs = FastpathEngine(
        P5Config(fcs=policy.fcs, flag_octet=policy.flag_octet, esc_octet=policy.esc_octet)
    )
    octets = st.lists(st.sampled_from(_HOSTILE), max_size=30).map(bytes)
    frame = st.binary(min_size=1, max_size=40).map(framer_fcs.encode_frame)
    return st.lists(st.one_of(octets, frame), max_size=8).map(b"".join)


def _cases():
    return st.sampled_from(POLICIES).flatmap(
        lambda p: st.tuples(st.just(p), _streams(p), st.lists(st.integers(0, 400), max_size=6))
    )


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_any_chunking_matches_one_whole_stream_decode(case):
    policy, stream, cuts = case
    cuts = sorted(min(c, len(stream)) for c in cuts)
    assert _chunked(policy, stream, cuts) == _chunked(policy, stream, [])


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_push_bytes_matches_the_octet_reference_under_every_policy(case):
    policy, stream, cuts = case
    cuts = sorted(min(c, len(stream)) for c in cuts)
    reference = Delineator(policy)
    expected = [f for f in map(reference.push, stream) if f is not None]
    chunked = Delineator(policy)
    got = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        got += chunked.push_bytes(stream[start:end])
    assert got == expected
    assert _snapshot(chunked) == _snapshot(reference)


def _outcome(fn, data):
    try:
        return fn(data)
    except AbortError:
        return AbortError
    except FramingError:
        return FramingError


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0x7E, 0x7D, 0x5E, 0x5D, 0x41]), max_size=24).map(bytes),
    st.booleans(),
)
def test_unstuff_matches_the_scalar_reference(data, strict):
    assert _outcome(lambda d: unstuff(d, strict=strict), data) == _outcome(
        lambda d: _unstuff_scalar(d, strict=strict), data
    )


def test_hdlc_package_imports_no_numpy():
    package = pathlib.Path(__file__).parent.parent / "src" / "repro" / "hdlc"
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(n.split(".")[0] == "numpy" for n in names), path.name
