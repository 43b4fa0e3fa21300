"""Property-based differential: fastpath vs. cycle engine must agree.

These are the satellite-3 properties: random frame batches, random
ACCM escape sets, and adversarial wire streams (runts, aborts,
oversize bodies, flagless noise) all produce byte-identical line
streams, identical frame lists with their verdicts and identical OAM
counters on the two engines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.fastpath import DifferentialHarness, FastpathEngine
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.utils.rng import make_rng
from repro.workloads import ppp_frame_contents

# Cycle runs cost milliseconds per frame; keep batches honest but small.
frame_batches = st.lists(
    st.binary(min_size=1, max_size=48), min_size=1, max_size=4
)

_SETTINGS = dict(max_examples=12, deadline=None)


def _random_batch(frames):
    rng = make_rng(0)
    return [bytes(rng.integers(0, 256, size=256, dtype="uint8")) for _ in range(frames)]


@pytest.mark.parametrize(
    "batch",
    [
        lambda n: ppp_frame_contents(n, seed=0),
        _random_batch,
        lambda n: [bytes([FLAG_OCTET]) * 256] * n,
    ],
    ids=["imix", "random", "allflags"],
)
def test_standard_batches_agree(batch):
    """40-frame IMIX, random 256-octet and all-flag batches, default config."""
    DifferentialHarness(P5Config()).run(batch(40)).assert_ok()


@settings(**_SETTINGS)
@given(contents=frame_batches)
def test_clean_loopback_agrees(contents):
    DifferentialHarness().run(contents).assert_ok()


@settings(**_SETTINGS)
@given(
    contents=frame_batches,
    accm_mask=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_agreement_holds_for_any_accm(contents, accm_mask):
    config = P5Config(accm_mask=accm_mask)
    DifferentialHarness(config).run(contents).assert_ok()


@settings(**_SETTINGS)
@given(data=st.data())
def test_rx_agreement_on_damaged_lines(data):
    """Crafted aborts, runts and noise decode identically on both RX."""
    engine = FastpathEngine()
    pieces = [bytes([FLAG_OCTET])]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        kind = data.draw(
            st.sampled_from(("good", "abort", "runt", "noise", "empty"))
        )
        if kind == "good":
            content = data.draw(st.binary(min_size=1, max_size=32))
            pieces.append(engine.encode_frame(content)[1:])
        elif kind == "abort":
            body = data.draw(st.binary(min_size=0, max_size=8))
            body = bytes(b for b in body if b not in (FLAG_OCTET, ESC_OCTET))
            pieces.append(body + bytes([ESC_OCTET, FLAG_OCTET]))
        elif kind == "runt":
            octets = data.draw(st.integers(min_value=1, max_value=4))
            pieces.append(b"\x01" * octets + bytes([FLAG_OCTET]))
        elif kind == "noise":
            raw = data.draw(st.binary(min_size=1, max_size=16))
            pieces.append(raw + bytes([FLAG_OCTET]))
        else:
            pieces.append(bytes([FLAG_OCTET]))
    DifferentialHarness().run_rx(b"".join(pieces)).assert_ok()


@pytest.mark.parametrize("width_bits", [8, 32])
@pytest.mark.parametrize("length", range(1, 12))
def test_aborted_complete_frame_is_dropped_whole(width_bits, length):
    """A complete frame whose closing flag is replaced by ``7D 7E``.

    Its FCS is intact, and part of it has already shipped when the
    abort arrives, yet both receivers drop it whole: one abort, no
    FCS verdict, and only the next frame lands.  The escapes of the
    aborted frame are not counted either (``7E 7D 11`` repeated puts
    two in every three octets).
    """
    harness = DifferentialHarness(P5Config(width_bits=width_bits))
    encode = harness.engine.encode_frame
    for content in (bytes(range(0x30, 0x30 + length)), b"\x7e\x7d\x11" * length):
        line = encode(content)[:-1] + bytes([ESC_OCTET, FLAG_OCTET]) + encode(b"next")
        harness.run_rx(line).assert_ok()
        rx = harness._run_cycle_rx(line)
        assert rx.frames == [(b"next", True)]
        assert (
            rx.delineator.aborts, rx.crc.fcs_errors, rx.escape.dangling_escape_errors
        ) == (1, 0, 0)
        assert rx.escape.octets_deleted == harness.engine.decode_stream(line).octets_deleted


@settings(max_examples=6, deadline=None)
@given(contents=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=3))
def test_oversize_frames_counted_identically(contents):
    config = P5Config(max_frame_octets=16)
    harness = DifferentialHarness(config)
    line = harness.engine.encode_frames(
        contents + [bytes(range(1, 41))]  # stuffs past the 16-octet cut
    ).line
    # Without its closing flag the last frame is an open tail, which
    # both receivers cut at the same octet.
    for wire in (line, line[:-1]):
        harness.run_rx(wire).assert_ok()
