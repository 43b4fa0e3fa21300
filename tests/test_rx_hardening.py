"""Abort, runt and oversize frames through the cycle-accurate RX path.

Every scenario drives raw wire octets into a full ``P5Receiver``
(delineator → escape detect → CRC → sink) and checks that the error
is counted, typed, and — most importantly — that the *next* frame on
the wire is received intact: the hardening is about recovery, not
just rejection.
"""

import pytest

from repro.core.config import P5Config
from repro.core.rx import P5Receiver
from repro.errors import (
    AbortError,
    ConfigError,
    FcsError,
    OversizeFrameError,
    RuntFrameError,
)
from repro.hdlc import HdlcFramer
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.rtl import Simulator, StreamSource, beats_from_bytes

FLAG = bytes([FLAG_OCTET])
ESC = bytes([ESC_OCTET])


def run_rx(wire, config):
    rx = P5Receiver(config)
    src = StreamSource(
        "phy_src", rx.phy_in,
        beats_from_bytes(wire, config.width_bytes, frame_marks=False),
    )
    sim = Simulator([src] + rx.modules, rx.channels)
    sim.run_until(
        lambda: src.done
        and not any(ch.can_pop for ch in rx.channels)
        and rx.escape.idle,
        timeout=200_000,
        watchdog=4096,
    )
    return rx


def good_wire(config, content):
    return HdlcFramer(config.fcs).encode(content)


class TestAbort:
    @pytest.mark.parametrize("width", [8, 32], ids=["8bit", "32bit"])
    def test_short_abort_discarded_silently(self, width, rng):
        """<ESC><FLAG> before anything shipped: clean discard.

        The aborted body must fit the delineator's one-word holdback
        (so nothing has gone downstream yet): at most W-1 octets
        before the escape.
        """
        config = P5Config(width_bits=width)
        follower = rng.integers(0, 256, 40, dtype="uint8").tobytes()
        body = b"\x41" * (config.width_bytes - 1)
        wire = FLAG + body + ESC + FLAG + good_wire(config, follower)
        rx = run_rx(wire, config)
        assert rx.delineator.aborts == 1
        assert rx.good_frames() == [follower]
        assert rx.delineator.frames_delineated == 1  # only the follower
        assert any(isinstance(f, AbortError) for f in rx.faults)

    @pytest.mark.parametrize("width", [8, 32], ids=["8bit", "32bit"])
    def test_long_abort_cannot_merge_frames(self, width, rng):
        """An abort after beats shipped drops the whole partial frame."""
        config = P5Config(width_bits=width)
        partial = rng.integers(1, 0x7D, 40, dtype="uint8").tobytes()
        follower = rng.integers(0, 256, 40, dtype="uint8").tobytes()
        wire = FLAG + partial + ESC + FLAG + good_wire(config, follower)
        rx = run_rx(wire, config)
        assert rx.delineator.aborts == 1
        # The aborted fragment neither swallows the follower nor lands
        # in receive memory, and it is counted only as the abort.
        assert rx.frames == [(follower, True)]
        errors = (
            rx.crc.fcs_errors + rx.crc.runt_frames
            + rx.escape.dangling_escape_errors
        )
        assert errors == 0
        assert rx.crc.frames_checked == rx.delineator.frames_delineated == 1

    def test_abort_faults_carry_context(self):
        config = P5Config.thirty_two_bit()
        wire = FLAG + b"\x10\x20\x30" + ESC + FLAG
        rx = run_rx(wire, config)
        (fault,) = [f for f in rx.faults if isinstance(f, AbortError)]
        assert "abort" in str(fault)


class TestRunt:
    @pytest.mark.parametrize("width", [8, 32], ids=["8bit", "32bit"])
    def test_runt_swallowed_and_counted(self, width, rng):
        config = P5Config(width_bits=width)
        follower = rng.integers(0, 256, 40, dtype="uint8").tobytes()
        wire = FLAG + b"\x41\x42" + FLAG + good_wire(config, follower)
        rx = run_rx(wire, config)
        assert rx.crc.runt_frames == 1
        assert rx.good_frames() == [follower]
        # Runts never reach receive memory.
        assert len(rx.frames) == 1
        assert any(isinstance(f, RuntFrameError) for f in rx.faults)

    def test_empty_body_is_idle_not_runt(self):
        """Back-to-back flags are inter-frame idle, not an error."""
        config = P5Config.thirty_two_bit()
        wire = FLAG + FLAG + FLAG
        rx = run_rx(wire, config)
        assert rx.crc.runt_frames == 0
        assert rx.delineator.empty_bodies >= 1
        assert rx.faults == []


class TestOversize:
    def test_oversize_cut_and_rehunt(self, rng):
        config = P5Config.thirty_two_bit(max_frame_octets=64)
        big = rng.integers(0, 256, 120, dtype="uint8").tobytes()
        follower = rng.integers(0, 256, 40, dtype="uint8").tobytes()
        wire = good_wire(config, big) + good_wire(config, follower)
        rx = run_rx(wire, config)
        assert rx.delineator.oversize_drops == 1
        assert rx.good_frames() == [follower]
        assert any(isinstance(f, OversizeFrameError) for f in rx.faults)
        # The cut tail was discarded during the re-hunt.
        assert rx.delineator.octets_discarded_hunting > 0

    def test_unbounded_by_default(self, rng):
        config = P5Config.thirty_two_bit()
        big = rng.integers(0, 256, 600, dtype="uint8").tobytes()
        rx = run_rx(good_wire(config, big), config)
        assert rx.delineator.oversize_drops == 0
        assert rx.good_frames() == [big]

    def test_bound_below_four_words_rejected(self):
        with pytest.raises(ConfigError):
            P5Config.thirty_two_bit(max_frame_octets=8)

    def test_generous_bound_passes_normal_traffic(self, rng):
        config = P5Config.thirty_two_bit(max_frame_octets=512)
        frames = [rng.integers(0, 256, n, dtype="uint8").tobytes()
                  for n in (24, 72, 128)]
        wire = b"".join(good_wire(config, f) for f in frames)
        rx = run_rx(wire, config)
        assert rx.good_frames() == frames
        assert rx.delineator.oversize_drops == 0


class TestFcsFaultRecords:
    def test_corrupt_frame_yields_typed_fcs_error(self, rng):
        config = P5Config.thirty_two_bit()
        content = rng.integers(0, 256, 40, dtype="uint8").tobytes()
        wire = bytearray(good_wire(config, content))
        # Flip one payload bit on a non-framing octet.
        for i in range(2, len(wire) - 2):
            if wire[i] not in (FLAG_OCTET, ESC_OCTET) and \
                    wire[i - 1] != ESC_OCTET:
                wire[i] ^= 0x04
                break
        rx = run_rx(bytes(wire), config)
        assert rx.crc.fcs_errors == 1
        (fault,) = [f for f in rx.faults if isinstance(f, FcsError)]
        assert fault.expected == config.fcs.residue
