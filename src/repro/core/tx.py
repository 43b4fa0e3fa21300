"""The P5 Transmitter (paper Figure 3).

Data path: **Control → CRC generate → Escape Generate → flag wrap →
PHY**.  The control unit reads assembled frame contents from the
shared transmit memory (a queue here), streams them down the pipeline
at ``W`` bytes per clock, and the flag wrapper delimits the stuffed
result on the wire.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.core.config import P5Config
from repro.core.crc_unit import CrcGenerate
from repro.core.escape_pipeline import PipelinedEscapeGenerate
from repro.hdlc.constants import FLAG_OCTET
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import Word, words_from_bytes

__all__ = ["TxFrameSource", "FlagInserter", "P5Transmitter"]


class TxFrameSource(Module):
    """Control unit + shared-memory read port.

    Frames (already-assembled PPP content: address/control/protocol/
    information) are queued by the host via :meth:`submit`; the module
    streams each as words.  The ``enabled`` flag is the OAM's
    transmitter-enable control bit.
    """

    def __init__(self, name: str, out: Channel, *, width_bytes: int) -> None:
        super().__init__(name)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.queue: Deque[bytes] = deque()
        self._words: Deque[Word] = deque()
        self.enabled = True
        self.frames_fetched = 0

    def submit(self, content: bytes) -> None:
        """Queue one frame's content for transmission."""
        if not content:
            raise ValueError("cannot transmit an empty frame")
        self.queue.append(content)

    @property
    def busy(self) -> bool:
        """Data still waiting or in flight from this module."""
        return bool(self.queue or self._words)

    @property
    def quiescent(self) -> bool:
        # Disabled, or nothing queued and nothing in flight: clocking
        # would touch no channel and no state.
        return not self.enabled or not (self.queue or self._words)

    def timing_contract(self) -> TimingContract:
        # One output register: a queued word reaches the channel on
        # the cycle it is clocked.
        return TimingContract(
            latency_cycles=1,
            outputs=(ChannelTiming(self.out),),
        )

    def clock(self) -> None:
        if not self.enabled:
            return
        if not self._words and self.queue:
            self._words.extend(
                words_from_bytes(self.queue.popleft(), self.width_bytes)
            )
            self.frames_fetched += 1
        if self._words and self.out.can_push:
            self.out.push(self._words.popleft())
        elif self._words:
            self.note_stall()


class FlagInserter(Module):
    """Wrap stuffed frames in flag octets and densify onto the wire.

    Each frame leaves as ``7E <stuffed content+FCS> 7E``; the byte
    carry keeps the wire words dense across the flag boundaries.  The
    carry is flushed at end-of-frame so a frame is never held hostage
    waiting for a successor (the partial final word simply has fewer
    valid lanes — the PHY serialises valid octets only).
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        flag_octet: int = FLAG_OCTET,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.flag_octet = flag_octet
        self._carry = b""
        self.flags_inserted = 0
        self.frames_wrapped = 0

    @property
    def quiescent(self) -> bool:
        # clock() is input-driven: with nothing to pop it returns
        # immediately, whatever the carry holds.
        return not self.inp

    def capacity_needs(self):
        # Worst case one word closes a frame: carry (<= W-1) + W new
        # octets + 2 flags must fit the output in one burst.
        w = self.width_bytes
        words = (w - 1 + w + 2 + w - 1) // w
        return [(self.out, words, "eof flush burst of the flag wrapper")]

    def timing_contract(self) -> TimingContract:
        w = self.width_bytes
        return TimingContract(
            latency_cycles=1,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Content passes through untouched; the two wrapping
                    # flags are per-frame overhead, not expansion.
                    per_frame_octets=2,
                    burst_words=(w - 1 + w + 2 + w - 1) // w,
                ),
            ),
        )

    def clock(self) -> None:
        if not self.inp:
            return
        octets, sof, eof = self.inp.peek()
        w = self.width_bytes
        total = len(self._carry) + len(octets) + bool(sof) + bool(eof)
        if self.out.capacity - len(self.out) < (total + w - 1) // w:
            self.note_stall()
            return
        self.inp.pop()
        carry = self._carry
        if sof:
            carry += bytes((self.flag_octet,))
            self.flags_inserted += 1
        carry += octets
        if eof:
            carry += bytes((self.flag_octet,))
            self.flags_inserted += 1
            self.frames_wrapped += 1
            end = len(carry)
        else:
            end = len(carry) - len(carry) % w
        for off in range(0, end, w):
            self.out.push((carry[off : off + w], False, False))
        self._carry = carry[end:]


class P5Transmitter:
    """The complete transmitter pipeline as a module/channel bundle.

    Attributes
    ----------
    modules:
        Source-to-sink ordered modules for the simulator.
    phy_out:
        The channel carrying wire words to the PHY (or the peer's
        receiver in loopback tests).
    """

    def __init__(self, config: P5Config, *, name: str = "tx") -> None:
        self.config = config
        w = config.width_bytes
        self.ch_content = Channel(f"{name}.content", capacity=2, width_bytes=w)
        # The CRC generator flushes content tail + FCS trailer in one
        # end-of-frame burst: up to (2W-1+fcs)/W + 1 words.  Size the
        # channel to absorb the burst or the generator deadlocks
        # against its own room check (acute at W=1, where the 4-octet
        # FCS alone is 4 words).
        fcs_octets = config.fcs.width // 8
        crc_burst = (2 * w - 1 + fcs_octets) // w + 2
        self.ch_crc = Channel(f"{name}.crc", capacity=max(4, crc_burst), width_bytes=w)
        self.ch_escaped = Channel(f"{name}.escaped", capacity=4, width_bytes=w)
        self.phy_out = Channel(f"{name}.phy", capacity=4, width_bytes=w)

        self.source = TxFrameSource(f"{name}.source", self.ch_content, width_bytes=w)
        self.crc = CrcGenerate(
            f"{name}.crcgen", self.ch_content, self.ch_crc,
            width_bytes=w, spec=config.fcs,
        )
        self.escape = PipelinedEscapeGenerate(
            f"{name}.escgen", self.ch_crc, self.ch_escaped,
            width_bytes=w,
            escapes=config.escape_octets,
            esc_octet=config.esc_octet,
            pipeline_stages=4 if config.width_bits > 8 else 2,
            resync_depth_words=config.resync_depth_words,
        )
        self.flags = FlagInserter(
            f"{name}.flags", self.ch_escaped, self.phy_out,
            width_bytes=w, flag_octet=config.flag_octet,
        )
        self.modules: List[Module] = [self.source, self.crc, self.escape, self.flags]
        self.channels = [self.ch_content, self.ch_crc, self.ch_escaped, self.phy_out]

    def submit(self, content: bytes) -> None:
        """Queue one frame's content (host writing shared memory)."""
        self.source.submit(content)

    @property
    def busy(self) -> bool:
        """Whether any stage still holds data (excluding phy_out)."""
        return (
            self.source.busy
            or any(self.channels[:-1])
            or not self.escape.idle
            or bool(self.crc._carry)
            or bool(self.flags._carry)
        )
