"""The streaming RFC 1662 receive codec: hunt, delineate, destuff, check.

Real receivers see an unaligned octet stream (possibly mid-frame at
power-up, possibly corrupted).  The :class:`Delineator` consumes that
stream, exactly like the P5 receiver's front end consumes the PHY
stream, and emits decoded frames while accounting every discard reason
in :class:`DelineatorStats` — the counters the Protocol OAM block
exposes to the host microprocessor.

It is the one frame-level receiver: the fastpath's
``decode_stream``, :class:`~repro.hdlc.framer.HdlcFramer`'s decoders,
:func:`~repro.hdlc.byte_stuffing.unstuff`, PPP over SONET,
``ppp.session`` and the resilience guard all run it.  Where those
callers want different behaviour, a :class:`ReceivePolicy` names the
choice.

:meth:`Delineator.push_bytes` carries the open frame body across
calls and does O(n) work per call: ``split`` on the flag,
:func:`~repro.hdlc.byte_stuffing.destuff` per body, and the CRC
engine's one-shot kernel for the residue.  :meth:`Delineator.push` is
the readable one-octet reference the tests hold it to; it decodes
bodies with ``_unstuff_scalar`` and compares the FCS by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple

from repro.crc import CRC32, CrcSpec
from repro.crc.table import TableCrc
from repro.errors import FramingError
from repro.hdlc.byte_stuffing import _unstuff_scalar, check_framing_octets, destuff, unstuff_pairs
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

__all__ = ["ReceivePolicy", "Delineator", "DelineatorStats"]


@dataclass(frozen=True)
class ReceivePolicy:
    """The receive choices on which the codec's callers differ.

    The defaults are RFC 1662 as :class:`~repro.hdlc.framer.HdlcFramer`
    applies it; the fastpath sets every field from its ``P5Config`` to
    mirror the cycle receiver.  Two rules hold under every policy and
    so are not fields: a body ending in the escape octet is an abort,
    and a body that destuffs to no more than the FCS is a runt.

    Attributes
    ----------
    fcs:
        The FCS every frame is checked against (16 or 32 bits).
    reject_escape_pairs:
        ``7D 7D``, which no conforming sender produces.  ``True``: the
        body is a framing error (``HdlcFramer``).  ``False``: it is
        decoded by run parity, the pair becoming ``5D``, and the FCS
        decides (the cycle receiver and the fastpath).
    max_frame_octets:
        Cut limit in stuffed body octets (the cycle receiver's rule).
        On its (max+1)-th octet a body is counted oversize, that prefix
        is force-closed as a frame (destuffed and FCS-checked, with no
        abort check) and the receiver re-hunts; the rest of the body
        is hunt discard.  ``0``: no cut.
    max_content:
        Drop limit in decoded content octets (the MRU guard of
        ``HdlcFramer`` and LCP): a longer frame is counted oversize and
        dropped.  Without a cut, a body that grows past the longest
        stuffed form such a frame can have, ``2 * (max_content + FCS
        octets)``, is counted oversize at once and the receiver
        re-hunts, so the rest of it is hunt discard.  ``0``: no drop.
        At most one of the two limits may be set.
    flag_octet, esc_octet:
        The framing octets (programmable in ``P5Config``).
    """

    fcs: CrcSpec = CRC32
    reject_escape_pairs: bool = True
    max_frame_octets: int = 0
    max_content: int = 1500 + 8
    flag_octet: int = FLAG_OCTET
    esc_octet: int = ESC_OCTET

    def __post_init__(self) -> None:
        if self.max_frame_octets < 0 or self.max_content < 0:
            raise ValueError("size limits must be >= 0")
        if self.max_frame_octets and self.max_content:
            # A cut prefix would be judged by both and counted twice.
            raise ValueError("set one size limit: max_frame_octets (cut) or max_content (drop)")
        check_framing_octets(self.flag_octet, self.esc_octet)

    @property
    def fcs_octets(self) -> int:
        return self.fcs.width // 8

    @property
    def carry_limit(self) -> int:
        """The longest body the receiver carries open (``0``: unlimited)."""
        if self.max_frame_octets:
            return self.max_frame_octets
        if self.max_content:
            return 2 * (self.max_content + self.fcs_octets)
        return 0


@dataclass
class DelineatorStats:
    """Receive-side event counters (mirrored into the OAM register map)."""

    frames_ok: int = 0
    fcs_errors: int = 0
    aborts: int = 0
    runts: int = 0
    oversize: int = 0
    framing_errors: int = 0
    octets_in: int = 0
    octets_discarded_hunting: int = 0
    #: Flag-to-flag gaps with nothing in them (inter-frame idle).
    empty_bodies: int = 0
    #: Escape octets removed by destuffing (the ``ESC_DELETED`` register).
    octets_deleted: int = 0

    def total_errors(self) -> int:
        """All discarded-frame events combined."""
        return (
            self.fcs_errors
            + self.aborts
            + self.runts
            + self.oversize
            + self.framing_errors
        )


@lru_cache(maxsize=None)
def _crc_kernel(spec: CrcSpec) -> Callable[[bytes], int]:
    return TableCrc(spec).crc_of


class Delineator:
    """Octet-streaming HDLC receive codec.

    Feed octets with :meth:`push_bytes` (or the reference
    :meth:`push`); completed frames are returned as ``(content,
    fcs_good)``.  The machine starts in *hunt* state and discards
    octets until the first flag, as hardware must after power-up or
    loss of synchronisation.  The only state carried between calls is
    the open frame body, which a size-limited policy keeps within
    :attr:`ReceivePolicy.carry_limit`.
    """

    def __init__(self, policy: ReceivePolicy = ReceivePolicy()) -> None:
        #: Reprogrammable at any time (an OAM register write): the open
        #: body is kept and the next octets are judged under the new
        #: policy.
        self.policy = policy
        self.stats = DelineatorStats()
        self._synced = False
        self._body = bytearray()

    @property
    def in_sync(self) -> bool:
        """Whether a flag has been seen since the last loss of sync."""
        return self._synced

    # ----------------------------------------------------------- the codec
    def push_bytes(self, data: Iterable[int]) -> List[Tuple[bytes, bool]]:
        """Consume a buffer; return every frame it completed.

        Each frame is ``(content, fcs_good)``: frames failing their FCS
        are returned too, marked ``False``.  Equivalent to :meth:`push`
        on each octet, counters included.
        """
        data = bytes(data)
        stats = self.stats
        stats.octets_in += len(data)
        frames: List[Tuple[bytes, bool]] = []
        policy = self.policy
        pieces = data.split(bytes([policy.flag_octet]))
        if not self._synced:
            # Everything before the first flag is hunt discard; the
            # flag opens a body.
            stats.octets_discarded_hunting += len(pieces[0])
            if len(pieces) == 1:
                return frames
            del pieces[0]
            self._synced = True
        limit = policy.carry_limit
        # Every piece but the last closes a body (the first continuing
        # the carried one); the last stays open unless over the limit.
        self._body += pieces[0]
        if len(pieces) == 1 and not (limit and len(self._body) > limit):
            return frames
        pieces[0] = bytes(self._body)
        if len(pieces) > 1 and not (limit and len(pieces[-1]) > limit):
            self._body = bytearray(pieces.pop())
        else:
            # The open body outgrew the limit: it is judged now, like a
            # closed one, and the receiver re-hunts.
            self._body = bytearray()
            self._synced = False

        esc = bytes([policy.esc_octet])
        esc_octet = policy.esc_octet
        pairs = unstuff_pairs(policy.flag_octet, esc_octet)
        cut = policy.max_frame_octets
        max_content = policy.max_content
        reject = policy.reject_escape_pairs
        fcs_octets = policy.fcs_octets
        crc_of = _crc_kernel(policy.fcs)
        # A good frame's CRC over content + FCS is the magic residue
        # with xorout applied.
        good_crc = policy.fcs.residue ^ policy.fcs.xorout
        stats.empty_bodies += pieces.count(b"")
        for body in filter(None, pieces):
            if limit and len(body) > limit:
                # Counted on the limit's next octet; the rest of the
                # body is hunt discard.
                stats.oversize += 1
                stats.octets_discarded_hunting += len(body) - limit - 1
                if not cut:
                    continue
                # The cut prefix is force-closed as a frame, with no
                # abort check: the cut is forced by count.
                body = body[: cut + 1]
            elif body[-1] == esc_octet:
                stats.aborts += 1
                continue
            escapes = body.count(esc)
            if escapes:
                clear = destuff(body, escapes, pairs, esc)
                deleted = len(body) - len(clear)
                if reject and deleted != escapes:
                    # Run parity keeps the second escape of each 7D 7D.
                    stats.framing_errors += 1
                    continue
                stats.octets_deleted += deleted
            else:
                clear = body
            if len(clear) <= fcs_octets:
                stats.runts += 1
                continue
            if max_content and len(clear) - fcs_octets > max_content:
                stats.oversize += 1
                continue
            good = crc_of(clear) == good_crc
            if good:
                stats.frames_ok += 1
            else:
                stats.fcs_errors += 1
            frames.append((clear[:-fcs_octets], good))
        return frames

    def open_frame(self) -> bytes:
        """The open frame with its opening flag (empty while hunting).

        What a receiver taking over mid-stream must be handed so that
        the frame in flight is not lost.
        """
        if not self._synced:
            return b""
        return bytes([self.policy.flag_octet]) + self._body

    def flush(self) -> None:
        """Drop any partial frame (e.g. on link down) and resync."""
        if self._body:
            self.stats.framing_errors += 1
            self._body.clear()
        self._synced = False

    # ------------------------------------------------------- the reference
    def push(self, octet: int) -> Optional[Tuple[bytes, bool]]:
        """Consume one octet; return the frame it completed, if any.

        The readable reference for :meth:`push_bytes`: the same state
        machine octet by octet, each body decoded by ``_unstuff_scalar``
        and its FCS compared by value.
        """
        policy = self.policy
        stats = self.stats
        stats.octets_in += 1
        if not self._synced:
            if octet == policy.flag_octet:
                self._synced = True
            else:
                stats.octets_discarded_hunting += 1
            return None
        if octet == policy.flag_octet:
            if not self._body:
                stats.empty_bodies += 1
                return None
            return self._close_reference(forced=False)
        self._body.append(octet)
        limit = policy.carry_limit
        if not limit or len(self._body) <= limit:
            return None
        stats.oversize += 1
        self._synced = False
        if policy.max_frame_octets:
            return self._close_reference(forced=True)
        self._body.clear()
        return None

    def _close_reference(self, *, forced: bool) -> Optional[Tuple[bytes, bool]]:
        policy = self.policy
        stats = self.stats
        body = bytes(self._body)
        self._body.clear()
        esc = bytes([policy.esc_octet])
        readable = body
        if forced:
            if (len(body) - len(body.rstrip(esc))) % 2:
                # A cut can leave an escape with nothing after it; the
                # cycle receiver deletes it.
                readable = body[:-1]
        elif body.endswith(esc):
            stats.aborts += 1
            return None
        try:
            clear = _unstuff_scalar(
                readable,
                strict=policy.reject_escape_pairs,
                flag=policy.flag_octet,
                esc=policy.esc_octet,
            )
        except FramingError:
            stats.framing_errors += 1
            return None
        stats.octets_deleted += len(body) - len(clear)
        fcs_octets = policy.fcs_octets
        if len(clear) <= fcs_octets:
            stats.runts += 1
            return None
        content, trailer = clear[:-fcs_octets], clear[-fcs_octets:]
        if policy.max_content and len(content) > policy.max_content:
            stats.oversize += 1
            return None
        good = int.from_bytes(trailer, "little") == _crc_kernel(policy.fcs)(content)
        if good:
            stats.frames_ok += 1
        else:
            stats.fcs_errors += 1
        return content, good
