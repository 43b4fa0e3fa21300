"""HDLC-like framing per RFC 1662 — the layer the P5 accelerates.

* :mod:`repro.hdlc.byte_stuffing` — octet-synchronous transparency
  (flag/escape substitution), the operation the paper's Escape
  Generate / Escape Detect datapath units perform word-parallel.
* :mod:`repro.hdlc.accm` — the async control character map that makes
  additional octets escapable (LCP-negotiable).
* :mod:`repro.hdlc.encoder` — the transmit codec (FCS trailer,
  stuffing, flags), the one frame-level transmitter, configured by a
  :class:`TransmitPolicy`.
* :mod:`repro.hdlc.framer` — whole-frame encode/decode with FCS.
* :mod:`repro.hdlc.delineation` — the streaming receive codec (hunt,
  sync, destuff, FCS check; abort, runt and oversize handling), the one
  frame-level receiver, configured by a :class:`ReceivePolicy`.
"""

from repro.hdlc.constants import (
    ABORT_SEQUENCE,
    ESCAPE_XOR,
    ESC_OCTET,
    FLAG_OCTET,
)
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import unstuff
from repro.hdlc.encoder import Encoder, TransmitPolicy, escape_set, stuff, stuffed_length
from repro.hdlc.framer import DecodedFrame, HdlcFramer
from repro.hdlc.delineation import Delineator, DelineatorStats, ReceivePolicy

__all__ = [
    "FLAG_OCTET",
    "ESC_OCTET",
    "ESCAPE_XOR",
    "ABORT_SEQUENCE",
    "Accm",
    "escape_set",
    "stuff",
    "stuffed_length",
    "unstuff",
    "HdlcFramer",
    "DecodedFrame",
    "Delineator",
    "DelineatorStats",
    "ReceivePolicy",
    "Encoder",
    "TransmitPolicy",
]
