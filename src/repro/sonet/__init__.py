"""SDH/SONET transport substrate (the paper's physical layer).

The P5 targets "IP over SDH/SONET" at OC-48/STM-16; this package
supplies the transmission system the hardware would plug into,
implemented from GR-253/G.707 essentials and the PPP-over-SONET
mappings the paper cites (RFC 1619) and its successor (RFC 2615):

* :mod:`repro.sonet.framer` — STS-N/STS-Nc frame construction:
  transport overhead (A1/A2 framing, J0, B1/B2 parity, H1/H2/H3
  pointer, K1/K2), path overhead (J1, B3, C2, G1) and SPE payload
  mapping.
* :mod:`repro.sonet.rx_framer` — receive alignment: A1/A2 hunting
  with the OOF/LOF state machine, pointer interpretation, BIP error
  monitoring.
* :mod:`repro.sonet.scrambler` — the 2^7-1 frame-synchronous
  scrambler and the x^43+1 self-synchronous payload scrambler
  (RFC 2615's defence against scrambler-killer payloads).
* :mod:`repro.sonet.rates` — line-rate and efficiency arithmetic for
  OC-1 through OC-192.
"""

from repro.sonet.constants import SONET_C2_PPP, SONET_C2_PPP_SCRAMBLED
from repro.sonet.rates import StsRate, payload_capacity_bytes, rate_for
from repro.sonet.scrambler import FrameSyncScrambler, SelfSyncScrambler
from repro.sonet.framer import SonetFramer, SonetFrame
from repro.sonet.rx_framer import FramerState, SonetRxFramer
from repro.sonet.path import PppOverSonet

__all__ = [
    "SONET_C2_PPP",
    "SONET_C2_PPP_SCRAMBLED",
    "StsRate",
    "rate_for",
    "payload_capacity_bytes",
    "FrameSyncScrambler",
    "SelfSyncScrambler",
    "SonetFramer",
    "SonetFrame",
    "SonetRxFramer",
    "FramerState",
    "PppOverSonet",
]
