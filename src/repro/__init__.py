"""repro — a reproduction of "A Programmable and Highly Pipelined PPP
Architecture for Gigabit IP over SDH/SONET" (Toal & Sezer, IPPS 2003).

The package implements the paper's P5 packet processor as a
cycle-accurate architectural model, together with every substrate the
design depends on: the full PPP protocol suite (RFC 1661/1662 and
friends), three cross-checked CRC engines including the word-parallel
Pei–Zukowski matrices, an SDH/SONET transmission system with the
RFC 1619/2615 payload mappings, MAPOS framing, PHY error models, and
an FPGA synthesis cost model that regenerates the paper's Tables 1–3.

Quick start::

    from repro import P5Config, run_duplex_exchange
    from repro.workloads import ppp_frame_contents

    frames = ppp_frame_contents(10, seed=1)
    result = run_duplex_exchange(frames, [], P5Config.thirty_two_bit())
    assert result.all_good()

See ``examples/`` for full scenarios and ``benchmarks/`` for the
table/figure reproductions.
"""

from importlib import import_module
from typing import Any, List

from repro._version import __version__

#: Every exported name and the module that defines it.  The modules are
#: imported on first attribute access (PEP 562), so ``import repro``
#: alone loads no subpackage: a process that only uses one layer pays
#: for that layer's imports and nothing else.
_EXPORTS = {
    "ReproError": "repro.errors",
    # the P5 core
    "P5Config": "repro.core",
    "P5System": "repro.core",
    "P5Transmitter": "repro.core",
    "P5Receiver": "repro.core",
    "PipelinedEscapeGenerate": "repro.core",
    "PipelinedEscapeDetect": "repro.core",
    "ProtocolOam": "repro.core",
    "run_duplex_exchange": "repro.core",
    # CRC
    "CRC16_X25": "repro.crc",
    "CRC32": "repro.crc",
    "BitSerialCrc": "repro.crc",
    "TableCrc": "repro.crc",
    "ParallelCrc": "repro.crc",
    # HDLC
    "HdlcFramer": "repro.hdlc",
    "Delineator": "repro.hdlc",
    "stuff": "repro.hdlc",
    "unstuff": "repro.hdlc",
    # PPP
    "PPPFrame": "repro.ppp",
    "PppEndpoint": "repro.ppp",
    "connect_endpoints": "repro.ppp",
    "Lcp": "repro.ppp",
    "LcpConfig": "repro.ppp",
    "Ipcp": "repro.ppp",
    "IpcpConfig": "repro.ppp",
    # SONET
    "SonetFramer": "repro.sonet",
    "SonetRxFramer": "repro.sonet",
    "PppOverSonet": "repro.sonet",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(module), name)
    else:
        # ``repro.<subpackage>`` resolves on first access too, so
        # ``import repro; repro.rtl.Simulator`` needs no extra import.
        try:
            value = import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
