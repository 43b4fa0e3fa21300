"""CRC engines for the P5 datapath.

Three interchangeable implementations of the same specification:

* :mod:`repro.crc.bitserial` — the textbook LFSR, one bit per step.
  Slow, but trivially correct; the golden model.
* :mod:`repro.crc.table` — classic 256-entry byte table.
* :mod:`repro.crc.matrix` / :mod:`repro.crc.parallel` — the
  Pei–Zukowski word-parallel formulation the paper's hardware uses:
  the CRC register update over ``W`` input bits is a GF(2)-linear map
  ``S' = F_W . S  xor  H_W . D`` realised as two XOR matrices.  The
  8-bit P5 uses the 8 x 32 form, the 32-bit P5 the 32 x 32 form.

All three are cross-checked against each other and against published
check values in the test suite.

The matrix formulation is built on numpy and is imported on first
access (PEP 562): the datapaths run :class:`TableCrc`, so importing
``repro.crc`` for a spec or the table engine does not load numpy.
"""

from importlib import import_module
from typing import Any

from repro.crc.polynomial import (
    CRC16_CCITT_FALSE,
    CRC16_KERMIT,
    CRC16_X25,
    CRC16_XMODEM,
    CRC32,
    CRC8,
    CrcSpec,
    get_spec,
    registered_specs,
)
from repro.crc.bitserial import BitSerialCrc
from repro.crc.table import TableCrc

#: The numpy-backed names and the modules that define them.
_LAZY = {
    "CrcMatrices": "repro.crc.matrix",
    "build_matrices": "repro.crc.matrix",
    "ParallelCrc": "repro.crc.parallel",
}

__all__ = [
    "CrcSpec",
    "CRC8",
    "CRC16_CCITT_FALSE",
    "CRC16_KERMIT",
    "CRC16_XMODEM",
    "CRC16_X25",
    "CRC32",
    "get_spec",
    "registered_specs",
    "BitSerialCrc",
    "TableCrc",
    "CrcMatrices",
    "build_matrices",
    "ParallelCrc",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.crc' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
