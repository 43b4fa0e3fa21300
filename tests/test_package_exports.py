"""The top-level ``repro`` namespace: lazy exports over a fixed ``__all__``."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

_PROBE = """
import json, sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
missing = [name for name in repro.__all__ if getattr(repro, name, None) is None]
subpackage = repro.rtl.Simulator.__name__
print(json.dumps({"loaded": loaded, "missing": missing, "subpackage": subpackage}))
"""


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_import_loads_no_subpackage_and_every_export_resolves():
    result = json.loads(_run(_PROBE).splitlines()[-1])
    # The probe resolves __all__ after recording what `import repro` loaded:
    # the version string and no layer (in particular not core, ppp, sonet).
    assert result["loaded"] == ["repro._version"]
    assert result["missing"] == []
    # `repro.<subpackage>` still resolves without importing it first.
    assert result["subpackage"] == "Simulator"


def test_star_import_binds_every_export():
    out = _run(
        "from repro import *\n"
        "import repro\n"
        "print(all(name in globals() for name in repro.__all__))"
    )
    assert out.strip() == "True"


def test_exports_are_the_defining_objects():
    from repro.core import P5Config
    from repro.crc import TableCrc
    from repro.sonet import PppOverSonet

    assert repro.P5Config is P5Config
    assert repro.TableCrc is TableCrc
    assert repro.PppOverSonet is PppOverSonet
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_cycle_engine_runs_without_importing_numpy():
    """The cycle engine's import path and a 24-frame batch leave numpy unloaded."""
    code = (
        "import json, sys\n"
        "from repro.core.p5 import P5System, PhyWire\n"
        "from repro.rtl.simulator import Simulator\n"
        "system = P5System(name='probe')\n"
        "wire = PhyWire('probe.wire', system.tx.phy_out, system.rx.phy_in)\n"
        "sim = Simulator(system.tx.modules + [wire] + system.rx.modules, system.channels)\n"
        "frames = [bytes([0xFF, 0x03, 0x00, 0x21]) + bytes(range(n % 256)) * (n // 64 + 1)\n"
        "          for n in range(40, 40 + 24 * 61, 61)]\n"
        "for content in frames:\n"
        "    system.submit(content)\n"
        "sim.run_until(lambda: len(system.received()) >= 24 and system.idle(), timeout=10**6)\n"
        "print(json.dumps({'good': sum(ok for _, ok in system.received()),\n"
        "                  'numpy': 'numpy' in sys.modules}))\n"
    )
    result = json.loads(_run(code).splitlines()[-1])
    assert result == {"good": 24, "numpy": False}


def test_line_paths_run_without_the_cycle_engine():
    """PoS and GFP over SONET import and run without repro.rtl or repro.core."""
    code = (
        "import json, sys\n"
        "from repro.sonet.path import GfpOverSonet, PppOverSonet\n"
        "import repro.gfp\n"
        "frames = [bytes([0xFF, 0x03, 0x00, 0x21]) + bytes(range(n)) for n in (40, 200, 7)] * 3\n"
        "recovered = []\n"
        "for path in (PppOverSonet, GfpOverSonet):\n"
        "    tx, rx = path(48), path(48)\n"
        "    for content in frames:\n"
        "        tx.queue_frame(content)\n"
        "    got = []\n"
        "    for _ in range(3):\n"
        "        got += rx.receive_line(tx.next_line_frame())\n"
        "    recovered.append(got == frames)\n"
        "print(json.dumps({'recovered': recovered, 'loaded': sorted(\n"
        "    m for m in sys.modules if m.startswith(('repro.rtl', 'repro.core')))}))\n"
    )
    result = json.loads(_run(code).splitlines()[-1])
    assert result == {"recovered": [True, True], "loaded": []}
