"""The traced pass: spans around each layer's public functions, per-layer metrics.

The wrappers are installed from here, on the classes, for the length
of one pass and then removed; nothing inside ``src/repro`` changes.
Every layer is wrapped on every workload, so a layer a workload does
not use reads zero — the "predicted no change" rows of the
interaction map are checked, not assumed.

The traced pass builds its engines afresh, so it covers construction,
the warm-up call (where lazy caches such as the SONET frame-sync
keystream fill) and one pass over the frame pool: a fixed amount of
work for a given seed, whatever the host's speed.  Self times and
counts both cover that pass.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

import loops
from spans import Target, Tracer

#: Layer functions timed by self time: (metric stem, module, class, attribute).
SELF_TIMED = (
    ("fastpath.encode_frames", "repro.fastpath.engine", "FastpathEngine", "encode_frames"),
    ("fastpath.fcs_of", "repro.fastpath.engine", "FastpathEngine", "fcs_of"),
    ("fastpath.decode_stream", "repro.fastpath.engine", "FastpathEngine", "decode_stream"),
    ("sonet.scramble", "repro.sonet.scrambler", "SelfSyncScrambler", "scramble"),
    ("sonet.descramble", "repro.sonet.scrambler", "SelfSyncScrambler", "descramble"),
    ("sonet.framer_build", "repro.sonet.framer", "SonetFramer", "build"),
    ("sonet.rx_feed", "repro.sonet.rx_framer", "SonetRxFramer", "feed"),
    ("sonet.keystream", "repro.sonet.scrambler", "FrameSyncScrambler", "sequence"),
    ("crc.table_init", "repro.crc.table", "TableCrc", "__init__"),
    ("crc.table_update", "repro.crc.table", "TableCrc", "update"),
    ("hdlc.encode", "repro.hdlc.framer", "HdlcFramer", "encode"),
    ("hdlc.delineator", "repro.hdlc.delineation", "Delineator", "push_bytes"),
    ("gfp.frame_encode", "repro.gfp.frame", "GfpFrame", "encode"),
    ("gfp.delineator_feed", "repro.gfp.delineator", "GfpDelineator", "feed"),
    ("rtl.step", "repro.rtl.simulator", "Simulator", "step"),
)

#: Where each core module class is defined.
CORE_MODULES = {
    "TxFrameSource": "repro.core.tx",
    "CrcGenerate": "repro.core.crc_unit",
    "PipelinedEscapeGenerate": "repro.core.escape_pipeline",
    "FlagInserter": "repro.core.tx",
    "PhyWire": "repro.core.p5",
    "WordDelineator": "repro.core.rx",
    "PipelinedEscapeDetect": "repro.core.escape_pipeline",
    "CrcCheck": "repro.core.crc_unit",
    "RxFrameSink": "repro.core.rx",
}


def _count_encode(counts: Dict[str, float], args: tuple, result) -> None:
    counts["fastpath.content_octets_in"] += result.content_octets
    counts["fastpath.line_octets"] += result.line_octets
    counts["fastpath.octets_escaped"] += result.octets_escaped


def _count_decode(counts: Dict[str, float], args: tuple, result) -> None:
    counts["fastpath.octets_deleted"] += result.octets_deleted
    counts["fastpath.content_octets_out"] += sum(len(c) for c, ok in result.frames if ok)


def _count_update(counts: Dict[str, float], args: tuple, result) -> None:
    counts["crc.table_update.octets"] += len(args[1])


HOOKS = {
    "fastpath.encode_frames": _count_encode,
    "fastpath.decode_stream": _count_decode,
    "crc.table_update": _count_update,
}


def _class(module: str, name: str) -> type:
    import importlib

    return getattr(importlib.import_module(module), name)


def targets() -> List[Target]:
    """Every wrapped function of every layer (``repro`` must be importable)."""
    out: List[Target] = [
        (_class(module, cls), attr, stem, HOOKS.get(stem))
        for stem, module, cls, attr in SELF_TIMED
    ]
    out += [
        (_class(module, cls), "clock", f"core.{cls}.clock", None)
        for cls, module in CORE_MODULES.items()
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, exact: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (zero where a layer idled)."""
    m: Dict[str, float] = {}
    for stem, *_ in SELF_TIMED:
        m[f"{stem}.self_s"] = tracer.self_s.get(stem, 0.0)
    c = tracer.counts
    m["fastpath.fcs_of.calls"] = tracer.calls.get("fastpath.fcs_of", 0)
    m["fastpath.encode_frames.mb_s"] = _ratio(
        c["fastpath.content_octets_in"] / 1e6, tracer.total_s.get("fastpath.encode_frames", 0.0)
    )
    m["fastpath.decode_stream.mb_s"] = _ratio(
        c["fastpath.content_octets_out"] / 1e6, tracer.total_s.get("fastpath.decode_stream", 0.0)
    )
    m["fastpath.octets_escaped"] = c["fastpath.octets_escaped"]
    m["fastpath.octets_deleted"] = c["fastpath.octets_deleted"]
    m["fastpath.expansion_ratio"] = _ratio(
        c["fastpath.line_octets"], c["fastpath.content_octets_in"]
    )
    m["crc.table_init.calls"] = tracer.calls.get("crc.table_init", 0)
    m["crc.table_update.octets"] = c["crc.table_update.octets"]
    for cls in CORE_MODULES:
        m[f"core.{cls}.clock_s"] = tracer.self_s.get(f"core.{cls}.clock", 0.0)
        m[f"core.{cls}.stalled_cycles"] = 0
    for name in (
        "sonet.line_frames", "sonet.rx_errors", "hdlc.frames_ok", "hdlc.errors",
        "gfp.frames_ok", "gfp.idle_frames", "gfp.errors", "rtl.sim_cycles",
        "rtl.channel_pushes",
        # Measured in the untraced loop; the worker fills them in.
        "sonet.path.pos_goodput_mb_s", "sonet.path.gfp_goodput_mb_s", "rtl.cycles_per_s",
    ):
        m[name] = 0
    m.update(exact)
    return m


def traced_pass(
    workload: str,
    untraced: loops.Loop,
    tally: loops.Tally,
    *,
    spans_out: Optional[str] = None,
) -> Dict[str, float]:
    """Run one traced pass on fresh engines; gate it into ``tally``.

    The fresh loop inherits the untraced loop's exact simulated
    counts, so tracing that changed what the simulator does would fail
    the gate.  Returns the per-layer metrics plus
    ``bench.traced_goodput_mb_s``, the median per-call goodput with the
    spans on.
    """
    tracer = Tracer()
    restore = tracer.install(targets())
    clock = time.perf_counter
    try:
        loop = loops.make_loop(workload, untraced.pool)
        loop.import_modules()
        loop.repeat_counts = untraced.repeat_counts
        with tracer.span("bench.construct"):
            loop.construct()
        t0 = clock()
        with tracer.span("bench.warmup"):
            output = loop.call(0)
        loop.check(0, output, tally, clock() - t0)
        rates = []
        for i in range(1, loop.calls_per_pass + 1):
            t0 = clock()
            with tracer.span("bench.call"):
                output = loop.call(i)
            elapsed = clock() - t0
            rates.append(loop.check(i, output, tally, elapsed) / elapsed / 1e6)
    finally:
        restore()
    if spans_out:
        tracer.write(spans_out)
    metrics = layer_metrics(tracer, loop.exact_counts())
    metrics["bench.traced_goodput_mb_s"] = statistics.median(rates)
    return metrics
