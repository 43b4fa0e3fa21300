"""The four workloads: how each one calls the program and checks what comes back.

A :class:`Loop` owns one closed loop: one caller, no threads, each call made
after the previous one returns.  ``call(i)`` is the only code inside
the timed region; ``check(i, output, tally)`` runs outside it and is
the correctness gate — every offered frame must come back FCS-good,
byte-identical and in order, and every error counter the layers keep
must stay at zero.  Whatever the gate finds is recorded in a
:class:`Tally`, never dropped.

``repro`` is imported only inside :meth:`Loop.import_modules`, which
the worker times as part of set-up.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Sequence, Tuple

#: OC-48 line rate in MB/s (2.5 Gbit/s), the base of every line-rate fraction.
OC48_MB_S = 312.5

#: STS level of every SONET path here: STS-48c, the paper's OC-48 target.
STS_LEVEL = 48

#: Frames in the seeded pool each workload's generator makes.  A pool
#: is cycled through; the pos pools span several calls so that the
#: IMIX mix averages out between seeds, the cycle pool is small enough
#: that every batch repeats within one run (the repeat check needs it).
POOL_FRAMES = {
    "pos-imix": 6000,
    "pos-allflags": 6000,
    "cycle-imix": 288,
    "gfp-vs-pos": 2400,
}

#: Frames of the pos pool the differential harness checks against the
#: cycle engine (a fixed seeded slice: the first frames of the pool).
DIFFERENTIAL_FRAMES = 24


@dataclass
class Tally:
    """Frames offered and frames the gate found not delivered intact."""

    offered: int = 0
    failed: int = 0
    findings: List[str] = field(default_factory=list)

    def record(self, where: str, offered: int, lost: int, errors: int) -> None:
        """Count one checked unit of work.

        ``lost`` is offered frames missing, damaged or out of order;
        ``errors`` is error events the layers counted.  A damaged frame
        usually shows as both, so the larger of the two is the failure
        count: no failure goes uncounted and none twice.
        """
        self.offered += offered
        failed = max(lost, errors)
        if failed:
            self.failed += failed
            self.findings.append(f"{where}: {lost} frames lost, {errors} error events")

    def merge(self, other: "Tally") -> None:
        self.offered += other.offered
        self.failed += other.failed
        self.findings.extend(other.findings)


def match_in_order(offered: Deque[bytes], delivered: Sequence[bytes]) -> Tuple[int, int]:
    """Consume ``offered`` against ``delivered``; return (intact octets, failures).

    Each delivered frame must be the oldest offered one.  Offered frames
    skipped over count as lost; a delivered frame that was never offered
    (a corruption the FCS missed, or a duplicate) counts too.  Frames
    left in ``offered`` are still in flight.
    """
    octets = failures = 0
    for frame in delivered:
        if offered and offered[0] == frame:
            offered.popleft()
            octets += len(frame)
            continue
        skipped = next((k for k, c in enumerate(offered) if c == frame), None)
        if skipped is None:
            failures += 1
            continue
        for _ in range(skipped):
            offered.popleft()
        offered.popleft()
        failures += skipped
        octets += len(frame)
    return octets, failures


def flip_middle_bit(line: bytes) -> bytes:
    """``line`` with the low bit of its middle octet inverted."""
    damaged = bytearray(line)
    damaged[len(damaged) // 2] ^= 0x01
    return bytes(damaged)


def sonet_error_events(counters) -> int:
    """Error events in a SONET ``RxCounters`` (hunting counts once)."""
    return (
        counters.oof_events
        + counters.lof_events
        + counters.b1_errors
        + counters.b2_errors
        + counters.b3_errors
        + counters.pointer_invalid
        + counters.c2_mismatches
        + (1 if counters.bytes_discarded_hunting else 0)
    )


def split_by_octets(pool: Sequence[bytes], target: int) -> List[List[bytes]]:
    """Cut ``pool`` into consecutive batches of at most ``target`` octets.

    Each batch stops before the frame that would overflow it, so all
    batches are within one frame of ``target``: no call carries much
    more work (or memory) than another.  The frames left over at the
    end, too few for a whole batch, are not used.
    """
    batches: List[List[bytes]] = []
    batch: List[bytes] = []
    octets = 0
    for content in pool:
        if batch and octets + len(content) > target:
            batches.append(batch)
            batch, octets = [], 0
        batch.append(content)
        octets += len(content)
    return batches


class Loop:
    """One workload's closed loop (see the module docstring)."""

    #: Calls in one pass over the pool; the traced run makes one pass.
    calls_per_pass = 1

    def __init__(self, pool: Sequence[bytes]) -> None:
        self.pool = list(pool)
        #: Per-call rates of single layers, keyed by metric name.
        self.layer_rates: Dict[str, List[float]] = {}
        #: Exact simulated counts per batch, the first time it ran; a
        #: later run of the batch, traced or not, must match them.
        self.repeat_counts: Dict[int, tuple] = {}

    def import_modules(self) -> None:
        raise NotImplementedError

    def construct(self) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output, tally: Tally, seconds: float) -> int:
        """Gate one call's output; return the content octets delivered intact.

        ``seconds`` is the call's timed duration, for per-layer rates.
        """
        raise NotImplementedError

    def _rate(self, name: str, value: float) -> None:
        self.layer_rates.setdefault(name, []).append(value)

    def canary(self, tally: Tally) -> None:
        """One call with one bit flipped on the line, gated into ``tally``."""
        raise NotImplementedError

    def differential(self, tally: Tally) -> None:
        """Cross-check against the golden cycle engine (where it applies)."""

    def exact_counts(self) -> Dict[str, float]:
        """Counters the layers keep, read from this loop's own objects."""
        return {}


# ---------------------------------------------------------------------------
# pos-imix / pos-allflags: the fastpath PPP-over-SONET round trip


class PosLoop(Loop):
    """``SonetFastpath(48)``: encode a batch to SONET line frames, decode it back.

    Each call carries several whole STS-48c frames of traffic; the
    batch is cut from the pool by content octets so calls are alike.
    """

    def __init__(self, pool: Sequence[bytes], batch_octets: int) -> None:
        super().__init__(pool)
        self.batches = split_by_octets(self.pool, batch_octets)
        self.calls_per_pass = len(self.batches)

    def import_modules(self) -> None:
        import repro  # noqa: F401
        from repro.fastpath import SonetFastpath

        self._cls = SonetFastpath

    def construct(self) -> None:
        self.path = self._cls(STS_LEVEL)
        self._sonet_errors = 0

    def _batch(self, i: int) -> List[bytes]:
        return self.batches[i % len(self.batches)]

    def call(self, i: int):
        return self.path.decode(self.path.encode(self._batch(i)))

    def check(self, i: int, output, tally: Tally, seconds: float) -> int:
        batch = self._batch(i)
        rx = output.rx
        offered = deque(batch)
        octets, lost = match_in_order(offered, rx.good_frames())
        lost += len(offered)
        sonet_now = sonet_error_events(self.path.rx_framer.counters)
        errors = (
            rx.fcs_errors
            + rx.aborts
            + rx.runt_frames
            + rx.oversize_drops
            + (1 if rx.octets_discarded_hunting else 0)
            + (1 if rx.open_tail_octets else 0)
            + sonet_now
            - self._sonet_errors
        )
        self._sonet_errors = sonet_now
        tally.record(f"call {i}", len(batch), lost, errors)
        return octets

    def canary(self, tally: Tally) -> None:
        batch = self._batch(0)
        lines = self.path.encode(batch)
        lines[0] = flip_middle_bit(lines[0])
        self.check(0, self.path.decode(lines), tally, 0.0)

    def differential(self, tally: Tally) -> None:
        from repro.core.config import P5Config
        from repro.fastpath import DifferentialHarness

        frames = self.pool[:DIFFERENTIAL_FRAMES]
        report = DifferentialHarness(P5Config()).run(frames)
        tally.record("differential", len(frames), 0, len(report.mismatches))
        tally.findings.extend(f"differential: {m}" for m in report.mismatches)

    def exact_counts(self) -> Dict[str, float]:
        return {
            "sonet.line_frames": self.path.framer.frames_built,
            "sonet.rx_errors": sonet_error_events(self.path.rx_framer.counters),
        }


# ---------------------------------------------------------------------------
# cycle-imix: the cycle-accurate 32-bit P5 loopback

#: OAM registers that must not move on a clean line.
_OAM_ERROR_REGISTERS = (
    "ADDR_RX_FCS_ERRORS",
    "ADDR_RX_RUNTS",
    "ADDR_RX_HUNT_DISCARDS",
    "ADDR_DANGLING_ESCAPES",
    "ADDR_RX_ABORTS",
    "ADDR_RX_OVERSIZE",
    "ADDR_RESYNC_DROPS_RX",
)


class CycleLoop(Loop):
    """``P5System`` TX -> ``PhyWire`` -> RX, driven by ``Simulator.run_until``.

    One persistent system; each call submits one batch and runs until
    the batch has landed in receive memory and the pipeline is idle.
    The simulated counts of a batch (cycles, channel pushes, stalls per
    module) must repeat exactly every time the batch comes round.
    """

    batch_frames = 24

    def __init__(self, pool: Sequence[bytes]) -> None:
        super().__init__(pool)
        n = self.batch_frames
        self.batches = [self.pool[k : k + n] for k in range(0, len(self.pool), n)]
        self.calls_per_pass = len(self.batches)

    def import_modules(self) -> None:
        import repro  # noqa: F401
        from repro.core import oam
        from repro.core.p5 import P5System, PhyWire
        from repro.rtl.simulator import Simulator

        self._classes = (P5System, PhyWire, Simulator)
        self._oam_registers = [getattr(oam, name) for name in _OAM_ERROR_REGISTERS]

    def construct(self) -> None:
        P5System, PhyWire, Simulator = self._classes
        self.system = P5System(name="bench")
        self.wire = PhyWire("bench.wire", self.system.tx.phy_out, self.system.rx.phy_in)
        self.sim = Simulator(
            self.system.tx.modules + [self.wire] + self.system.rx.modules,
            self.system.channels,
        )
        self._mark = self._counts()

    def _counts(self) -> tuple:
        return (
            self.sim.cycle,
            sum(ch.pushes for ch in self.system.channels),
            tuple(m.stalled_cycles for m in self.sim.modules),
            len(self.system.received()),
            tuple(self.system.oam.read(a) for a in self._oam_registers),
        )

    def _batch(self, i: int) -> List[bytes]:
        return self.batches[i % len(self.batches)]

    def call(self, i: int, *, until_idle: bool = False):
        system = self.system
        batch = self._batch(i)
        target = len(system.received()) + len(batch)
        for content in batch:
            system.submit(content)
        if until_idle:
            condition = system.idle
        else:
            def condition() -> bool:
                return len(system.received()) >= target and system.idle()
        self.sim.run_until(condition, timeout=8 * sum(map(len, batch)) + 10_000)
        return None

    def check(self, i: int, output, tally: Tally, seconds: float) -> int:
        batch = self._batch(i)
        before, now = self._mark, self._counts()
        self._mark = now
        landed = self.system.received()[before[3] : now[3]]
        offered = deque(batch)
        octets, lost = match_in_order(offered, [c for c, ok in landed if ok])
        lost += len(offered)
        errors = sum(b - a for a, b in zip(before[4], now[4]))
        tally.record(f"call {i}", len(batch), lost, errors)
        sim_counts = (
            now[0] - before[0],
            now[1] - before[1],
            tuple(b - a for a, b in zip(before[2], now[2])),
        )
        if seconds:
            self._rate("rtl.cycles_per_s", sim_counts[0] / seconds)
        key = i % len(self.batches)
        first = self.repeat_counts.setdefault(key, sim_counts)
        if sim_counts != first:
            tally.record(f"call {i}: simulated counts {sim_counts} != {first}", 0, 0, 1)
        return octets

    def canary(self, tally: Tally) -> None:
        seen = itertools.count()

        def flip(beat):
            if next(seen) != 100:
                return beat
            lanes = list(beat.lanes)
            lanes[0] ^= 0x01
            return dataclasses.replace(beat, lanes=tuple(lanes))

        self.wire.corrupt = flip
        try:
            self.call(0, until_idle=True)
            self.sim.drain()
        finally:
            self.wire.corrupt = None
        # The damaged call's simulated counts are not a repeat of batch 0.
        reference, self.repeat_counts = self.repeat_counts, {}
        try:
            self.check(0, None, tally, 0.0)
        finally:
            self.repeat_counts = reference

    def exact_counts(self) -> Dict[str, float]:
        counts: Dict[str, float] = {
            "rtl.sim_cycles": self.sim.cycle,
            "rtl.channel_pushes": sum(ch.pushes for ch in self.system.channels),
        }
        for module in self.sim.modules:
            counts[f"core.{type(module).__name__}.stalled_cycles"] = module.stalled_cycles
        return counts


# ---------------------------------------------------------------------------
# gfp-vs-pos: the behavioural PPP-over-SONET and GFP-over-SONET paths


class _LineHalf:
    """One behavioural path fed one 125 us line frame per call.

    The TX queue is topped up before every line frame so the frame is
    full of traffic (no flag or GFP idle fill).  Frames queued but not
    yet delivered at the end of a run are in flight: neither goodput
    nor loss.
    """

    def __init__(self, path, pool: Sequence[bytes]) -> None:
        self.path = path
        self.need = path.framer.payload_bytes_per_frame
        self.source: Iterator[bytes] = itertools.cycle(pool)
        self.offered: Deque[bytes] = deque()
        self.unpulled: Deque[int] = deque()
        self.unpulled_octets = 0
        self.errors = 0

    def line_frame(self) -> bytes:
        path = self.path
        while self.unpulled_octets < self.need:
            content = next(self.source)
            path.queue_frame(content)
            self.offered.append(content)
            self.unpulled.append(len(content))
            self.unpulled_octets += len(content)
        line = path.next_line_frame()
        while len(self.unpulled) > path.tx_backlog_frames:
            self.unpulled_octets -= self.unpulled.popleft()
        return line


class GfpVsPosLoop(Loop):
    """``PppOverSonet(48)`` and ``GfpOverSonet(48)``, one line frame each per call."""

    calls_per_pass = 6

    def import_modules(self) -> None:
        import repro  # noqa: F401
        from repro.sonet.path import GfpOverSonet, PppOverSonet

        self._classes = (PppOverSonet, GfpOverSonet)

    def construct(self) -> None:
        pos_cls, gfp_cls = self._classes
        self.pos = _LineHalf(pos_cls(STS_LEVEL), self.pool)
        self.gfp = _LineHalf(gfp_cls(STS_LEVEL), self.pool)
        self._half_seconds = (0.0, 0.0)

    def call(self, i: int, *, damage=None):
        clock = time.perf_counter
        t0 = clock()
        line = self.pos.line_frame()
        got_pos = self.pos.path.receive_line(damage(line) if damage else line)
        t1 = clock()
        line = self.gfp.line_frame()
        got_gfp = self.gfp.path.receive_line(damage(line) if damage else line)
        t2 = clock()
        self._half_seconds = (t1 - t0, t2 - t1)
        return got_pos, got_gfp

    def _errors(self, half: _LineHalf) -> int:
        path = half.path
        if half is self.pos:
            stats = path.hdlc_stats
            layer = stats.total_errors() + (1 if stats.octets_discarded_hunting else 0)
        else:
            stats = path.gfp_stats
            layer = (
                stats.header_errors
                + stats.client_errors
                + stats.corrected_headers
                + stats.resyncs
                + (1 if stats.bytes_discarded_hunting else 0)
            )
        return layer + sonet_error_events(path.sonet_counters)

    def check(self, i: int, output, tally: Tally, seconds: float) -> int:
        total = 0
        halves = (("pos", self.pos), ("gfp", self.gfp))
        for (label, half), got, half_s in zip(halves, output, self._half_seconds):
            octets, lost = match_in_order(half.offered, got)
            errors_now = self._errors(half)
            tally.record(f"call {i} {label}", len(got) + lost, lost, errors_now - half.errors)
            half.errors = errors_now
            if seconds:
                self._rate(f"sonet.path.{label}_goodput_mb_s", octets / half_s / 1e6)
            total += octets
        return total

    def canary(self, tally: Tally) -> None:
        # The damaged frame is caught by its FCS (or, for a GFP core
        # header, by single-bit correction); the clean frame after it
        # carries the B1 parity that covers the damaged one.
        self.check(0, self.call(0, damage=flip_middle_bit), tally, 0.0)
        self.check(1, self.call(1), tally, 0.0)

    def exact_counts(self) -> Dict[str, float]:
        pos, gfp = self.pos.path, self.gfp.path
        return {
            "sonet.line_frames": pos.framer.frames_built + gfp.framer.frames_built,
            "sonet.rx_errors": sonet_error_events(pos.sonet_counters)
            + sonet_error_events(gfp.sonet_counters),
            "hdlc.frames_ok": pos.hdlc_stats.frames_ok,
            "hdlc.errors": pos.hdlc_stats.total_errors(),
            "gfp.frames_ok": gfp.gfp_stats.frames_ok,
            "gfp.idle_frames": gfp.gfp_stats.idle_frames,
            "gfp.errors": gfp.gfp_stats.header_errors + gfp.gfp_stats.client_errors,
        }


def make_loop(workload: str, pool: Sequence[bytes]) -> Loop:
    """The closed loop for ``workload`` over a generated frame pool."""
    if workload == "pos-imix":
        return PosLoop(pool, batch_octets=285_000)
    if workload == "pos-allflags":
        return PosLoop(pool, batch_octets=144_000)
    if workload == "cycle-imix":
        return CycleLoop(pool)
    if workload == "gfp-vs-pos":
        return GfpVsPosLoop(pool)
    raise ValueError(f"unknown workload {workload!r}")
