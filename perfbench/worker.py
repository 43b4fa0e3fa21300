"""One measuring process: set up a workload, run its closed loop, gate it.

Started by ``run.py`` with the generated frame pool on stdin (each
frame a 4-byte little-endian length and its octets), so this process
never runs a traffic generator and its first ``import repro`` is the
one set-up timing covers.  It prints one JSON object on stdout.

Modes:

* ``setup`` — import, construct, one warm-up call; report the three times.
* ``run`` — the same set-up, then the untraced timed loop, the
  correctness gate's extra checks (differential harness, injected bit
  flip), and with ``--trace 1`` a traced pass on freshly built engines.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import struct
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import loops  # noqa: E402  (sibling module; needs no repro)
import layers  # noqa: E402


def read_pool(data: bytes) -> List[bytes]:
    pool, offset = [], 0
    while offset < len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        pool.append(data[offset : offset + length])
        offset += length
    return pool


def import_repro_from_checkout() -> None:
    """Make ``import repro`` load this checkout's ``src`` and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources at {SRC}")
    sys.path.insert(0, str(SRC))


def set_up(loop: loops.Loop, tally: loops.Tally) -> Dict[str, float]:
    clock = time.perf_counter
    t0 = clock()
    loop.import_modules()
    t1 = clock()
    loop.construct()
    t2 = clock()
    output = loop.call(0)
    t3 = clock()
    loop.check(0, output, tally, t3 - t2)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    return {"import_s": t1 - t0, "construct_s": t2 - t1, "warmup_s": t3 - t2}


def timed_loop(
    loop: loops.Loop, tally: loops.Tally, *, first: int, calls: int, seconds: float
) -> Tuple[List[float], float]:
    """Make calls until ``seconds`` of timed calls and at least ``calls`` calls.

    Returns the per-call goodput (MB/s of content delivered intact) and
    the time spent in the gate.
    """
    clock = time.perf_counter
    rates: List[float] = []
    timed = verify = 0.0
    i = first
    while timed < seconds or len(rates) < calls:
        t0 = clock()
        output = loop.call(i)
        elapsed = clock() - t0
        t1 = clock()
        octets = loop.check(i, output, tally, elapsed)
        verify += clock() - t1
        rates.append(octets / elapsed / 1e6)
        timed += elapsed
        i += 1
    return rates, verify


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    pool = read_pool(sys.stdin.buffer.read())
    import_repro_from_checkout()
    loop = loops.make_loop(args.workload, pool)
    tally = loops.Tally()
    setup = set_up(loop, tally)
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return

    loop.layer_rates.clear()  # the warm-up call is not a timed call
    rates, verify_s = timed_loop(loop, tally, first=1, calls=5, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = {name: statistics.median(v) for name, v in loop.layer_rates.items()}

    t0 = time.perf_counter()
    loop.differential(tally)
    canary = loops.Tally()
    loop.canary(canary)
    verify_s += time.perf_counter() - t0
    if args.self_test:
        tally.merge(canary)

    goodput = statistics.median(rates)
    result = {"setup": setup, "goodput_mb_s": goodput, "peak_rss_mb": peak_rss_mb}
    if args.trace:
        per_layer = layers.traced_pass(args.workload, loop, tally, spans_out=args.spans_out)
        traced = per_layer.pop("bench.traced_goodput_mb_s")
        per_layer.update(untraced)
        # The traced pass's calls carry the same traffic as the untraced
        # run's first calls, so those are the like-for-like reference.
        reference = statistics.median(rates[: loop.calls_per_pass])
        per_layer["bench.trace_overhead_fraction"] = 1.0 - traced / reference
        per_layer["bench.verify_s"] = verify_s
        result["layers"] = per_layer
    findings = list(tally.findings)
    if not canary.failed:
        findings.append("self-test: one flipped line bit went uncounted by the gate")
    result.update(
        attempted=tally.offered,
        failed=tally.failed,
        findings=findings,
        correct=not findings,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
