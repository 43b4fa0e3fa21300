"""Benchmark of record for the P5 reproduction: OC-48 line-rate fraction per workload.

    python3 perfbench/run.py --workload pos-imix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  This process generates the workload's
frames from ``--seed`` with the repository's own generators, then
starts measuring processes that receive only those frames on stdin:
several that time set-up alone, and one that runs the workload (see
``worker.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.

``--self-test`` counts an injected one-bit line error into the
workload's own tally, so the run must report it as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import loops  # noqa: E402

#: Processes that time set-up alone; the measuring process adds one more sample.
SETUP_PROBES = 3

#: Limits on each child process, inside the run's own 180 s budget.
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 130


def generate(workload: str, seed: int) -> List[bytes]:
    """The workload's frame pool, from the repository's own generators."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.fastpath.bench import standard_workloads
    from repro.workloads import all_flags_payload

    imix = standard_workloads(loops.POOL_FRAMES[workload], seed=seed)["imix"]()
    if workload == "pos-allflags":
        # The same IMIX frame lengths, every octet the flag 0x7E.
        return [all_flags_payload(len(content)) for content in imix]
    return imix


def encode_pool(pool: List[bytes]) -> bytes:
    return b"".join(struct.pack("<I", len(c)) + c for c in pool)


def run_worker(args: List[str], pool: bytes, timeout: float) -> dict:
    """Run ``worker.py`` to completion; its last stdout line is its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        input=pool,
        capture_output=True,
        cwd=ROOT,
        timeout=timeout,
        # One string-hash seed for every process, so dict and set layouts
        # do not vary from run to run.
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(loops.POOL_FRAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources under {ROOT / 'src'}: run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pool = encode_pool(generate(args.workload, args.seed))
    common = ["--workload", args.workload]
    probes = [
        run_worker([*common, "--mode", "setup"], pool, PROBE_TIMEOUT_S)["setup"]
        for _ in range(SETUP_PROBES)
    ]
    run_args = [*common, "--mode", "run", "--seconds", str(args.seconds)]
    run_args += ["--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / "perfbench_out"
        out_dir.mkdir(exist_ok=True)
        run_args += ["--spans-out", str(out_dir / f"{args.workload}-seed{args.seed}-spans.json")]
    if args.self_test:
        run_args.append("--self-test")
    result = run_worker(run_args, pool, WORKER_TIMEOUT_S)
    setups = probes + [result["setup"]]

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    offered = max(result["attempted"], 1)
    if args.trace:
        values: Dict[str, float] = dict(result["layers"])
        values.update(
            {
                "setup.import_s": setup_median("import_s"),
                "setup.construct_s": setup_median("construct_s"),
                "setup.warmup_s": setup_median("warmup_s"),
                "frame_loss_fraction": result["failed"] / offered,
            }
        )
        wanted = spec["per_layer"]
    else:
        goodput = result["goodput_mb_s"]
        values = {
            "goodput_mb_s": goodput,
            "line_rate_fraction": goodput / loops.OC48_MB_S,
            "setup_s": statistics.median(sum(s.values()) for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    for finding in result["findings"]:
        sys.stderr.write(f"gate: {finding}\n")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": offered,
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )


if __name__ == "__main__":
    main()
