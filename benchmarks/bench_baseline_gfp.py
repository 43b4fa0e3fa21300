"""B1 — baseline comparison: HDLC-like framing (the paper's choice)
vs GFP (ITU-T G.7041), the era's competing layer-2 for IP over SONET.

Two axes:

1. **Overhead vs payload content** — HDLC's escape mechanism makes its
   overhead payload-dependent (the very problem the P5's byte sorter
   solves), with a 2x adversarial worst case; GFP's is a constant
   8-12 bytes per frame.  The crossover: HDLC wins on clean payloads
   of any size (1 flag + 4 FCS < 12 bytes), GFP wins as escape density
   grows past ~1-2 %.
2. **Delineation robustness** — a single bit error in a GFP core
   header is *corrected* by the cHEC; the same hit on an HDLC flag
   merges two frames (both lost to FCS).
"""

from conftest import emit

from repro.gfp import GfpDelineator, GfpFrame, idle_frame
from repro.hdlc import Delineator, HdlcFramer
from repro.workloads import flag_density_payload, random_payload

DENSITIES = (0.0, 0.008, 0.02, 0.05, 0.2, 1.0)
PAYLOAD = 1500
FRAMES = 30


def overhead_sweep():
    rows = []
    for density in DENSITIES:
        payload = flag_density_payload(PAYLOAD, density, seed=11)
        hdlc_wire = HdlcFramer().encode(payload)
        gfp_wire = GfpFrame(payload).encode()
        rows.append(
            (density, len(hdlc_wire) - PAYLOAD, len(gfp_wire) - PAYLOAD)
        )
    return rows


def robustness_trial():
    payloads = [random_payload(200, seed=i) for i in range(FRAMES)]
    # HDLC: back-to-back frames share flags (the line-rate case); flip
    # the shared flag between frames 10 and 11 — they merge into one
    # FCS-failing pseudo-frame.
    hdlc = HdlcFramer()
    hdlc_wire = bytearray(hdlc.encode_stream(payloads))
    offset = len(hdlc.encode_stream(payloads[:10])) - 1
    hdlc_wire[offset] ^= 0x01          # the shared flag byte
    hdlc_rx = Delineator()
    hdlc_got = sum(good for _content, good in hdlc_rx.push_bytes(bytes(hdlc_wire)))

    # GFP: flip one bit in frame 10's core header.
    gfp_wire = bytearray(
        idle_frame() * 4 + b"".join(GfpFrame(p).encode() for p in payloads)
    )
    offset = 16 + sum(GfpFrame(p).wire_length for p in payloads[:10])
    gfp_wire[offset] ^= 0x01
    gfp_rx = GfpDelineator()
    gfp_got = len(gfp_rx.feed(bytes(gfp_wire)))
    return hdlc_got, gfp_got, gfp_rx.stats.corrected_headers


def test_baseline_b1_overhead(benchmark):
    rows = benchmark(overhead_sweep)
    lines = [
        f"{'escape density':>15} {'HDLC overhead':>14} {'GFP overhead':>13} {'winner':>8}"
    ]
    for density, hdlc_ov, gfp_ov in rows:
        winner = "HDLC" if hdlc_ov < gfp_ov else "GFP"
        lines.append(
            f"{density:>15.3f} {hdlc_ov:>12} B {gfp_ov:>11} B {winner:>8}"
        )
    lines.append("")
    lines.append(f"per {PAYLOAD}-byte frame. HDLC = 2 flags + 4 FCS + escapes")
    lines.append("(payload-dependent); GFP = constant 12 B (core+type+pFCS).")
    lines.append("the crossover sits near 0.5% escape density — uniform random")
    lines.append("traffic (0.8%) already favours GFP at this MTU, and the")
    lines.append("adversarial all-flag case costs HDLC a full 2x")
    emit("Baseline B1 — HDLC vs GFP framing overhead", "\n".join(lines))

    by_density = {d: (h, g) for d, h, g in rows}
    assert by_density[0.0][0] < by_density[0.0][1]        # clean: HDLC wins
    assert by_density[1.0][0] > PAYLOAD                   # adversarial: ~2x
    assert all(g == 12 for _, _, g in rows)               # GFP constant


def test_baseline_b1_robustness(benchmark):
    hdlc_got, gfp_got, corrected = benchmark(robustness_trial)
    lines = [
        f"one bit error in a frame-delimiting header, {FRAMES} frames sent:",
        f"  HDLC: {hdlc_got}/{FRAMES} recovered "
        f"(flag destroyed -> adjacent frames merge and fail FCS)",
        f"  GFP : {gfp_got}/{FRAMES} recovered "
        f"({corrected} header corrected by the cHEC syndrome)",
    ]
    emit("Baseline B1 — delineation robustness", "\n".join(lines))
    assert gfp_got == FRAMES and corrected == 1
    assert hdlc_got <= FRAMES - 2
