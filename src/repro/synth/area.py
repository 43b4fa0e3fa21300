"""Area models: P5 modules lowered to LUT/FF netlists.

Each builder mirrors the structure of the corresponding simulation
module in :mod:`repro.core`, so the area scaling is *derived* from the
same architecture the cycle-accurate model executes — most visibly for
the byte sorter (the escape units' carry register and barrel shift),
whose ``W x (2W+1)`` decision space (:func:`_sorter_cases`) is the
quadratic cone behind the paper's 11x/25x observations, and for the CRC forests,
whose XOR fan-ins come from the *actual* Pei–Zukowski matrices built
in :mod:`repro.crc.matrix`.

Width-1 (8-bit) datapaths are structurally different, exactly as in
the paper: no byte sorter, no partial-word CRC handling, no pipeline
registers — a byte either passes or stalls one cycle.  That structural
difference, not mere scaling, is why the 32-bit system lands ~11x
rather than 4x larger.
"""

from __future__ import annotations

from repro.core.config import P5Config
from repro.crc.matrix import build_matrices
from repro.synth.netlist import Netlist
from repro.synth.primitives import (
    EQ_COMPARATOR_DEPTH,
    adder_luts,
    clog2,
    clog4,
    eq_const_comparator_luts,
    mux_depth,
    mux_luts,
    popcount_luts,
    xor_tree_depth,
    xor_tree_luts,
)

__all__ = [
    "escape_generate_area",
    "escape_detect_area",
    "crc_unit_area",
    "delineator_area",
    "flag_inserter_area",
    "controller_area",
    "oam_area",
    "transmitter_area",
    "receiver_area",
    "system_area",
]

#: Logic synthesisers share sub-expressions across the XOR forest of a
#: parallel CRC; published CRC-32 mappings land near this factor.
XOR_SHARING_FACTOR = 0.35

#: Distinct-width forests share less logic than one forest internally.
PARTIAL_SHARING_FACTOR = 0.45

#: LUTs of decode logic per byte-sorter decision case (one case =
#: recognising an (occupancy, incoming-count) pair and enabling the
#: corresponding shift pattern).
DECISION_CASE_LUTS = 8


def _sorter_cases(width_bytes: int) -> int:
    """The byte sorter's decision space: carry occupancy 0..W-1 x 0..2W new octets.

    Hardware selects, for each output lane, one of these shift
    configurations, each a wide multiplexer: the quadratic-in-W growth
    behind the paper's 11x area observation.
    """
    return width_bytes * (2 * width_bytes + 1)


def _stage_register_bits(width_bytes: int) -> int:
    """One pipeline stage register: W data bytes + valids + sof/eof."""
    return 9 * width_bytes + 2


def escape_generate_area(config: P5Config, *, pipeline_stages: int = None) -> Netlist:
    """The Escape Generate unit (paper Table 3's subject)."""
    w = config.width_bytes
    stages = pipeline_stages if pipeline_stages is not None else (4 if w > 1 else 2)
    n = Netlist(f"escape_generate/{8 * w}b")
    n_escapes = max(2, len(config.escape_octets))
    # Stage 1: per-lane escape-set comparators.
    n.add(
        "detect",
        luts=w * n_escapes * eq_const_comparator_luts(),
        depth=EQ_COMPARATOR_DEPTH,
    )
    # XOR 0x20 into flagged lanes (bit 5 only).
    n.add("modify", luts=w, depth=1)
    if w == 1:
        # The byte-serial unit: a 2:1 output mux (data vs ESC constant)
        # and a tiny insert-stall FSM — the whole of the paper's
        # "simple manipulation ... extra byte is inserted".
        n.add("out_mux", luts=mux_luts(2, 8), depth=mux_depth(2))
        n.add("fsm", luts=7, ffs=3, depth=2)
        n.add("pending_flags", ffs=3)
        return n
    # Stage 2: expansion routing — each of the 2W candidate slots picks
    # its source lane or the escape constant.
    n.add("expand", luts=2 * w * 4, depth=2)
    # Stage 3: the byte sorter — output barrel mux over 3W-1 sources
    # per lane plus the decision cone over (occupancy x count) cases.
    n.add(
        "sorter_mux",
        luts=w * mux_luts(3 * w - 1, 8),
        depth=mux_depth(3 * w - 1),
    )
    n.add(
        "sorter_decision",
        luts=_sorter_cases(w) * DECISION_CASE_LUTS
        + popcount_luts(w)
        + adder_luts(clog2(2 * w) + 1),
        depth=clog4(_sorter_cases(w)) + 3,
    )
    # Registers: the (stages-2) stage registers, the carry register,
    # the output register; the resync buffer maps to LUT-RAM.
    n.add("stage_regs", ffs=(stages - 2) * _stage_register_bits(w))
    n.add("carry_reg", ffs=8 * w + clog2(2 * w) + 1)
    n.add("output_reg", ffs=_stage_register_bits(w))
    n.add(
        "resync_lutram",
        luts=(9 * w * config.resync_depth_words + 15) // 16,
        ffs=clog2(config.resync_depth_words + 1) * 2,
    )
    n.add("occupancy_counters", ffs=2 * clog2(8 * w))
    n.add("fsm", luts=12, ffs=5, depth=2)
    return n


def escape_detect_area(config: P5Config, *, pipeline_stages: int = None) -> Netlist:
    """The Escape Detect unit (paper Figure 6's subject)."""
    w = config.width_bytes
    stages = pipeline_stages if pipeline_stages is not None else (4 if w > 1 else 2)
    n = Netlist(f"escape_detect/{8 * w}b")
    # Detect both the escape octet (delete) and stray flags (error).
    n.add(
        "detect",
        luts=w * 2 * eq_const_comparator_luts(),
        depth=EQ_COMPARATOR_DEPTH,
    )
    n.add("modify", luts=w, depth=1)
    if w == 1:
        n.add("fsm", luts=6, ffs=3, depth=2)
        n.add("pending_xor", ffs=1)
        n.add("out_mux", luts=mux_luts(2, 8), depth=mux_depth(2))
        return n
    # Bubble-collapse routing: W slots compacting valid lanes.
    n.add("collapse", luts=w * 4, depth=2)
    n.add(
        "sorter_mux",
        luts=w * mux_luts(3 * w - 1, 8),
        depth=mux_depth(3 * w - 1),
    )
    n.add(
        "sorter_decision",
        luts=_sorter_cases(w) * DECISION_CASE_LUTS
        + popcount_luts(w)
        + adder_luts(clog2(2 * w) + 1),
        depth=clog4(_sorter_cases(w)) + 3,
    )
    n.add("stage_regs", ffs=(stages - 2) * _stage_register_bits(w))
    n.add("carry_reg", ffs=8 * w + clog2(2 * w) + 1)
    n.add("output_reg", ffs=_stage_register_bits(w))
    n.add(
        "resync_lutram",
        luts=(9 * w * config.resync_depth_words + 15) // 16,
        ffs=clog2(config.resync_depth_words + 1) * 2,
    )
    n.add("pending_xor", ffs=1)
    n.add("fsm", luts=10, ffs=5, depth=2)
    return n


def crc_unit_area(config: P5Config, mode: str = "generate") -> Netlist:
    """The CRC unit: the parallel forest plus word coordination.

    The forest fan-ins are read off the real GF(2) matrices.  For
    W > 1 the unit also needs forests for every partial tail width
    (a frame may end on any lane) and the mux to select among them —
    the "extra decisional logic involved in the CRC" the paper blames
    for part of the super-linear growth.
    """
    w = config.width_bytes
    spec = config.fcs
    n = Netlist(f"crc_{mode}/{8 * w}b")
    fanins = build_matrices(spec, 8 * w).xor_fanin_per_output()
    forest = sum(xor_tree_luts(int(f)) for f in fanins)
    n.add(
        "forest_full",
        luts=max(1, round(forest * XOR_SHARING_FACTOR)),
        depth=xor_tree_depth(int(fanins.max())),
    )
    n.add("state_reg", ffs=spec.width)
    if w > 1:
        partial_total = 0
        worst_depth = 0
        for tail in range(1, w):
            tail_fanins = build_matrices(spec, 8 * tail).xor_fanin_per_output()
            partial_total += sum(xor_tree_luts(int(f)) for f in tail_fanins)
            worst_depth = max(worst_depth, xor_tree_depth(int(tail_fanins.max())))
        n.add(
            "forest_partials",
            luts=max(1, round(partial_total * PARTIAL_SHARING_FACTOR)),
            depth=worst_depth,
        )
        n.add(
            "tail_select",
            luts=mux_luts(w, spec.width) + 2 * clog2(w),
            depth=mux_depth(w) + 1,
        )
    fcs_octets = spec.width // 8
    if mode == "generate":
        # Trailer insertion re-aligns the FCS octets behind the ragged
        # content tail: a small sorter over fcs+W sources.
        if w == 1:
            n.add("trailer_insert", luts=mux_luts(2, 8) + 2, depth=mux_depth(2))
            n.add("carry_reg", ffs=4)
        else:
            n.add(
                "trailer_insert",
                luts=w * mux_luts(w + fcs_octets, 8) // 2 + 4 * fcs_octets,
                depth=mux_depth(w + fcs_octets),
            )
            n.add("carry_reg", ffs=8 * (w + fcs_octets - 1) + 3)
    else:
        # The checker verifies by residue, so W=1 strips the trailer by
        # memory pointer arithmetic (no holdback bytes); word datapaths
        # hold the candidate trailer in registers.
        if w == 1:
            n.add("holdback_reg", ffs=4)
        else:
            n.add("holdback_reg", ffs=8 * fcs_octets + clog2(fcs_octets + w))
        n.add(
            "residue_compare",
            luts=spec.width // 4 + 1,   # equality against the magic residue
            depth=2,
        )
    n.add("coordination_fsm", luts=6 + w, ffs=4, depth=2)
    return n


def delineator_area(config: P5Config) -> Netlist:
    """Receive flag hunting + frame extraction (word-parallel for W>1)."""
    w = config.width_bytes
    n = Netlist(f"delineator/{8 * w}b")
    n.add(
        "flag_compare",
        luts=w * eq_const_comparator_luts(),
        depth=EQ_COMPARATOR_DEPTH,
    )
    if w == 1:
        n.add("fsm", luts=8, ffs=4, depth=2)
        return n
    # Extracting the inter-flag bytes from arbitrary lane positions is
    # another data-reordering problem: a compaction sorter.
    n.add(
        "extract_sorter",
        luts=w * mux_luts(2 * w, 8),
        depth=mux_depth(2 * w),
    )
    # Flags can close and reopen frames anywhere in the word: the
    # priority/boundary decision cone scales like the sorter's.
    n.add(
        "boundary_decision",
        luts=w * (w + 1) * 4,
        depth=2 + clog4(w * (w + 1)),
    )
    n.add("carry_reg", ffs=8 * w + clog2(2 * w))
    n.add("holdback_reg", ffs=_stage_register_bits(w))
    n.add("sync_fsm", luts=10 + 2 * w, ffs=5, depth=2)
    return n


def flag_inserter_area(config: P5Config) -> Netlist:
    """Transmit flag wrapping + wire densification."""
    w = config.width_bytes
    n = Netlist(f"flag_inserter/{8 * w}b")
    if w == 1:
        n.add("fsm", luts=6, ffs=3, depth=2)
        return n
    n.add(
        "insert_sorter",
        luts=w * mux_luts(w + 2, 8),
        depth=mux_depth(w + 2),
    )
    n.add("carry_reg", ffs=8 * w + clog2(2 * w))
    n.add("fsm", luts=8 + w, ffs=4, depth=2)
    return n


def controller_area(config: P5Config, side: str) -> Netlist:
    """TX/RX control FSM: host/PHY/OAM signal interpretation."""
    w = config.width_bytes
    n = Netlist(f"{side}_control/{8 * w}b")
    n.add("fsm", luts=10 + 2 * w, ffs=6, depth=3)
    n.add("counters", luts=4, ffs=8)
    return n


def oam_area(config: P5Config) -> Netlist:
    """Protocol OAM: register map, interrupt logic, host bus."""
    n = Netlist("oam")
    n.add("regmap_decode", luts=12, depth=2)
    n.add("config_regs", ffs=16)
    n.add("irq_logic", luts=8, ffs=8, depth=1)
    return n


def transmitter_area(config: P5Config) -> Netlist:
    """Paper Figure 3: control + CRC + escape generate (+ flags)."""
    n = Netlist(f"transmitter/{config.width_bits}b")
    n.merge(controller_area(config, "tx"), "control")
    n.merge(crc_unit_area(config, "generate"), "crc")
    n.merge(escape_generate_area(config), "escape_generate")
    n.merge(flag_inserter_area(config), "flags")
    return n


def receiver_area(config: P5Config) -> Netlist:
    """Paper Figure 4: delineation + escape detect + CRC + control."""
    n = Netlist(f"receiver/{config.width_bits}b")
    n.merge(delineator_area(config), "delineator")
    n.merge(escape_detect_area(config), "escape_detect")
    n.merge(crc_unit_area(config, "check"), "crc")
    n.merge(controller_area(config, "rx"), "control")
    return n


def system_area(config: P5Config, *, include_oam: bool = True) -> Netlist:
    """The whole P5 (paper Figure 2)."""
    n = Netlist(f"p5/{config.width_bits}b")
    n.merge(transmitter_area(config), "tx")
    n.merge(receiver_area(config), "rx")
    if include_oam:
        n.merge(oam_area(config), "oam")
    return n
