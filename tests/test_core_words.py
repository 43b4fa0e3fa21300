"""The word between stages: plain ``(octets, sof, eof)`` tuples.

Core stages hand each other words; a :class:`WordBeat` appears only
at the edges (sources, sinks, PHY hooks, fault injectors, tracers),
where it unpacks as the same word.
"""

import dataclasses

from repro.core import P5Config, P5System
from repro.core.p5 import PhyWire
from repro.rtl.module import Channel
from repro.rtl.pipeline import WordBeat, word_of, words_from_bytes
from repro.rtl.simulator import Simulator
from repro.workloads import ppp_frame_contents


def _loopback(corrupt=None):
    system = P5System(P5Config(), name="words")
    wire = PhyWire("words.wire", system.tx.phy_out, system.rx.phy_in, corrupt=corrupt)
    sim = Simulator(system.tx.modules + [wire] + system.rx.modules, system.channels)
    frames = ppp_frame_contents(24, seed=3)
    for content in frames:
        system.submit(content)
    sim.run_until(system.idle, timeout=200_000)
    return system, frames


def test_clean_path_builds_no_beats(monkeypatch):
    built = []
    for name in ("from_bytes", "from_word"):
        original = getattr(WordBeat, name).__func__

        def counted(cls, *args, _original=original, **kwargs):
            built.append(1)
            return _original(cls, *args, **kwargs)

        monkeypatch.setattr(WordBeat, name, classmethod(counted))
    monkeypatch.setattr(WordBeat, "__post_init__", lambda self: built.append(1))
    system, frames = _loopback()
    assert system.received() == [(content, True) for content in frames]
    assert built == []


def test_phy_hook_sees_beats_of_the_wire_width():
    widths = set()
    seen = []

    def flip_first_lane_once(beat):
        widths.add(beat.width_bytes)
        seen.append(beat)
        if len(seen) != 100:
            return beat
        lanes = list(beat.lanes)
        lanes[0] ^= 0x01
        return dataclasses.replace(beat, lanes=tuple(lanes))

    system, frames = _loopback(flip_first_lane_once)
    assert widths == {4}
    verdicts = [ok for _, ok in system.received()]
    assert verdicts.count(False) == 1 and len(verdicts) == len(frames)


def test_beat_unpacks_as_its_word():
    beat = WordBeat((1, 2, 0, 4), (True, False, False, True), sof=True)
    assert tuple(beat) == (b"\x01\x04", True, False)
    assert word_of(beat) == (b"\x01\x04", True, False)
    assert word_of((b"ab", False, True)) == (b"ab", False, True)
    assert word_of("x") is None and word_of((1, 2, 3)) is None


def test_from_word_left_aligns_in_the_given_width():
    assert WordBeat.from_word((b"\x7e\x12", True, False), 4).render() == "7E 12 -- -- [S]"
    assert WordBeat.from_word((b"", False, True), 4).render() == "-- -- -- -- [E]"
    assert WordBeat.from_word((b"\x11\x22", False, False)).width_bytes == 2


def test_words_from_bytes_marks_the_frame():
    assert words_from_bytes(b"abcdefghij", 4) == [
        (b"abcd", True, False),
        (b"efgh", False, False),
        (b"ij", False, True),
    ]


def test_channels_compare_by_identity_and_test_true_when_valid():
    a, b = Channel("a"), Channel("a")
    assert a != b and len({a, b}) == 2 and a in [a] and b not in [a]
    assert not a and not a.can_pop
    a.push((b"x", True, True))
    assert a and a.can_pop and len(a) == a.occupancy == 1
    assert a.pop() == (b"x", True, True)
    assert (a.pushes, a.pops, a.max_occupancy) == (1, 1, 1)
