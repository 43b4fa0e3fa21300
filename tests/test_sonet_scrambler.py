"""Unit tests for the SONET scramblers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sonet.rates import StsRate
from repro.sonet.scrambler import FrameSyncScrambler, SelfSyncScrambler, _lfsr_bytes


class TestFrameSync:
    def test_period_127(self):
        """1 + x^6 + x^7 is maximal-length: period 127 bits."""
        stream = FrameSyncScrambler().sequence(127 * 2)
        bits = np.unpackbits(stream)
        assert np.array_equal(bits[:127], bits[127:254])
        # and no shorter period dividing 127 (127 is prime: check != all-same)
        assert bits[:127].sum() not in (0, 127)

    def test_starts_all_ones(self):
        """Seed 1111111 makes the first 7 output bits ones."""
        first = FrameSyncScrambler().sequence(1)[0]
        assert first >> 1 == 0x7F   # top seven bits set

    def test_deterministic(self):
        assert np.array_equal(
            FrameSyncScrambler().sequence(100), FrameSyncScrambler().sequence(100)
        )

    def test_apply_is_involution(self, rng):
        data = rng.integers(0, 256, 500, dtype=np.uint8)
        scrambler = FrameSyncScrambler()
        assert np.array_equal(scrambler.apply(scrambler.apply(data)), data)

    def test_tiled_period_matches_per_bit_lfsr_at_sts48(self):
        """The 127-byte period, tiled, is the bit-by-bit keystream."""
        frame_bytes = 9 * StsRate(48).columns
        assert np.array_equal(
            FrameSyncScrambler().sequence(frame_bytes), _lfsr_bytes(frame_bytes)
        )

    def test_balanced_output(self):
        """Roughly half the keystream bits are ones (DC balance)."""
        bits = np.unpackbits(FrameSyncScrambler().sequence(1270))
        assert 0.45 < bits.mean() < 0.55


class TestSelfSync:
    def test_round_trip_single_call(self, rng):
        data = rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
        tx, rx = SelfSyncScrambler(), SelfSyncScrambler()
        assert rx.descramble(tx.scramble(data)) == data

    def test_round_trip_chunked(self, rng):
        """State carries across calls: chunking must not matter."""
        data = rng.integers(0, 256, 997, dtype=np.uint8).tobytes()
        tx, rx = SelfSyncScrambler(), SelfSyncScrambler()
        out = b""
        for i in range(0, len(data), 100):
            out += rx.descramble(tx.scramble(data[i : i + 100]))
        assert out == data

    def test_chunked_equals_whole(self, rng):
        data = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
        whole = SelfSyncScrambler().scramble(data)
        tx = SelfSyncScrambler()
        chunked = tx.scramble(data[:123]) + tx.scramble(data[123:])
        assert chunked == whole

    def test_self_synchronisation(self, rng):
        """A receiver joining mid-stream recovers after 43 bits."""
        data = rng.integers(0, 256, 400, dtype=np.uint8).tobytes()
        scrambled = SelfSyncScrambler().scramble(data)
        late_rx = SelfSyncScrambler()            # wrong (zero) state
        recovered = late_rx.descramble(scrambled[8:])   # skip 64 bits
        # After the first ceil(43/8)=6 bytes, output matches the source.
        assert recovered[6:] == data[8 + 6 :]

    def test_error_propagation_limited(self, rng):
        """One flipped bit corrupts at most 2 bits, 43 bits apart."""
        data = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
        scrambled = bytearray(SelfSyncScrambler().scramble(data))
        scrambled[50] ^= 0x10
        recovered = SelfSyncScrambler().descramble(bytes(scrambled))
        diff = np.unpackbits(
            np.frombuffer(recovered, dtype=np.uint8)
            ^ np.frombuffer(data, dtype=np.uint8)
        )
        assert diff.sum() == 2
        positions = np.flatnonzero(diff)
        assert positions[1] - positions[0] == 43

    def test_breaks_constant_payloads(self):
        """The RFC 2615 motivation: constant payloads gain transitions."""
        killer = bytes(1000)   # all zeros
        scrambled = SelfSyncScrambler().scramble(killer)
        assert scrambled == killer  # zeros stay zeros from zero state...
        tx = SelfSyncScrambler()
        tx.scramble(b"\xa5" * 10)  # ...but any prior traffic seeds state
        scrambled = tx.scramble(killer)
        bits = np.unpackbits(np.frombuffer(scrambled, dtype=np.uint8))
        assert 0 < bits.mean() < 1

    def test_reset(self, rng):
        data = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        tx = SelfSyncScrambler()
        first = tx.scramble(data)
        tx.reset()
        assert tx.scramble(data) == first

    def test_empty(self):
        assert SelfSyncScrambler().scramble(b"") == b""
        assert SelfSyncScrambler().descramble(b"") == b""


# ---------------------------------------------------------------------------
# The integer kernels against the bit-level recurrence


def _bits(data):
    return [(octet >> (7 - k)) & 1 for octet in data for k in range(8)]


def _octets(bits):
    return bytes(
        sum(bit << (7 - k) for k, bit in enumerate(bits[i : i + 8]))
        for i in range(0, len(bits), 8)
    )


def _oracle_scramble(data):
    """``out[i] = in[i] ^ out[i-43]`` from an all-zero history."""
    out = [0] * 43
    for bit in _bits(data):
        out.append(bit ^ out[-43])
    return _octets(out[43:])


def _oracle_descramble(data):
    """``out[i] = in[i] ^ in[i-43]`` from an all-zero history."""
    seen = [0] * 43 + _bits(data)
    return _octets([seen[i + 43] ^ seen[i] for i in range(len(seen) - 43)])


@st.composite
def _chunked(draw):
    """Data and a split of it into chunks, many shorter than 43 bits."""
    data = draw(st.binary(max_size=120))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=12), max_size=20))
    chunks, at = [], 0
    for size in sizes:
        chunks.append(data[at : at + size])
        at += size
    chunks.append(data[at:])
    return data, chunks


@settings(max_examples=200, deadline=None)
@given(_chunked())
def test_scramble_matches_bit_recurrence_under_any_split(case):
    data, chunks = case
    tx = SelfSyncScrambler()
    assert b"".join(tx.scramble(c) for c in chunks) == _oracle_scramble(data)


@settings(max_examples=200, deadline=None)
@given(_chunked())
def test_descramble_matches_bit_recurrence_under_any_split(case):
    data, chunks = case
    rx = SelfSyncScrambler()
    assert b"".join(rx.descramble(c) for c in chunks) == _oracle_descramble(data)
