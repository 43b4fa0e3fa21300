"""Property-based differential: fastpath vs. cycle engine must agree.

These are the satellite-3 properties: random frame batches, random
ACCM escape sets, and adversarial wire streams (runts, aborts,
oversize bodies, flagless noise) all produce byte-identical line
streams, identical frame verdicts and identical OAM counters on the
two engines — up to the one documented force-close divergence that
``run_rx`` already excludes (see ``repro.fastpath.differential``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import P5Config
from repro.fastpath import DifferentialHarness, FastpathEngine
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

# Cycle runs cost milliseconds per frame; keep batches honest but small.
frame_batches = st.lists(
    st.binary(min_size=1, max_size=48), min_size=1, max_size=4
)

_SETTINGS = dict(max_examples=12, deadline=None)


@settings(**_SETTINGS)
@given(contents=frame_batches)
def test_clean_loopback_agrees(contents):
    DifferentialHarness().run(contents).assert_ok()


@settings(**_SETTINGS)
@given(
    contents=frame_batches,
    accm_mask=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_agreement_holds_for_any_accm(contents, accm_mask):
    config = P5Config(accm_mask=accm_mask)
    DifferentialHarness(config).run(contents).assert_ok()


@settings(**_SETTINGS)
@given(data=st.data())
def test_rx_agreement_on_damaged_lines(data):
    """Crafted aborts, runts and noise decode identically on both RX."""
    engine = FastpathEngine()
    pieces = [bytes([FLAG_OCTET])]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        kind = data.draw(
            st.sampled_from(("good", "abort", "runt", "noise", "empty"))
        )
        if kind == "good":
            content = data.draw(st.binary(min_size=1, max_size=32))
            pieces.append(engine.encode_frame(content)[1:])
        elif kind == "abort":
            body = data.draw(st.binary(min_size=0, max_size=8))
            body = bytes(b for b in body if b not in (FLAG_OCTET, ESC_OCTET))
            pieces.append(body + bytes([ESC_OCTET, FLAG_OCTET]))
        elif kind == "runt":
            octets = data.draw(st.integers(min_value=1, max_value=4))
            pieces.append(b"\x01" * octets + bytes([FLAG_OCTET]))
        elif kind == "noise":
            raw = data.draw(st.binary(min_size=1, max_size=16))
            pieces.append(raw + bytes([FLAG_OCTET]))
        else:
            pieces.append(bytes([FLAG_OCTET]))
    DifferentialHarness().run_rx(b"".join(pieces)).assert_ok()


@settings(max_examples=6, deadline=None)
@given(contents=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=3))
def test_oversize_frames_counted_identically(contents):
    config = P5Config(max_frame_octets=16)
    harness = DifferentialHarness(config)
    line = harness.engine.encode_frames(
        contents + [bytes(range(1, 41))]  # stuffs past the 16-octet cut
    ).line
    # Without its closing flag the last frame is an open tail, which
    # both receivers cut at the same octet.
    for wire in (line, line[:-1]):
        harness.run_rx(wire).assert_ok()
