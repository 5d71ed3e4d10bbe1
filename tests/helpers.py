"""Exact-angle helpers, graph counts, staticness event blocks and
Hypothesis strategies shared by the test modules."""
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from leovn.constellation import SIDEREAL_DAY, ConstellationConfig
from leovn.virtualgraph import staticness_report


def initial_phase_deg(cfg, plane: int, slot: int) -> Fraction:
    """Epoch phase of satellite (plane 1..n1, slot 1..n2) of a
    ``ConstellationConfig``, exact degrees (not wrapped)."""
    return (Fraction(cfg.phase0_deg)
            + (slot - 1) * Fraction(360, cfg.sats_per_plane)
            + (plane - 1) * cfg.phase_offset_deg)


def edge_count(keys, kind) -> int:
    """Virtual edges of one ``IslKind`` among edge keys (the kind is the low
    bit of each key)."""
    return int(np.count_nonzero(keys % 2 == kind))


def report_blocks(cfg, method, mode, duration_s, samples):
    """A staticness report and the (t, keys, changes, causes) blocks it
    passed to its consumer, in order."""
    blocks = []
    report = staticness_report(cfg, method, mode, duration_s, samples,
                               lambda *block: blocks.append(block))
    return report, blocks


@st.composite
def configs(draw, max_planes=24, max_slots=48):
    """Any constellation ConstellationConfig accepts, with a sample time."""
    n1 = draw(st.integers(2, max_planes))
    n2 = draw(st.integers(3, max_slots))
    cfg = ConstellationConfig(
        num_planes=n1, sats_per_plane=n2,
        phasing_factor=draw(st.integers(0, n2 - 1)),
        altitude_km=draw(st.floats(200.0, 36000.0)),
        inclination_deg=draw(st.floats(0.5, 180.0)),
        polar_threshold_deg=draw(st.floats(1.0, 90.0)),
        raan0_deg=draw(st.floats(-360.0, 360.0)),
        phase0_deg=draw(st.none() | st.floats(-360.0, 360.0)),
    )
    return cfg, draw(st.floats(0.0, 2 * SIDEREAL_DAY))
