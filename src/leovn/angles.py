"""Angle arithmetic helpers shared by the division and topology modules.

Geometry runs in float radians.  Cell-boundary bookkeeping runs in exact
rational degrees (``fractions.Fraction``) so that floor/ceil expressions and
interval comparisons are bit-reproducible: converting a threshold like 70 deg
to radians and back through pi does not survive double rounding, and the
division formulas sit exactly on integer boundaries for the configurations of
interest.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Snap tolerance for float phase -> integer cell index.  Satellites that are
# mathematically on a cell boundary land within ~1e-12 of it in double
# precision; anything a real sample places inside a cell is >> 1e-9 away.
CELL_SNAP = 1e-9


def normalize_lon_deg(value) -> Fraction:
    """Normalize a longitude in degrees to [-180, 180), exactly."""
    v = Fraction(value)
    return (v + 180) % 360 - 180


def fold_lat_deg(value) -> Fraction:
    """Fold an unfolded phase-as-latitude angle (degrees) into [-90, 90].

    An along-track angle keeps growing past the pole; the physical latitude
    folds back.  0 -> 0, 80 -> 80, 100 -> 80, 180 -> 0, 250 -> -70.
    """
    v = Fraction(value)
    return 90 - abs(180 - (v + 90) % 360)


def snapped_floor(x: float) -> int:
    """floor(x), treating values within ``CELL_SNAP`` below an integer as on it.

    Cells are half-open [start, start+width): a point exactly on a boundary
    belongs to the upper cell, so float noise just below the boundary must
    round up, not down.
    """
    return math.floor(x + CELL_SNAP)
