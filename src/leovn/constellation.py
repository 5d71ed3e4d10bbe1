"""Walker-star constellation geometry and circular-orbit propagation.

Generates the pi-type polar constellation (ascending nodes spread over 180
deg) and propagates satellites on circular two-body orbits above a spherical
rotating Earth.  This is the ground truth every mapping and topology module
is checked against.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

MU_EARTH = 3.986004418e14       # m^3/s^2
R_EARTH = 6_371_000.0           # mean radius, m
SIDEREAL_DAY = 86164.0905       # s
OMEGA_EARTH = 2.0 * math.pi / SIDEREAL_DAY


class ConfigError(ValueError):
    """A constellation parameter violates its documented bound."""


@dataclass(frozen=True)
class ConstellationConfig:
    """Walker-star constellation parameters.

    ``num_planes`` (n1) planes separated by exactly 180/n1 deg of RAAN,
    ``sats_per_plane`` (n2) satellites per plane separated by exactly
    360/n2 deg of phase, and inter-plane phase offset set by the integer
    ``phasing_factor`` (F).  The three counts must be Python ints.  Angular
    inputs are degrees; radian values are exposed as properties.  The five
    float fields take any real number but a bool, must be finite, and are
    stored as Python floats, so equal values give equal reprs and digests.
    ``phase0_deg`` defaults to ``-polar_threshold_deg`` so that satellite
    (1,1) starts at the foot of virtual row 1.
    """
    num_planes: int
    sats_per_plane: int
    phasing_factor: int = 0
    altitude_km: float = 780.0
    inclination_deg: float = 90.0
    polar_threshold_deg: float = 70.0
    raan0_deg: float = 0.0
    phase0_deg: float | None = None

    def __post_init__(self) -> None:
        for name in ("altitude_km", "inclination_deg", "polar_threshold_deg",
                     "raan0_deg", "phase0_deg"):
            value = getattr(self, name)
            if value is None and name == "phase0_deg":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        for name in ("num_planes", "sats_per_plane", "phasing_factor"):
            value = getattr(self, name)
            if type(value) is not int:      # a bool or numpy int would change the digest
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.num_planes < 2:
            raise ConfigError(f"num_planes must be >= 2, got {self.num_planes}")
        if self.sats_per_plane < 3:
            raise ConfigError(f"sats_per_plane must be >= 3, got {self.sats_per_plane}")
        if not 0 <= self.phasing_factor <= self.sats_per_plane - 1:
            raise ConfigError(
                f"phasing_factor must satisfy 0 <= F <= n2-1, got {self.phasing_factor}")
        if self.altitude_km <= 0:
            raise ConfigError(f"altitude_km must be > 0, got {self.altitude_km}")
        if not 0 < self.polar_threshold_deg <= 90:
            raise ConfigError(
                f"polar_threshold_deg must be in (0, 90], got {self.polar_threshold_deg}")
        if not 0 < self.inclination_deg <= 180:
            raise ConfigError(
                f"inclination_deg must be in (0, 180], got {self.inclination_deg}")
        if self.phase0_deg is None:
            object.__setattr__(self, "phase0_deg", -self.polar_threshold_deg)

    # -- sizes ------------------------------------------------------------
    @property
    def total_sats(self) -> int:
        return self.num_planes * self.sats_per_plane

    # -- float radians for geometry ----------------------------------------
    @property
    def raan_step(self) -> float:
        return math.pi / self.num_planes

    @property
    def inclination(self) -> float:
        return math.radians(self.inclination_deg)

    @property
    def polar_threshold(self) -> float:
        return math.radians(self.polar_threshold_deg)

    @property
    def altitude_m(self) -> float:
        return self.altitude_km * 1000.0

    @property
    def orbit_radius(self) -> float:
        return R_EARTH + self.altitude_m

    @property
    def period(self) -> float:
        """Circular-orbit period in seconds, by Kepler's third law, spherical
        Earth."""
        return 2.0 * math.pi * math.sqrt(self.orbit_radius ** 3 / MU_EARTH)


def _phase(config: ConstellationConfig, t: float, turn: float) -> np.ndarray:
    """Unwrapped along-track phase of every satellite at time t, in units of
    which ``turn`` make a full circle (360.0 for degrees, 2pi for radians).

    One expression for both units, summed left to right, each term's constant
    rounded once: ``turn / 360.0`` is 1.0 or exactly ``pi / 180``, and
    ``turn * F / N`` rounds like the exact offset.  So the radian phase is
    not ``radians`` of the degree phase, which can differ in the last bit:
    at t=0 satellites sit exactly on the closed edges of the throughput
    boxes, where a 1-ulp change moves them in or out of a box.
    """
    planes, slots = _plane_slot_index(config)
    n1, n2 = config.num_planes, config.sats_per_plane
    return (config.phase0_deg * (turn / 360.0) + slots * (turn / n2)
            + planes * (turn * config.phasing_factor / (n1 * n2))
            + turn * t / config.period)


def phases_deg(config: ConstellationConfig, t: float) -> np.ndarray:
    """Unwrapped along-track phase (degrees) of every satellite at time t.

    Flat-indexed (plane-1)*n2 + slot-1.  Callers wrap or reshape as needed.
    """
    return _phase(config, t, 360.0)


def propagate_all(config: ConstellationConfig, t: float):
    """Vectorized states for the full constellation at time t.

    Returns (positions, lats, ground_lons), flat-indexed (plane-1)*n2 +
    slot-1: inertial positions in meters, sub-point latitude and
    rotating-Earth longitude in radians.
    """
    u = np.mod(_phase(config, t, 2.0 * math.pi), 2.0 * math.pi)
    unit = _orbit_unit_vectors(u, *_raan_trig(config), config.inclination)
    pos = config.orbit_radius * unit
    lats = np.arcsin(np.clip(unit[:, 2], -1.0, 1.0))
    lons = np.mod(np.arctan2(pos[:, 1], pos[:, 0]) - OMEGA_EARTH * t + math.pi,
                  2.0 * math.pi) - math.pi
    return pos, lats, lons


def _orbit_unit_vectors(u, co, so, inclination: float) -> np.ndarray:
    """Inertial unit vectors at argument of latitude ``u`` (radians) on
    circular orbits whose ascending nodes have cosine ``co`` and sine ``so``;
    the last axis is (x, y, z).
    """
    cu, su = np.cos(u), np.sin(u)
    ci, si = math.cos(inclination), math.sin(inclination)
    return np.stack([cu * co - su * ci * so,
                     cu * so + su * ci * co,
                     su * si], axis=-1)


@lru_cache(maxsize=None)
def _plane_slot_index(config: ConstellationConfig) -> tuple[np.ndarray, np.ndarray]:
    """0-based plane and slot of every flat satellite index (read-only)."""
    n1, n2 = config.num_planes, config.sats_per_plane
    planes, slots = np.repeat(np.arange(n1), n2), np.tile(np.arange(n2), n1)
    for array in (planes, slots):
        array.flags.writeable = False
    return planes, slots


@lru_cache(maxsize=None)
def _raan_trig(config: ConstellationConfig) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every flat satellite's plane RAAN (read-only): they do
    not change with time."""
    planes, _ = _plane_slot_index(config)
    raan = math.radians(config.raan0_deg) + planes * config.raan_step
    co, so = np.cos(raan), np.sin(raan)
    for array in (co, so):
        array.flags.writeable = False
    return co, so


# -- configuration file ingestion ------------------------------------------

# The eight configuration fields, as (config-file key, command-line flag,
# ConstellationConfig field, type, flag help): the file reader, the CLI
# parser and its overlay of flags on the file all loop over this table.
CONFIG_FIELDS = (
    ("n1", "--n1", "num_planes", int, "number of orbit planes"),
    ("n2", "--n2", "sats_per_plane", int, "satellites per plane"),
    ("F", "--f", "phasing_factor", int, "phasing factor F"),
    ("altitude_km", "--altitude-km", "altitude_km", float, None),
    ("inclination_deg", "--inclination-deg", "inclination_deg", float, None),
    ("polar_threshold_deg", "--polar-deg", "polar_threshold_deg", float,
     "polar shut-off latitude threshold"),
    ("raan0_deg", "--raan0-deg", "raan0_deg", float, None),
    ("phase0_deg", "--phase0-deg", "phase0_deg", float, None),
)


def read_config_file(path: str | Path) -> dict[str, int | float]:
    """Read a key/value config file (``key = value``, ``#`` comments) into
    ``ConstellationConfig`` keyword arguments, unresolved, so that values
    laid over them still resolve the defaults (``phase0_deg`` included).

    Recognized keys: the first column of ``CONFIG_FIELDS``.  Unknown or
    repeated keys and malformed values raise ConfigError naming the key; n1
    and n2 may be left to command-line flags.  A file that cannot be read,
    or is not UTF-8, raises ConfigError naming the path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    fields = {key: (name, cast) for key, _, name, cast, _ in CONFIG_FIELDS}
    kwargs, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}, "
                              f"first set on line {first_line[key]}")
        first_line[key] = lineno
        field_name, cast = fields[key]
        try:
            kwargs[field_name] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return kwargs
