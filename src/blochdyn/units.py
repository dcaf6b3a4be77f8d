"""Natural units with ħ = m_e = e = 1 and length measured in lattice constants.

All physics modules work with dimensionless internal numbers. The mapping to
SI is fixed by the reference length a_ref (the lattice constant in meters)
together with CODATA values of ħ, m_e and e. One internal unit of each
dimension corresponds to:

    length          a
    wavevector      1/a
    time            m_e a² / ħ
    velocity        ħ / (m_e a)
    energy          ħ² / (m_e a²)
    electric field  ħ² / (m_e e a³)     (energy per charge per length)
    magnetic field  ħ / (e a²)

For a = 1 Å the energy unit is ≈ 7.62 eV and the electric-field unit is
≈ 7.62e10 V/m, so laboratory fields of order 10 V/m become internal numbers
of order 1e-10 while band-structure matrix entries stay O(1)-O(100).

The solenoid kick eA/ħ and its size against a wavevector are SI scalar
arithmetic on these constants, so they live here and need no numpy.
"""

from __future__ import annotations

import math

from .errors import ConfigError

# CODATA 2018
HBAR_SI = 1.054571817e-34      # J s
M_E_SI = 9.1093837015e-31      # kg
E_CHARGE_SI = 1.602176634e-19  # C
MU0_SI = 1.25663706212e-6      # N A^-2

DIMENSION_TAGS = (
    "length",
    "time",
    "energy",
    "electric_field",
    "magnetic_field",
    "wavevector",
    "velocity",
)


class UnitSystem:
    """Bidirectional SI conversions for a fixed reference lattice constant.

    Parameters
    ----------
    a_ref_m : float
        Lattice constant in meters; internal length 1 maps to this.
    """

    def __init__(self, a_ref_m: float = 1e-10):
        if not (a_ref_m > 0.0 and math.isfinite(a_ref_m)):
            raise ConfigError(f"a_ref_m must be positive and finite, got {a_ref_m!r}")
        self.a_ref_m = a_ref_m
        a = a_ref_m
        try:   # a ** 3 can overflow, and a * a underflow to 0
            self._factors = {
                "length": a,
                "time": M_E_SI * a * a / HBAR_SI,
                "energy": HBAR_SI * HBAR_SI / (M_E_SI * a * a),
                "electric_field": HBAR_SI * HBAR_SI / (M_E_SI * E_CHARGE_SI * a ** 3),
                "magnetic_field": HBAR_SI / (E_CHARGE_SI * a * a),
                "wavevector": 1.0 / a,
                "velocity": HBAR_SI / (M_E_SI * a),
            }
            representable = all(0.0 < f < math.inf for f in (*self._factors.values(),
                                                               self.energy_eV))
        except (OverflowError, ZeroDivisionError):
            representable = False
        if not representable:
            raise ConfigError(f"a_ref_m={a_ref_m!r} puts an SI unit factor outside float range")

    def factor(self, tag: str) -> float:
        """SI value of one internal unit of the given dimension."""
        try:
            return self._factors[tag]
        except KeyError:
            raise ConfigError(
                f"unknown dimension tag {tag!r}; expected one of {DIMENSION_TAGS}"
            ) from None

    def to_internal(self, value_si: float, tag: str) -> float:
        return value_si / self.factor(tag)

    def to_si(self, value_internal: float, tag: str) -> float:
        return value_internal * self.factor(tag)

    @property
    def energy_eV(self) -> float:
        """SI energy unit expressed in electron volts."""
        return self._factors["energy"] / E_CHARGE_SI

    def __repr__(self) -> str:
        return f"UnitSystem(a_ref_m={self.a_ref_m!r})"


def solenoid_shift(n_turns_per_m: float, current_A: float, area_m2: float,
                   radius_m: float) -> float:
    """Momentum shift eA/ħ (SI, m⁻¹) from a solenoid piercing a conducting loop.

    B = μ0·n·I inside the solenoid; the loop of radius r acquires the steady
    vector potential A = B·a_r/(2πr).
    """
    if n_turns_per_m <= 0.0 or area_m2 <= 0.0 or radius_m <= 0.0:
        raise ConfigError("turn density, area and radius must be positive")
    if current_A < 0.0:
        raise ConfigError("current must be nonnegative")
    B = MU0_SI * n_turns_per_m * current_A
    A = B * area_m2 / (2.0 * math.pi * radius_m)
    return E_CHARGE_SI * A / HBAR_SI


def fractional_displacement(k0_si: float, shift_si: float) -> float:
    """shift/k0 for SI wavevectors; the relative crowding of the filled sea."""
    if k0_si <= 0.0:
        raise ConfigError("k0 must be positive")
    return shift_si / k0_si
