"""Band filling, velocity sums under a gauge shift, and the solenoid scenario.

A steady loop vector potential shifts every crystal momentum by eA/ħ.
Occupation labels ride along with the shift (states follow adiabatically),
so a filled band keeps summing to zero velocity while a partially filled
band acquires a net velocity: the conductor/insulator distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .central_equation import TWO_PI, band_derivatives, reduce_to_zone
from .potential import FourierPotential
from .units import E_CHARGE_SI, HBAR_SI, MU0_SI


@dataclass(frozen=True)
class BandFilling:
    """Occupation of one band on a uniform k grid over [-π/a, π/a).

    The grid is midpoint-offset: k_i = -π/a + (i + ½)Δk. That keeps the
    endpoint excluded and makes every state pair up exactly with its mirror
    at -k, so symmetric fillings are exactly symmetric for even counts.
    Occupied states are the round(fraction·n_k) labels of smallest |k|.
    """

    band: int
    n_k: int
    fraction: float
    shift: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        if self.n_k < 64:
            raise ValueError(f"need at least 64 k points, got {self.n_k}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction!r}")

    @property
    def k_grid(self) -> np.ndarray:
        dk = TWO_PI / (self.a * self.n_k)
        return -np.pi / self.a + (np.arange(self.n_k) + 0.5) * dk

    @property
    def occupied_count(self) -> int:
        return int(round(self.fraction * self.n_k))

    @property
    def occupied_k(self) -> np.ndarray:
        grid = self.k_grid
        # ascending |k|, mirror pairs adjacent, negative partner first
        order = np.lexsort((grid, np.abs(grid)))
        return grid[order[: self.occupied_count]]


def velocity_sum(filling: BandFilling, pot: FourierPotential, n: int) -> float:
    """Total group velocity of the occupied, shift-transported states.

    Each occupied label k contributes the band velocity at reduce(k + shift).
    Velocities come from the eigenvector expectation of the plane-wave
    momenta (the exact band derivative); accumulation uses exact summation
    so the result is independent of evaluation order.
    """
    ks = reduce_to_zone(filling.occupied_k + filling.shift, pot.a)
    _, velocity, _ = band_derivatives(ks, pot, n, filling.band + 1)
    return math.fsum(velocity[:, filling.band])


def classify(filling: BandFilling, pot: FourierPotential, n: int,
             probe_shift: float | None = None) -> str:
    """"conductor" when a small shift moves the velocity sum, else "insulator".

    probe_shift defaults to 1e-4 of a reciprocal lattice vector.
    """
    if probe_shift is None:
        probe_shift = 1e-4 * 2.0 * math.pi / pot.a
    if probe_shift <= 0.0:
        raise ValueError("probe_shift must be positive")
    base = velocity_sum(filling, pot, n)
    probed = velocity_sum(BandFilling(filling.band, filling.n_k, filling.fraction,
                                      probe_shift, filling.a), pot, n)
    return "conductor" if abs(probed - base) > 1e-8 * filling.n_k else "insulator"


def solenoid_shift(n_turns_per_m: float, current_A: float, area_m2: float,
                   radius_m: float) -> float:
    """Momentum shift eA/ħ (SI, m⁻¹) from a solenoid piercing a conducting loop.

    B = μ0·n·I inside the solenoid; the loop of radius r acquires the steady
    vector potential A = B·a_r/(2πr).
    """
    if n_turns_per_m <= 0.0 or area_m2 <= 0.0 or radius_m <= 0.0:
        raise ValueError("turn density, area and radius must be positive")
    if current_A < 0.0:
        raise ValueError("current must be nonnegative")
    B = MU0_SI * n_turns_per_m * current_A
    A = B * area_m2 / (2.0 * np.pi * radius_m)
    return E_CHARGE_SI * A / HBAR_SI


def fractional_displacement(k0_si: float, shift_si: float) -> float:
    """shift/k0 for SI wavevectors; the relative crowding of the filled sea."""
    if k0_si <= 0.0:
        raise ValueError("k0 must be positive")
    return shift_si / k0_si
