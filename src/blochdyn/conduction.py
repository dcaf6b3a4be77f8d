"""Band filling, velocity sums under a gauge shift, and the solenoid scenario.

A steady loop vector potential shifts every crystal momentum by eA/ħ.
Occupation labels ride along with the shift (states follow adiabatically),
so a filled band keeps summing to zero velocity while a partially filled
band acquires a net velocity: the conductor/insulator distinction. The
label is read from Σ m/m* of the occupied states at the filling's own shift,
the rate at which a further shift moves the velocity sum (the Drude weight
of Kohn's insulator criterion), in the same band pass as the velocity sum.
The occupied states of every fraction of one band are prefixes of one |k|
order, so one band pass per gauge shift, over the largest fraction's states,
serves every fraction of a conduction run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .central_equation import TWO_PI, band_derivatives, reduce_to_zone
from .errors import ConfigError
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
        if self.band < 0:
            raise ConfigError(f"band must be nonnegative, got {self.band}")
        if self.n_k < 64:
            raise ConfigError(f"need at least 64 k points, got {self.n_k}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(f"fraction must lie in [0, 1], got {self.fraction!r}")

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


def _sums_and_labels(filling: BandFilling, pot: FourierPotential, n: int,
                     fractions) -> list[tuple[float, str, float]]:
    """velocity_sum, classify and the signed Σ m/m* of filling at each of fractions.

    All three come from one band pass. filling fixes the band, n_k, shift and
    a; its own fraction is not used. Each fraction's occupied states are a
    prefix of the largest one's, so each sum is math.fsum over its own prefix
    of the one pass.
    """
    if filling.a != pot.a:
        raise ConfigError(f"filling grid has a={filling.a!r}, the potential a={pot.a!r}")
    counts = [replace(filling, fraction=f).occupied_count for f in fractions]
    largest = replace(filling, fraction=max(fractions, default=0.0))
    ks = reduce_to_zone(largest.occupied_k + filling.shift, pot.a)
    _, velocity, inv_mass = band_derivatives(ks, pot, n, filling.band + 1)
    velocity, inv_mass = velocity[:, filling.band], inv_mass[:, filling.band]
    probe = 1e-4 * TWO_PI / pot.a
    out = []
    for count in counts:
        response = math.fsum(inv_mass[:count])
        moved = abs(response) * probe > 1e-8 * filling.n_k
        out.append((math.fsum(velocity[:count]), "conductor" if moved else "insulator",
                    response))
    return out


def velocity_sum(filling: BandFilling, pot: FourierPotential, n: int) -> float:
    """Total group velocity of the occupied, shift-transported states.

    Each occupied label k contributes the band velocity at reduce(k + shift).
    Velocities come from the eigenvector expectation of the plane-wave
    momenta (the exact band derivative); accumulation uses exact summation
    so the result is independent of evaluation order.
    """
    return _sums_and_labels(filling, pot, n, [filling.fraction])[0][0]


def classify(filling: BandFilling, pot: FourierPotential, n: int) -> str:
    """"conductor" when a small shift would move the velocity sum, else "insulator".

    The rate is Σ m/m* of the same occupied states at the filling's shift (k·p
    inverse masses). A conductor's sum would move by more than 1e-8·n_k under
    a further shift of 1e-4 of a reciprocal lattice vector.
    """
    return _sums_and_labels(filling, pot, n, [filling.fraction])[0][1]


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
    A = B * area_m2 / (2.0 * np.pi * radius_m)
    return E_CHARGE_SI * A / HBAR_SI


def fractional_displacement(k0_si: float, shift_si: float) -> float:
    """shift/k0 for SI wavevectors; the relative crowding of the filled sea."""
    if k0_si <= 0.0:
        raise ConfigError("k0 must be positive")
    return shift_si / k0_si
