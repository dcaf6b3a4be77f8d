"""Band filling and velocity sums under a gauge shift.

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

Time reversal makes each pass solve every |k| once. On a Hermitian lattice,
real or complex, H(-k) is the conjugate of H(k) with the plane waves
reversed, l -> -l, so ε(-k) = ε(k): the energy and m/m* are even in k and the
velocity is odd. A pass solves at the distinct |k| of its reduced states and
gives each state v(k) = sign(k)·v(|k|), so a filling closed under k -> -k,
such as an unshifted filling of whole mirror pairs, sums to exactly 0.0.
Without a shift this halves the eigensolves; under a shift the reduced
states rarely pair up, and the pass solves about one k per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .central_equation import TWO_PI, _check_band, band_derivatives, reduce_to_zone
from .errors import ConfigError
from .potential import FourierPotential


@dataclass(frozen=True)
class BandFilling:
    """Occupation of one band on a uniform k grid over [-π/a, π/a).

    The lattice constant a is the potential's, so the grid methods take it
    as an argument. The grid is midpoint-offset, k_i = -π/a + (i + ½)Δk, which
    keeps the endpoint excluded. The lower half is evaluated from that formula
    and the upper half is its exact negation, so every state pairs bitwise
    with its mirror at -k, and an odd n_k puts its middle state at exactly 0.0.
    Occupied states are the round(fraction·n_k) labels of smallest |k|, the
    negative partner of each pair first. By time reversal, v(-k) = -v(k): an
    unshifted filling that holds whole mirror pairs (an even count on an even
    grid, an odd count on an odd one) sums to exactly zero velocity.
    """

    band: int
    n_k: int
    fraction: float
    shift: float = 0.0

    def __post_init__(self):
        if self.band < 0:
            raise ConfigError(f"band must be nonnegative, got {self.band}")
        if self.n_k < 64:
            raise ConfigError(f"need at least 64 k points, got {self.n_k}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(f"fraction must lie in [0, 1], got {self.fraction!r}")

    def k_grid(self, a: float) -> np.ndarray:
        dk = TWO_PI / (a * self.n_k)
        lower = -np.pi / a + (np.arange(self.n_k // 2) + 0.5) * dk
        return np.concatenate([lower, np.zeros(self.n_k % 2), -lower[::-1]])

    @property
    def occupied_count(self) -> int:
        return int(round(self.fraction * self.n_k))

    def occupied_k(self, a: float) -> np.ndarray:
        grid = self.k_grid(a)
        # ascending |k|, mirror pairs adjacent, negative partner first
        order = np.lexsort((grid, np.abs(grid)))
        return grid[order[: self.occupied_count]]


def _folded_pass(ks: np.ndarray, pot: FourierPotential, n: int, band: int):
    """Velocity and m/m* of band at each reduced k in ks, one solve per distinct |k|.

    By time reversal (module docstring) v(k) = sign(k)·v(|k|) and m/m* is even.
    """
    magnitudes, state = np.unique(np.abs(ks), return_inverse=True)
    _, velocity, inv_mass = band_derivatives(magnitudes, pot, n, band + 1)
    return np.sign(ks) * velocity[state, band], inv_mass[state, band]


def _sums_and_labels(filling: BandFilling, pot: FourierPotential, n: int,
                     fractions) -> list[tuple[float, str, float]]:
    """velocity_sum, classify and the signed Σ m/m* of filling at each of fractions.

    All three come from one band pass. filling fixes the band, n_k and shift,
    and pot the lattice constant of the k grid; filling's own fraction is not
    used. Each fraction's occupied states are a prefix of the largest one's,
    so each sum is math.fsum over its own prefix of the one pass, which
    _folded_pass makes at the distinct |k|.
    """
    _check_band(filling.band, n)
    counts = [replace(filling, fraction=f).occupied_count for f in fractions]
    largest = replace(filling, fraction=max(fractions, default=0.0))
    ks = reduce_to_zone(largest.occupied_k(pot.a) + filling.shift, pot.a)
    velocity, inv_mass = _folded_pass(ks, pot, n, filling.band)
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
