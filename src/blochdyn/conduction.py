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
serves every fraction: fillings makes that pass and returns each fraction's
velocity sum, label and Σ m/m* by name, and velocity_sum and classify are
fillings at a single fraction. The pass reduces the shift to the zone before
it moves the labels, and refuses a shift too large for its float spacing to
place it on the k grid.

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


@dataclass(frozen=True)
class FillingResult:
    """One fraction's share of a fillings pass.

    velocity_sum is velocity_sum's value, label is classify's, and response is
    the signed Σ m/m* of the occupied states at the pass's shift, the rate at
    which a further shift moves velocity_sum.
    """

    velocity_sum: float
    label: str
    response: float


def fillings(pot: FourierPotential, n: int, band: int, n_k: int, shift: float,
             fractions) -> list[FillingResult]:
    """velocity_sum, classify and Σ m/m* of band at each of fractions, from one band pass.

    Every fraction's filling is BandFilling(band, n_k, fraction, shift), on the
    k grid of pot's lattice constant. Each fraction's occupied states are a
    prefix of the largest one's, so each sum is math.fsum over its own prefix
    of the one pass, which _folded_pass makes at the distinct |k|.

    The shift is reduced to the zone once, before it moves the labels, so a
    shift far outside the zone rounds the way its in-zone image does, and an
    in-zone shift reduces to itself bitwise (bar -0.0, which becomes 0.0).
    That reduction is exact only to about one float spacing of the shift, so
    a shift whose spacing exceeds 1e-4 of the grid step Δk = 2π/(a·n_k) is
    refused with ConfigError: rounding, not the shift, would decide where in
    the zone the labels land.
    """
    grid = BandFilling(band, n_k, 0.0)
    _check_band(band, n)
    counts = [replace(grid, fraction=f).occupied_count for f in fractions]
    dk = TWO_PI / (pot.a * n_k)
    if not math.ulp(shift) <= 1e-4 * dk:
        raise ConfigError(f"gauge shift {shift!r} is too large for the k grid: its float "
                          f"spacing {math.ulp(shift)!r} exceeds 1e-4 of the grid step "
                          f"2π/(a·n_k) = {dk!r}")
    largest = replace(grid, fraction=max(fractions, default=0.0))
    ks = reduce_to_zone(largest.occupied_k(pot.a) + reduce_to_zone(shift, pot.a), pot.a)
    velocity, inv_mass = _folded_pass(ks, pot, n, band)
    probe = 1e-4 * TWO_PI / pot.a
    out = []
    for count in counts:
        response = math.fsum(inv_mass[:count])
        moved = abs(response) * probe > 1e-8 * n_k
        out.append(FillingResult(math.fsum(velocity[:count]),
                                 "conductor" if moved else "insulator", response))
    return out


def velocity_sum(filling: BandFilling, pot: FourierPotential, n: int) -> float:
    """Total group velocity of the occupied, shift-transported states.

    Each occupied label k contributes the band velocity at
    reduce(k + reduce(shift)). Velocities come from the eigenvector
    expectation of the plane-wave momenta (the exact band derivative);
    accumulation uses exact summation so the result is independent of
    evaluation order.
    """
    return fillings(pot, n, filling.band, filling.n_k, filling.shift,
                    [filling.fraction])[0].velocity_sum


def classify(filling: BandFilling, pot: FourierPotential, n: int) -> str:
    """"conductor" when a small shift would move the velocity sum, else "insulator".

    The rate is Σ m/m* of the same occupied states at the filling's shift (k·p
    inverse masses). A conductor's sum would move by more than 1e-8·n_k under
    a further shift of 1e-4 of a reciprocal lattice vector.
    """
    return fillings(pot, n, filling.band, filling.n_k, filling.shift,
                    [filling.fraction])[0].label
