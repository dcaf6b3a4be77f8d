"""Filled-band cancellation, shift response, and the solenoid numbers."""

import itertools
import math

import numpy as np
import pytest

from blochdyn import (
    BandFilling,
    FourierPotential,
    band_derivatives,
    classify,
    effective_mass,
    fractional_displacement,
    random_symmetric,
    reduce_to_zone,
    single_cosine,
    solenoid_shift,
    velocity_sum,
)
from blochdyn.conduction import _sums_and_labels

TWO_PI = 2.0 * math.pi
WEAK = single_cosine(1.0, 0.25)
# complex coefficients: V(-x) != V(x)
SKEW = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j,
                              2: 0.1 - 0.15j, -2: 0.1 + 0.15j})


# --------------------------------------------------------------------------
# occupation bookkeeping


def test_grid_is_midpoint_offset_and_symmetric():
    f = BandFilling(band=0, n_k=64, fraction=1.0)
    grid = f.k_grid
    dk = TWO_PI / 64
    assert grid[0] == pytest.approx(-math.pi + 0.5 * dk)
    assert grid[-1] == pytest.approx(math.pi - 0.5 * dk)
    assert 0.0 not in grid
    # exact mirror pairing keeps symmetric fillings symmetric
    np.testing.assert_allclose(np.sort(grid) + np.sort(grid)[::-1], 0.0,
                               atol=1e-15)


def test_occupied_states_fill_from_smallest_momentum():
    f = BandFilling(band=0, n_k=64, fraction=4 / 64)
    dk = TWO_PI / 64
    np.testing.assert_allclose(
        f.occupied_k,
        [-0.5 * dk, 0.5 * dk, -1.5 * dk, 1.5 * dk], atol=1e-15)


def test_occupied_count_rounds():
    assert BandFilling(0, 64, 0.5).occupied_count == 32
    assert BandFilling(0, 64, 1.0).occupied_count == 64
    assert BandFilling(0, 64, 0.0).occupied_count == 0


def test_filling_validation():
    with pytest.raises(ValueError):
        BandFilling(band=0, n_k=32, fraction=0.5)
    with pytest.raises(ValueError):
        BandFilling(band=0, n_k=64, fraction=1.5)
    with pytest.raises(ValueError):
        BandFilling(band=0, n_k=64, fraction=-0.1)
    with pytest.raises(ValueError):
        BandFilling(band=-1, n_k=64, fraction=0.5)


# --------------------------------------------------------------------------
# velocity sums


def test_filled_band_velocity_cancels_with_and_without_shift():
    # velocity structure near the gap lives on a k scale of roughly V1/pi,
    # so the grid sum cancels only up to aliasing that dies out with n_k
    rng = np.random.default_rng(7)
    for _ in range(3):
        pot = random_symmetric(1.0, rng)
        for shift in (0.0, 0.37 * TWO_PI):
            f = BandFilling(band=0, n_k=256, fraction=1.0, shift=shift)
            assert abs(velocity_sum(f, pot, 6)) < 1e-8 * f.n_k


def test_half_filling_unshifted_cancels():
    f = BandFilling(band=0, n_k=64, fraction=0.5)
    assert abs(velocity_sum(f, WEAK, 8)) < 1e-9


def test_shift_response_matches_inverse_mass_sum():
    s = 1e-4 * TWO_PI
    f = BandFilling(band=0, n_k=64, fraction=0.5, shift=s)
    response = velocity_sum(f, WEAK, 8)
    inv_mass = math.fsum(1.0 / effective_mass(k, 0, WEAK, 8)
                         for k in f.occupied_k)
    assert response == pytest.approx(s * inv_mass, rel=1e-4)


def test_shift_response_is_odd():
    s = 3e-3
    up = velocity_sum(BandFilling(0, 64, 0.5, s), WEAK, 8)
    down = velocity_sum(BandFilling(0, 64, 0.5, -s), WEAK, 8)
    assert up == pytest.approx(-down, abs=1e-12)
    assert abs(up) > 1e-5


def test_response_stable_under_grid_doubling():
    s = 1e-3
    coarse = velocity_sum(BandFilling(0, 64, 0.5, s), WEAK, 8)
    fine = velocity_sum(BandFilling(0, 128, 0.5, s), WEAK, 8)
    # extensive quantity: doubling the grid doubles the sum
    assert fine == pytest.approx(2.0 * coarse, rel=1e-3)


# --------------------------------------------------------------------------
# conductor vs insulator


def test_classification_trio():
    # n_k large enough that the full-band probe stays below threshold
    assert classify(BandFilling(0, 256, 0.0), WEAK, 8) == "insulator"
    assert classify(BandFilling(0, 256, 0.5), WEAK, 8) == "conductor"
    assert classify(BandFilling(0, 256, 1.0), WEAK, 8) == "insulator"


def test_velocity_sum_needs_the_potential_lattice_constant():
    wide = single_cosine(2.0, 0.25)
    assert classify(BandFilling(0, 256, 0.5, a=2.0), wide, 8) == "conductor"
    with pytest.raises(ValueError):
        velocity_sum(BandFilling(0, 256, 0.5), wide, 8)


def test_shifted_half_filling_is_a_conductor():
    # the label is read at the filling's own shift, whatever that shift is
    f = BandFilling(0, 256, 0.5, shift=1e-4 * TWO_PI)
    assert classify(f, single_cosine(1.0, 0.05), 10) == "conductor"


def _probe_label(filling, pot, n):
    """Finite-difference reference: does a further shift of 1e-4·2π/a move the sum?"""
    probed = BandFilling(filling.band, filling.n_k, filling.fraction,
                         filling.shift + 1e-4 * TWO_PI / pot.a, filling.a)
    moved = abs(velocity_sum(probed, pot, n) - velocity_sum(filling, pot, n))
    return "conductor" if moved > 1e-8 * filling.n_k else "insulator"


def test_labels_match_a_finite_difference_probe():
    # measured margins: conductors at least 4000x the threshold, insulators
    # at most 0.002x
    rng = np.random.default_rng(11)
    labels = set()
    for pot in [WEAK] + [random_symmetric(1.0, rng) for _ in range(3)]:
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            for shift in (0.0, 1e-4 * TWO_PI, 0.37 * TWO_PI):
                f = BandFilling(0, 256, fraction, shift)
                label = classify(f, pot, 8)
                assert label == _probe_label(f, pot, 8), (pot, fraction, shift)
                labels.add(label)
    assert labels == {"conductor", "insulator"}


def _inverse_mass_sum(filling, pot, n):
    """Signed Σ m/m* of the occupied states, from a band pass of their own."""
    ks = reduce_to_zone(filling.occupied_k + filling.shift, pot.a)
    _, _, inv_mass = band_derivatives(ks, pot, n, filling.band + 1)
    return math.fsum(inv_mass[:, filling.band])


def test_one_pass_per_shift_equals_the_per_filling_calls():
    # every fraction's states are a prefix of the largest one's, so the shared
    # pass sums each prefix exactly as a pass of its own does; n_k = 65 makes
    # round(fraction·n_k) round
    rng = np.random.default_rng(29)
    fractions = [0.5, 1.0, 0.0, 0.75, 0.25]
    for pot in [WEAK, SKEW] + [random_symmetric(1.0, rng) for _ in range(3)]:
        for band, n_k, shift in itertools.product((0, 1), (64, 65), (0.0, 0.37 * TWO_PI)):
            grid = BandFilling(band, n_k, 0.0, shift)
            want = [(velocity_sum(f, pot, 8), classify(f, pot, 8), _inverse_mass_sum(f, pot, 8))
                    for f in (BandFilling(band, n_k, frac, shift) for frac in fractions)]
            assert _sums_and_labels(grid, pot, 8, fractions) == want, (pot, band, n_k, shift)


def test_one_pass_per_shift_rejects_what_a_filling_rejects():
    grid = BandFilling(0, 64, 0.0)
    with pytest.raises(ValueError):
        _sums_and_labels(grid, WEAK, 8, [0.5, 1.5])
    with pytest.raises(ValueError):
        _sums_and_labels(grid, single_cosine(2.0, 0.25), 8, [0.5])
    assert _sums_and_labels(grid, WEAK, 8, []) == []


# --------------------------------------------------------------------------
# solenoid scenario


def test_solenoid_shift_frozen():
    # [DERIVED] e·(mu0·n·I)·area/(2*pi*r*hbar) for n=1000/m, I=1 mA,
    # area=1 cm^2, r=10 cm
    assert solenoid_shift(1000.0, 1e-3, 1e-4, 0.1) == pytest.approx(
        303853.48992731253, rel=1e-12)


def test_solenoid_shift_scales_linearly():
    base = solenoid_shift(1000.0, 1e-3, 1e-4, 0.1)
    assert solenoid_shift(2000.0, 1e-3, 1e-4, 0.1) == pytest.approx(
        2.0 * base, rel=1e-12)
    assert solenoid_shift(1000.0, 3e-3, 1e-4, 0.1) == pytest.approx(
        3.0 * base, rel=1e-12)
    assert solenoid_shift(1000.0, 0.0, 1e-4, 0.1) == 0.0


def test_solenoid_shift_validation():
    with pytest.raises(ValueError):
        solenoid_shift(0.0, 1e-3, 1e-4, 0.1)
    with pytest.raises(ValueError):
        solenoid_shift(1000.0, -1e-3, 1e-4, 0.1)
    with pytest.raises(ValueError):
        solenoid_shift(1000.0, 1e-3, 0.0, 0.1)
    with pytest.raises(ValueError):
        solenoid_shift(1000.0, 1e-3, 1e-4, -0.1)


def test_fractional_displacement_frozen():
    k0 = 15707963267.948965  # pi / (2 Angstrom)
    shift = solenoid_shift(1000.0, 1e-3, 1e-4, 0.1)
    # [DERIVED] relative crowding of the filled sea at that shift
    assert fractional_displacement(k0, shift) == pytest.approx(
        1.934391395906209e-05, rel=1e-12)
    # [TRIVIAL] 1e4 / (pi/2 * 1e10) = 2e-6/pi
    assert fractional_displacement(k0, 1e4) == pytest.approx(
        6.366197723675814e-07, rel=1e-12)


def test_fractional_displacement_rejects_bad_k0():
    with pytest.raises(ValueError):
        fractional_displacement(0.0, 1.0)
    with pytest.raises(ValueError):
        fractional_displacement(-1e9, 1.0)
