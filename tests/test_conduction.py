"""Filled-band cancellation, shift response, and the solenoid numbers."""

import itertools
import math
import random

import numpy as np
import pytest

from blochdyn import (
    BandFilling,
    FourierPotential,
    band_derivatives,
    classify,
    effective_mass,
    fillings,
    fractional_displacement,
    random_symmetric,
    reduce_to_zone,
    single_cosine,
    solenoid_shift,
    velocity_sum,
)
from blochdyn.conduction import FillingResult, _folded_pass
from blochdyn.errors import ConfigError

TWO_PI = 2.0 * math.pi
WEAK = single_cosine(1.0, 0.25)
# complex coefficients: V(-x) != V(x)
SKEW = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j,
                              2: 0.1 - 0.15j, -2: 0.1 + 0.15j})


# --------------------------------------------------------------------------
# occupation bookkeeping


def test_grid_is_midpoint_offset_and_symmetric():
    f = BandFilling(band=0, n_k=64, fraction=1.0)
    grid = f.k_grid(1.0)
    dk = TWO_PI / 64
    assert grid[0] == pytest.approx(-math.pi + 0.5 * dk)
    assert grid[-1] == pytest.approx(math.pi - 0.5 * dk)
    assert 0.0 not in grid
    # the upper half is the lower half negated, so every state pairs bitwise
    # with its mirror, and an odd grid's middle state is exactly 0.0
    for a, n_k in itertools.product((1.0, 0.7), (64, 65, 1024)):
        grid = BandFilling(0, n_k, 1.0).k_grid(a)
        np.testing.assert_array_equal(grid[::-1], -grid)
        assert n_k % 2 == 0 or grid[n_k // 2] == 0.0


def test_occupied_states_fill_from_smallest_momentum():
    f = BandFilling(band=0, n_k=64, fraction=4 / 64)
    dk = TWO_PI / 64
    np.testing.assert_allclose(
        f.occupied_k(1.0),
        [-0.5 * dk, 0.5 * dk, -1.5 * dk, 1.5 * dk], atol=1e-15)


@pytest.mark.parametrize("a", [1.0, 0.7])
@pytest.mark.parametrize("n_k", [64, 65, 1024])
def test_occupied_k_puts_the_negative_partner_first(n_k, a):
    occupied = BandFilling(0, n_k, 1.0).occupied_k(a)
    # an odd grid fills its exact k = 0 first
    assert n_k % 2 == 0 or occupied[0] == 0.0
    negative, positive = occupied[n_k % 2::2], occupied[n_k % 2 + 1::2]
    assert np.all(negative < 0.0)
    np.testing.assert_array_equal(positive, -negative)


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
                         for k in f.occupied_k(1.0))
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


def test_the_k_grid_takes_the_potential_lattice_constant():
    # at a = 2 every k label is half the a = 1 label, and the labels follow the wider lattice
    wide = single_cosine(2.0, 0.25)
    half = BandFilling(0, 256, 0.5)
    np.testing.assert_array_equal(half.k_grid(2.0), half.k_grid(1.0) / 2.0)
    assert classify(half, wide, 8) == "conductor"
    assert classify(BandFilling(0, 256, 1.0), wide, 8) == "insulator"


def test_shifted_half_filling_is_a_conductor():
    # the label is read at the filling's own shift, whatever that shift is
    f = BandFilling(0, 256, 0.5, shift=1e-4 * TWO_PI)
    assert classify(f, single_cosine(1.0, 0.05), 10) == "conductor"


@pytest.mark.parametrize("factor, label", [(0.5, "insulator"), (2.0, "conductor")])
def test_the_conductor_threshold_is_1e_8_per_k_point(monkeypatch, factor, label):
    # a state's response Σ m/m* is a conductor's once a further shift of 1e-4·2π/a
    # would move the velocity sum by more than 1e-8·n_k; the pass is replaced by one
    # whose occupied states sum to factor times that threshold
    n_k, a = 256, 2.0
    threshold = 1e-8 * n_k / (1e-4 * TWO_PI / a)

    def one_state_responds(ks, pot, n, band):
        inv_mass = np.zeros(len(ks))
        inv_mass[0] = factor * threshold
        return np.zeros(len(ks)), inv_mass

    monkeypatch.setattr("blochdyn.conduction._folded_pass", one_state_responds)
    result, = fillings(single_cosine(a, 0.25), 8, 0, n_k, 0.0, [0.5])
    assert result.response == factor * threshold
    assert result.label == label


def _probe_label(filling, pot, n):
    """Finite-difference reference: does a further shift of 1e-4·2π/a move the sum?"""
    probed = BandFilling(filling.band, filling.n_k, filling.fraction,
                         filling.shift + 1e-4 * TWO_PI / pot.a)
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
    """Signed Σ m/m* of the occupied states, from a band pass of their own.

    m/m* is even in k, so the pass runs at each state's |k|, as the folded pass does.
    """
    ks = reduce_to_zone(filling.occupied_k(pot.a) + filling.shift, pot.a)
    _, _, inv_mass = band_derivatives(np.abs(ks), pot, n, filling.band + 1)
    return math.fsum(inv_mass[:, filling.band])


def test_one_pass_per_shift_equals_the_per_filling_calls():
    # every fraction's states are a prefix of the largest one's, so the shared
    # pass sums each prefix exactly as a pass of its own does; n_k = 65 makes
    # round(fraction·n_k) round
    rng = np.random.default_rng(29)
    fractions = [0.5, 1.0, 0.0, 0.75, 0.25]
    for pot in [WEAK, SKEW] + [random_symmetric(1.0, rng) for _ in range(3)]:
        for band, n_k, shift in itertools.product((0, 1), (64, 65), (0.0, 0.37 * TWO_PI)):
            want = [(velocity_sum(f, pot, 8), classify(f, pot, 8), _inverse_mass_sum(f, pot, 8))
                    for f in (BandFilling(band, n_k, frac, shift) for frac in fractions)]
            got = fillings(pot, 8, band, n_k, shift, fractions)
            assert got == [FillingResult(*w) for w in want], (pot, band, n_k, shift)


@pytest.mark.parametrize("shift", [0.0, 0.37 * TWO_PI], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("n_k", [64, 65])
def test_the_folded_pass_equals_a_pass_at_the_signed_k(n_k, shift):
    # one solve per |k| gives each state the velocity and m/m* of a solve at its own
    # k, up to the two solves' roundoff: at most 1.05e-12 of the pass's largest
    # value over 20 random_symmetric lattices, so the bound is 1e-11 of it
    rng = np.random.default_rng(3)
    for pot in (WEAK, SKEW, random_symmetric(1.0, rng)):
        for band in (0, 1):
            ks = reduce_to_zone(BandFilling(band, n_k, 1.0).occupied_k(1.0) + shift, 1.0)
            velocity, inv_mass = _folded_pass(ks, pot, 8, band)
            _, want_v, want_m = band_derivatives(ks, pot, 8, band + 1)
            for got, want in ((velocity, want_v[:, band]), (inv_mass, want_m[:, band])):
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-11 * np.abs(want).max())
            # v is odd, so the state at k = 0 has exactly none
            assert np.all(velocity[ks == 0.0] == 0.0)


def test_an_unshifted_filling_of_whole_mirror_pairs_sums_to_zero():
    # v(-k) = -v(k) exactly: an even count on an even grid, or an odd count on an
    # odd grid (its k = 0 state first), fills whole pairs, on any lattice
    rng = np.random.default_rng(17)
    for pot in (WEAK, SKEW, random_symmetric(1.0, rng)):
        for band, n_k in itertools.product((0, 1), (64, 65)):
            fractions = [count / n_k for count in range(n_k % 2, n_k + 1, 2)]
            sums = [r.velocity_sum for r in fillings(pot, 8, band, n_k, 0.0, fractions)]
            assert sums == [0.0] * len(fractions), (pot, band, n_k)


def test_one_pass_per_shift_rejects_what_a_filling_rejects():
    with pytest.raises(ValueError):
        fillings(WEAK, 8, 0, 64, 0.0, [0.5, 1.5])
    with pytest.raises(ValueError):
        fillings(WEAK, 8, 17, 64, 0.0, [0.5])   # n = 8 has bands 0..16
    # band and n_k are checked even when no fraction is asked for
    with pytest.raises(ValueError):
        fillings(WEAK, 8, 0, 32, 0.0, [])
    with pytest.raises(ValueError):
        fillings(WEAK, 8, -1, 64, 0.0, [])
    assert fillings(WEAK, 8, 0, 64, 0.0, []) == []


def _criterion_8_lattice(seed):
    """The last of criterion 8's ten lattices, the one its trio is read on."""
    rng = random.Random(seed)
    for _ in range(10):
        pot = random_symmetric(1.0, rng)
        rng.uniform(-0.3, 0.3)      # the criterion's shift draw
    return pot


# (pot, n, n_k, shift, fractions): scenarios/conduction_fillings.json at both of the
# CLI's shifts, and criterion 8's trio at seeds 12345 and 1
ONE_PASS_CASES = [
    (single_cosine(1.0, 0.25), 10, 256, 0.0, [0.0, 0.5, 1.0]),
    (single_cosine(1.0, 0.25), 10, 256, 0.0006283185307179586, [0.0, 0.5, 1.0]),
    (_criterion_8_lattice(12345), 10, 256, 0.0, [1.0, 0.5, 0.0]),
    (_criterion_8_lattice(1), 10, 256, 0.0, [1.0, 0.5, 0.0]),
]


@pytest.mark.parametrize("pot, n, n_k, shift, fractions", ONE_PASS_CASES,
                         ids=["shipped-unshifted", "shipped-shifted", "trio-12345", "trio-1"])
def test_one_multi_fraction_call_is_the_per_fraction_calls_bitwise(pot, n, n_k, shift,
                                                                   fractions):
    together = fillings(pot, n, 0, n_k, shift, fractions)
    assert together == [fillings(pot, n, 0, n_k, shift, [f])[0] for f in fractions]
    # velocity_sum and classify are fillings at one fraction, field for field
    for fraction, result in zip(fractions, together):
        filling = BandFilling(0, n_k, fraction, shift)
        assert velocity_sum(filling, pot, n) == result.velocity_sum
        assert classify(filling, pot, n) == result.label


# --------------------------------------------------------------------------
# gauge shifts outside the zone


@pytest.mark.parametrize("turns", [1, -3, 10 ** 8])
def test_a_shift_and_its_reduction_give_the_same_fillings(turns):
    # the shift is reduced to the zone once, before it moves the labels, so a shift
    # many zones out rounds the way its in-zone image does instead of rounding
    # every label on its own at the shift's scale
    shift = 0.0006283185307179586 + turns * TWO_PI
    reduced = reduce_to_zone(shift)
    assert abs(reduced - 0.0006283185307179586) <= 2.0 * math.ulp(shift)
    fractions = [0.0, 0.5, 1.0]
    assert (fillings(WEAK, 10, 0, 256, shift, fractions)
            == fillings(WEAK, 10, 0, 256, reduced, fractions))


def test_an_in_zone_shift_reduces_to_itself():
    # so every in-zone shift gives the bytes it gave before the shift was reduced.
    # The float just above -π/a used to land above +π/a (3.1415926535897936 at
    # a = 1), outside the zone; -π/a itself still lands on +π/a
    rng = np.random.default_rng(41)
    for a in (1.0, 0.7, 2.0):
        edge = math.pi / a
        shifts = [*(rng.uniform(-1.0, 1.0, 2000) * edge).tolist(),
                  math.nextafter(-edge, 0.0), math.nextafter(edge, 0.0), edge]
        for shift in shifts:
            assert reduce_to_zone(shift, a) == shift
        np.testing.assert_array_equal(reduce_to_zone(np.array(shifts), a), shifts)
        assert reduce_to_zone(-edge, a) == edge


@pytest.mark.parametrize("shift", [1e17, -1e17, 2.0 ** 40, math.inf, math.nan])
def test_a_shift_too_large_for_the_k_grid_is_refused(shift):
    # at 1e17 the float spacing is 16, more than two zones: all 256 labels used to
    # land on one reduced k, and the filled band read 0.0 and "conductor"
    with pytest.raises(ConfigError, match="too large for the k grid"):
        fillings(WEAK, 10, 0, 256, shift, [0.5, 1.0])
    with pytest.raises(ConfigError, match="too large for the k grid"):
        velocity_sum(BandFilling(0, 256, 1.0, shift), WEAK, 10)


def test_the_shift_bound_is_1e_4_of_the_grid_step():
    # the largest accepted spacing is 1e-4·2π/(a·n_k): 2.45e-6 at a = 1, n_k = 256,
    # which admits |shift| < 2^34 and refuses 2^34, whose spacing is 2^-18 = 3.8e-6
    fillings(WEAK, 10, 0, 256, math.nextafter(2.0 ** 34, 0.0), [1.0])
    with pytest.raises(ConfigError, match="too large for the k grid"):
        fillings(WEAK, 10, 0, 256, 2.0 ** 34, [1.0])


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
