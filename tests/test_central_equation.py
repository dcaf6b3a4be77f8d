"""Plane-wave band solver: matrix structure, oracles, derivatives, labels."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blochdyn import (
    ConfigError,
    DegeneratePointError,
    FourierPotential,
    InfiniteMassError,
    bloch_psi,
    build,
    effective_mass,
    fillings,
    group_velocity,
    random_symmetric,
    reduce_to_zone,
    single_cosine,
)
from blochdyn.central_equation import (
    _DELTA_K_MASS,
    _DELTA_K_VELOCITY,
    _K_BLOCK,
    _coupling_block,
    _eigensystems,
    _hamiltonians,
    _mass_from_curvature,
    _match_band,
    _phase_fix,
    _stencil_energies,
    band_derivatives,
    band_sweep,
    solve_at,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "blochdyn"
TWO_PI = 2.0 * math.pi
FREE = FourierPotential(1.0, {0: 0.0})
WEAK = single_cosine(1.0, 0.05)
# complex coefficients: V(-x) != V(x)
SKEW = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j,
                              2: 0.1 - 0.15j, -2: 0.1 + 0.15j})


# --------------------------------------------------------------------------
# matrix structure


def test_free_matrix_diagonal():
    h = build(0.0, 0.0, FREE, 1)
    np.testing.assert_allclose(h,
                               np.diag([2.0 * math.pi ** 2, 0.0, 2.0 * math.pi ** 2]),
                               atol=1e-12)


def test_gauge_shift_enters_diagonal():
    k, A = 0.4, 0.33
    h = build(k, A, WEAK, 3)
    ls = np.arange(-3, 4)
    expect = (k + TWO_PI * ls + A) ** 2 / 2.0
    np.testing.assert_allclose(np.diag(h), expect, atol=1e-12)


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_stacked_shifts_equal_build(pot):
    # one gauge shift per stacked matrix, each bit-identical to build(k, A)
    k = -0.75 * math.pi
    shifts = -0.3 * (np.arange(5) + 0.5) * 0.7
    stacked, _ = _hamiltonians(np.full(shifts.size, k), shifts, _coupling_block(pot, 4), pot.a)
    for H, A in zip(stacked, shifts):
        np.testing.assert_array_equal(H, build(k, float(A), pot, 4))


@pytest.mark.parametrize("size", [0, 1, 64, 65, 129])
@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_eigensystems_tile_the_pairs_once(pot, size):
    # every (k, A) pair in exactly one block, each as eigh(build(k, A)) and its κ
    ks = np.linspace(-math.pi, math.pi, size)
    shifts = -0.3 * (np.arange(size) + 0.5) * 0.7
    for k_arg, A_arg in ((ks, 0.4), (-0.75 * math.pi, shifts)):
        pairs = np.broadcast_arrays(k_arg, A_arg)
        seen = []
        for cut, energies, vectors, kappa in _eigensystems(k_arg, A_arg, _coupling_block(pot, 4),
                                                           pot.a):
            seen += range(size)[cut]
            for k, A, w, v, kap in zip(pairs[0][cut], pairs[1][cut], energies, vectors,
                                       kappa, strict=True):
                w_ref, v_ref = np.linalg.eigh(build(k, A, pot, 4))
                np.testing.assert_array_equal(w, w_ref)
                np.testing.assert_array_equal(v, v_ref)
                np.testing.assert_array_equal(kap, k + TWO_PI * np.arange(-4, 5) / pot.a + A)
        assert seen == list(range(size))


def test_coupling_block_is_the_toeplitz_of_the_coefficients():
    pot = FourierPotential(1.0, {0: 0.07, 2: 0.3 - 0.2j, -2: 0.3 + 0.2j})
    for lattice, n in ((pot, 3), (random_symmetric(1.0, np.random.default_rng(3)), 10)):
        ls = np.arange(-n, n + 1)
        table = np.array([[lattice.coefficient(i - j) for j in ls] for i in ls])
        # bitwise: the block is filled in place, and V_0 stays real
        expected = table.real if lattice.is_real else table
        assert _coupling_block(lattice, n).tobytes() == expected.tobytes()
    assert _coupling_block(pot, 3).dtype == np.complex128
    assert _coupling_block(single_cosine(1.0, 0.5), 1).dtype == np.float64
    with pytest.raises(ConfigError, match="n=1 smaller than potential cutoff L=2"):
        _coupling_block(pot, 1)


def test_a_coupling_block_no_memory_holds_is_refused_at_start_up_size():
    # (2·10⁷ + 1)² float64 is 2.8 PiB: refused before its index arrays are written.
    # numpy records a refused request with tracemalloc and never releases it, so
    # that record stays in the current total; peak − current is what was written
    # and freed on the way to the refusal
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            _coupling_block(single_cosine(1.0, 0.1), 10 ** 7)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 2 ** 20


@pytest.mark.parametrize("call, message", [
    (lambda: band_derivatives([], WEAK, 0, 1), "half-width must be >= 1, got 0"),
    (lambda: band_derivatives([], FourierPotential(1.0, {3: 0.1, -3: 0.1}), 1, 1),
     "n=1 smaller than potential cutoff L=3"),
    (lambda: fillings(single_cosine(1.0, 0.1), 0, 0, 64, 0.0, [0.0]),
     "half-width must be >= 1, got 0"),
], ids=["band_derivatives-n0", "band_derivatives-cutoff", "velocity_sum-empty"])
def test_a_pass_over_no_k_refuses_a_bad_truncation(call, message):
    # each used to return an empty or zero result
    with pytest.raises(ConfigError, match=message):
        call()


def test_offdiagonal_coefficient_placement():
    pot = FourierPotential(1.0, {0: 0.07, 2: 0.3 - 0.2j, -2: 0.3 + 0.2j})
    h = build(0.1, 0.0, pot, 4)
    ls = np.arange(-4, 5)
    for i, li in enumerate(ls):
        for j, lj in enumerate(ls):
            if i == j:
                continue
            assert h[i, j] == pytest.approx(pot.coefficient(li - lj), abs=1e-15)


def test_mean_value_shifts_every_diagonal_entry():
    h0 = build(0.2, 0.0, FourierPotential(1.0, {0: 0.0}), 2)
    h1 = build(0.2, 0.0, FourierPotential(1.0, {0: 0.6}), 2)
    np.testing.assert_allclose(h1, h0 + 0.6 * np.eye(5), atol=1e-14)


def test_build_rejections():
    with pytest.raises(ValueError):
        build(3.5, 0.0, WEAK, 10)               # outside the reduced zone
    with pytest.raises(ValueError):
        build(0.0, 0.0, WEAK, 0)
    pot = FourierPotential(1.0, {3: 0.1, -3: 0.1})
    with pytest.raises(ValueError):
        build(0.0, 0.0, pot, 2)                 # truncation below the cutoff


@pytest.mark.parametrize("solve", [
    lambda: build(math.nan, 0.0, WEAK, 3),
    lambda: band_derivatives([0.2, math.nan], WEAK, 3, 1),
    lambda: solve_at(0.1, math.inf, WEAK, 3),
    lambda: solve_at(0.1, math.nan, WEAK, 3),
    lambda: solve_at(0.1, 1e200, WEAK, 3),        # finite shift, (k + A)²/2 overflows
    lambda: _hamiltonians(np.zeros(3), np.array([0.0, -math.inf, 1.0]),
                          _coupling_block(WEAK, 3), WEAK.a),
], ids=["k_nan", "stacked_k_nan", "shift_inf", "shift_nan", "shift_overflow",
        "stacked_shift_inf"])
def test_non_finite_k_or_shift_is_refused(solve):
    with pytest.raises(ConfigError):
        solve()


def test_hermitian_and_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pot = random_symmetric(1.0, rng)
        k = float(rng.uniform(-math.pi, math.pi))
        h = build(k, 0.0, pot, 6)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-13)
        sol = solve_at(k, 0.0, pot, 6)
        gram = sol.vectors.conj().T @ sol.vectors
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-10)
        assert np.all(np.diff(sol.energies) >= -1e-12)


# --------------------------------------------------------------------------
# oracles


def test_empty_lattice_folding():
    for k in np.linspace(-math.pi, math.pi, 21):
        sol = solve_at(float(k), 0.0, FREE, 10)
        exact = np.sort([(k + TWO_PI * l) ** 2 / 2.0 for l in range(-5, 6)])
        np.testing.assert_allclose(sol.energies[:6], exact[:6], atol=1e-10)


def test_weak_lattice_gap_and_symmetry():
    sol = solve_at(math.pi, 0.0, WEAK, 10)
    assert sol.energies[1] - sol.energies[0] == pytest.approx(0.1, rel=2e-5)
    for k in (0.3, 1.1, 2.0):
        a = solve_at(k, 0.0, WEAK, 10).energies[:4]
        b = solve_at(-k, 0.0, WEAK, 10).energies[:4]
        np.testing.assert_allclose(a, b, atol=1e-10)


# transformations that must leave the bands unchanged, on a mirror-symmetric
# and a complex lattice; k = 0 and both zone edges are on the grid
ZONE = np.linspace(-math.pi, math.pi, 41)


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_gauge_shift_only_moves_the_wavevector(pot):
    # only k + A enters; diagonal entries reach 2000 at n = 10, so roundoff
    # differs there (measured worst 1.4e-12)
    for k in ZONE:
        for A in (-0.9, -0.31, 0.27, 1.3):
            if abs(k + A) <= math.pi:
                np.testing.assert_allclose(build(k, A, pot, 10),
                                           build(k + A, 0.0, pot, 10),
                                           rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_energies_are_even_in_k(pot):
    # V(x) is real, so time reversal gives E(k) = E(-k) without mirror
    # symmetry; eigh roundoff is about eps·‖H‖ (measured worst 2.7e-12)
    for k in ZONE:
        np.testing.assert_allclose(solve_at(k, 0.0, pot, 10).energies,
                                   solve_at(-k, 0.0, pot, 10).energies, rtol=0, atol=1e-11)


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
@pytest.mark.parametrize("x0", [0.13, 0.5, 3.4])
def test_translated_potential_keeps_the_energies(pot, x0):
    # V(x - x0) has coefficients V_l·exp(-2πi l x0/a); measured worst 3.1e-12
    moved = FourierPotential(pot.a, {l: v * np.exp(-2j * np.pi * l * x0 / pot.a)
                                     for l, v in pot.items()})
    for k in ZONE:
        np.testing.assert_allclose(solve_at(k, 0.0, moved, 10).energies,
                                   solve_at(k, 0.0, pot, 10).energies, rtol=0, atol=1e-11)


def test_truncation_converged():
    pot = single_cosine(1.0, 0.5)
    for k in (0.0, 1.0, math.pi):
        e10 = solve_at(k, 0.0, pot, 10).energies[:4]
        e14 = solve_at(k, 0.0, pot, 14).energies[:4]
        np.testing.assert_allclose(e10, e14, atol=1e-8)


def test_phase_fix_largest_component_real_positive():
    pot = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j})
    sol = solve_at(0.7, 0.0, pot, 8)
    for b in range(5):
        vec = sol.vectors[:, b]
        lead = vec[np.argmax(np.abs(vec))]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0.0


# --------------------------------------------------------------------------
# Bloch functions


def test_bloch_psi_normalization_and_periodic_modulus():
    sol = solve_at(0.3, 0.0, single_cosine(1.0, 0.3), 10)
    x = np.linspace(0.0, 1.0, 401)
    psi = bloch_psi(sol, 0, x)
    assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(np.abs(bloch_psi(sol, 0, x + 1.0)), np.abs(psi),
                               atol=1e-12)


def test_bloch_psi_free_plane_wave():
    sol = solve_at(1.2, 0.0, FREE, 6)
    x = np.linspace(-2.0, 2.0, 157)
    psi = bloch_psi(sol, 0, x)
    expect = np.exp(1.2j * x)
    ratio = psi / expect
    np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)


def test_umklapp_identification():
    # the state at unreduced k + shift = π + b equals the state relabeled
    # into the zone at -π + b; wavefunctions agree up to one global phase
    b = 0.37
    pot = single_cosine(1.0, 0.3)
    high = solve_at(math.pi, b, pot, 10)       # plane waves π + 2πl + b
    low = solve_at(-math.pi + b, 0.0, pot, 10)
    x = np.linspace(0.0, 1.0, 211)
    psi_h = bloch_psi(high, 0, x)
    psi_l = bloch_psi(low, 0, x)
    phase = psi_h[0] / psi_l[0]
    assert abs(abs(phase) - 1.0) < 1e-10
    np.testing.assert_allclose(psi_h, phase * psi_l, atol=1e-8)


# --------------------------------------------------------------------------
# band derivatives


def test_group_velocity_free_electron():
    for k in (-2.5, -0.4, 0.9, 3.0):
        assert group_velocity(k, 0, FREE, 10) == pytest.approx(
            k if abs(k) <= math.pi else k - np.sign(k) * TWO_PI, rel=1e-6, abs=1e-9)


def test_group_velocity_zeros_at_symmetry_points():
    for k in (0.0, math.pi, -math.pi):
        assert abs(group_velocity(k, 0, WEAK, 10)) < 1e-8


def test_group_velocity_matches_eigenvector_expectation():
    pot = single_cosine(1.0, 0.3)
    ks = (0.3, 1.0, -2.0)
    _, exact, _ = band_derivatives(ks, pot, 10, 1)
    for k, v in zip(ks, exact[:, 0]):
        assert group_velocity(k, 0, pot, 10) == pytest.approx(v, abs=1e-8)


def test_zone_edge_velocity_continuity():
    # approaching the edge from both sides after reduction
    h = 1e-3
    left = group_velocity(math.pi - h, 0, WEAK, 10)
    right = group_velocity(float(reduce_to_zone(math.pi + h)), 0, WEAK, 10)
    assert left + right == pytest.approx(0.0, abs=1e-6)


def test_effective_mass_free_is_unity():
    assert effective_mass(0.7, 0, FREE, 10) == pytest.approx(1.0, abs=1e-4)


def test_effective_mass_frozen_band_bottom():
    assert effective_mass(0.0, 0, single_cosine(1.0, 0.5), 10) == pytest.approx(
        1.0051364614287497, rel=1e-9)
    assert effective_mass(0.0, 0, single_cosine(1.0, 2.0), 10) == pytest.approx(
        1.0830287831518808, rel=1e-9)


def test_effective_mass_zone_edge_two_level():
    # two-level model at the edge: curvature = 1 ∓ π²/V1
    v1 = 0.05
    m0 = effective_mass(math.pi, 0, WEAK, 10)
    m1 = effective_mass(math.pi, 1, WEAK, 10)
    assert m0 == pytest.approx(1.0 / (1.0 - math.pi ** 2 / v1), rel=0.05)
    assert m1 == pytest.approx(1.0 / (1.0 + math.pi ** 2 / v1), rel=0.05)
    assert m0 < 0.0 < m1
    assert m0 == pytest.approx(-0.005093806996271499, rel=1e-9)
    assert m1 == pytest.approx(0.005042436761198228, rel=1e-9)


def test_inflection_point_raises():
    with pytest.raises(InfiniteMassError):
        _mass_from_curvature(1e-13)
    assert _mass_from_curvature(-0.5) == pytest.approx(-2.0)


@pytest.mark.parametrize("pot", [single_cosine(1.0, 0.3), SKEW], ids=["real", "complex"])
def test_band_derivatives_match_finite_differences(pot):
    # away from the edge every band; near it only the two bands of the first
    # gap, whose curvature the finite-difference step still resolves
    for ks, bands, mass_rel in (([0.3, 1.0, -2.0], 3, 1e-4), ([math.pi - 1e-3], 2, 1e-3)):
        _, velocity, inv_mass = band_derivatives(ks, pot, 10, bands)
        for i, k in enumerate(ks):
            for b in range(bands):
                assert velocity[i, b] == pytest.approx(
                    group_velocity(k, b, pot, 10), rel=1e-6, abs=1e-8)
                assert inv_mass[i, b] == pytest.approx(
                    1.0 / effective_mass(k, b, pot, 10), rel=mass_rel)


def test_band_derivatives_energies_equal_solve_at():
    for pot in (WEAK, SKEW):
        energies, _, _ = band_derivatives([0.7], pot, 10, 4)
        assert np.array_equal(energies[0], solve_at(0.7, 0.0, pot, 10).energies[:4])


def _parent_stencil(k, band, pot, n, delta):
    """The stencil as three single solves: eigh(build(k, A)) at A = 0, -delta, +delta."""
    def solve(A):
        energies, vectors = np.linalg.eigh(build(k, A, pot, n))
        return energies, _phase_fix(vectors)

    center_energies, center_vectors = solve(0.0)
    out = []
    for s in (-delta, delta):
        energies, vectors = solve(s)
        out.append(energies[_match_band(center_vectors, vectors, band)])
    return out[0], center_energies[band], out[1]


@pytest.mark.parametrize("pot", [single_cosine(1.0, 0.3), SKEW], ids=["real", "complex"])
def test_stacked_stencil_equals_three_single_solves(pot):
    # bit for bit: the stacked pass feeds group_velocity and effective_mass the same energies
    velocity_step, mass_step = _DELTA_K_VELOCITY * TWO_PI, _DELTA_K_MASS * TWO_PI
    for k in (0.0, 0.3, -1.7, 2.9, math.pi):
        for band in range(4):
            v_minus, v_center, v_plus = _parent_stencil(k, band, pot, 10, velocity_step)
            assert np.array_equal(_stencil_energies(k, band, pot, 10, velocity_step),
                                  (v_minus, v_center, v_plus))
            m_minus, m_center, m_plus = _parent_stencil(k, band, pot, 10, mass_step)
            assert np.array_equal(_stencil_energies(k, band, pot, 10, mass_step),
                                  (m_minus, m_center, m_plus))
            assert np.array_equal(group_velocity(k, band, pot, 10),
                                  float((v_plus - v_minus) / (2.0 * velocity_step)))
            curvature = (m_plus - 2.0 * m_center + m_minus) / mass_step ** 2
            assert np.array_equal(effective_mass(k, band, pot, 10), 1.0 / float(curvature))


@pytest.fixture
def eigh_stacks(monkeypatch):
    """The stack size of every numpy.linalg.eigh call, in call order."""
    sizes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


def test_one_stacked_eigensolve_per_pass(eigh_stacks):
    solve_at(0.7, 0.0, SKEW, 10)
    assert eigh_stacks == [1]
    for derivative in (group_velocity, effective_mass):
        eigh_stacks.clear()
        derivative(0.7, 1, SKEW, 10)
        assert eigh_stacks == [3]
    eigh_stacks.clear()
    band_derivatives(np.linspace(-math.pi, math.pi, 130), WEAK, 10, 3)
    assert len(eigh_stacks) == math.ceil(130 / _K_BLOCK) and sum(eigh_stacks) == 130
    # _eigensystems is the package's only plane-wave eigensolve
    sites = [line for path in SRC.glob("*.py") for line in path.read_text().splitlines()
             if "linalg.eigh(" in line]
    assert len(sites) == 1


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_the_block_size_moves_no_bit_of_band_derivatives(monkeypatch, pot):
    # eigh factors each matrix of a stack on its own, and every later step is per k;
    # 74 k end in a partial block at each size and skip k = 0, where bands 1 and 2 meet
    ks = np.linspace(-math.pi, math.pi, 74)
    runs = []
    for size in (1, 7, _K_BLOCK):
        monkeypatch.setattr("blochdyn.central_equation._K_BLOCK", size)
        runs.append(band_derivatives(ks, pot, 10, 3))
    for run in runs[1:]:
        for got, expect in zip(run, runs[0], strict=True):
            assert np.array_equal(got, expect)


def test_a_band_pass_holds_one_block_of_eigensystems_at_a_time():
    # criterion 7's pass: k = -E·t over 2.2 Bloch periods of 4096 steps, one band,
    # n = 10. Its three (9012, 1) outputs are 211 KiB; each block adds about
    # 12 KiB per k, mostly its Hamiltonians and eigenvectors at 3.4 KiB each.
    # The peak read 987 KiB in blocks of 64 k and 603 KiB in blocks of 32
    ks = reduce_to_zone(-TWO_PI / 4096 * np.arange(9012))
    tracemalloc.start()
    try:
        band_derivatives(ks, WEAK, 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024, f"traced peak {peak / 1024:.0f} KiB"


@pytest.mark.parametrize("call, band", [
    (lambda band: bloch_psi(solve_at(0.3, 0.0, WEAK, 10), band, 0.0), -1),
    (lambda band: bloch_psi(solve_at(0.3, 0.0, WEAK, 10), band, 0.0), 21),
    (lambda band: group_velocity(0.3, band, WEAK, 10), -1),
    (lambda band: group_velocity(0.3, band, WEAK, 10), 21),
    (lambda band: effective_mass(0.3, band, WEAK, 10), 21),
    (lambda band: fillings(WEAK, 10, band, 64, 0.0, [0.5]), 21),
], ids=["bloch_psi-neg", "bloch_psi", "group_velocity-neg", "group_velocity",
        "effective_mass", "velocity_sum"])
def test_a_band_out_of_range_is_config_error(call, band):
    # truncation n = 10 has bands 0..20
    with pytest.raises(ConfigError, match=rf"band {band} out of range 0\.\.20"):
        call(band)


def test_band_derivatives_closed_coupled_gap_raises():
    # bands 1 and 2 sit 1e-13 apart at k = 0 and κ couples them
    pot = single_cosine(1.0, 1e-6)
    with pytest.raises(DegeneratePointError):
        band_derivatives([0.0], pot, 10, 3)
    _, _, inv_mass = band_derivatives([0.0], pot, 10, 1)
    assert inv_mass[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_band_matching_guard():
    # a band swap is tracked, not an error
    center = np.eye(4)
    swapped = center[:, [1, 0, 2, 3]]
    assert _match_band(center, swapped, 0) == 1
    assert _match_band(center, center, 2) == 2
    # no side vector resembles the center band: ambiguous, refuse to track
    smeared = np.eye(5)
    smeared[:, 0] = np.full(5, 1.0 / math.sqrt(5.0))
    with pytest.raises(DegeneratePointError):
        _match_band(smeared, np.eye(5), 0)


# --------------------------------------------------------------------------
# zone reduction and sweeps


def test_reduce_to_zone_cases():
    assert reduce_to_zone(0.3) == pytest.approx(0.3)
    assert reduce_to_zone(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert reduce_to_zone(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)
    # ties land on the positive edge
    assert reduce_to_zone(math.pi) == pytest.approx(math.pi)
    assert reduce_to_zone(-math.pi) == pytest.approx(math.pi)
    assert reduce_to_zone(3.0 * math.pi) == pytest.approx(math.pi)
    arr = reduce_to_zone(np.array([0.0, 7.0, -7.0]))
    np.testing.assert_allclose(arr, [0.0, 7.0 - TWO_PI, TWO_PI - 7.0], atol=1e-12)
    # other lattice constants scale the zone
    assert reduce_to_zone(2.0, a=2.0) == pytest.approx(2.0 - math.pi)


def test_band_sweep_rows_ordered_and_complete():
    rows = band_sweep(WEAK, 10, 11, 3, 1.0, 1.0)
    assert len(rows) == 33
    ks = [r[0] for r in rows[::3]]
    np.testing.assert_allclose(ks, np.linspace(-math.pi, math.pi, 11), atol=1e-12)
    assert [r[1] for r in rows[:3]] == [0, 1, 2]
    by_band = [r[2] for r in rows[:3]]
    assert by_band == sorted(by_band)


def test_band_sweep_empty_lattice_folds():
    # crossings at k = 0 and ±π are exact degeneracies κ does not couple
    rows = band_sweep(FREE, 10, 11, 4, 1.0, 1.0)
    for k, _, energy, velocity, m_star in rows:
        folded = k + TWO_PI * np.arange(-3, 4)
        assert np.min(np.abs(folded - velocity)) < 1e-12
        assert velocity ** 2 / 2.0 == pytest.approx(energy, abs=1e-10)
        assert m_star == 1.0
