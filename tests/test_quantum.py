"""Quantum propagators and the grid oracle against closed forms and each other."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from blochdyn import (
    BoundaryProximityError,
    ConfigError,
    DegeneratePointError,
    FourierPotential,
    GridState,
    UnitSystem,
    adiabatic_diagnostics,
    frame_generator,
    gaussian_packet,
    grid_ground_state,
    integrate_basis,
    single_cosine,
    split_step_free,
)
from blochdyn.central_equation import solve_at
from blochdyn.quantum import _eigenframes
from blochdyn.semiclassical import _time_grid

TWO_PI = 2.0 * math.pi
WEAK = single_cosine(1.0, 0.05)
# complex coefficients with no mirror plane: V(x0 - x) != V(x0 + x) for every x0
SKEW = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j,
                              2: 0.1 - 0.15j, -2: 0.1 + 0.15j})


# --------------------------------------------------------------------------
# plane-wave basis propagation


def _sample_reference(k, pot, n, E, t):
    """Ground vector and (gap, hdot_norm, omega_bar_star, bound_rhs, comm_norm) at t.

    One frame_generator call per sample: the diagnostics before stacking.
    """
    sol, omega_bar, m = frame_generator(k, pot, n, -E * t, -E)
    gap = float(sol.energies[1] - sol.energies[0])
    hdot = abs(E) * float(np.sqrt(np.sum(sol.plane_wavevectors ** 2)))
    if E == 0.0:
        return sol.vectors[:, 0], (gap, hdot, 0.0, 0.0, 0.0)
    comm = m - np.diag(np.diag(m))     # [Ω̄, Λ]_ij = Ω̄_ij (λ_j - λ_i) = M_ij, i≠j
    return sol.vectors[:, 0], (gap, hdot, float(np.max(np.abs(omega_bar[0, 1:]))),
                               hdot / gap, float(np.linalg.norm(comm)))


def test_stationary_state_accumulates_only_phase():
    pot = single_cosine(1.0, 0.3)
    k, n, horizon = 0.5, 10, 2.0
    sol = solve_at(k, 0.0, pot, n)
    state, report = integrate_basis(k, pot, n, 0.0, horizon, 0.01,
                                    report_stride=100)
    expect = np.exp(-1j * sol.energies[0] * horizon) * sol.vectors[:, 0]
    np.testing.assert_allclose(state.coeffs, expect, atol=1e-10)
    np.testing.assert_allclose(report.fidelity, 1.0, atol=1e-12)


def test_slow_sweep_follows_ground_band():
    # quarter-zone crossing of the zone edge; weak lattice, adiabatic field
    # (crossing leak ~exp(-V1²/E) = exp(-8.3) for this choice)
    e_field = 3e-4
    horizon = (math.pi / 2.0) / e_field
    state, report = integrate_basis(-3.0 * math.pi / 4.0, WEAK, 10, e_field,
                                    horizon, horizon / 16384, report_stride=2048)
    assert report.fidelity[-1] > 0.999
    assert report.chain_holds()
    assert np.all(report.gap > 0.09)


def test_fast_sweep_breaks_adiabaticity_frozen():
    state, report = integrate_basis(-3.0 * math.pi / 4.0, WEAK, 10, 1.0,
                                    math.pi / 2.0, (math.pi / 2.0) / 16384,
                                    report_stride=4096)
    assert report.fidelity[-1] == pytest.approx(0.0021957506625300523, rel=1e-6)


def test_rotated_frame_equivalence():
    # propagating Y' = (-iΛ - Ω̄)Y must reproduce Θ†X of the direct evolution
    pot = WEAK
    k0, e_field, horizon, dt, n = 0.3 * math.pi, 0.01, 1.0, 0.005, 10
    state, _ = integrate_basis(k0, pot, n, e_field, horizon, dt)

    sol0 = solve_at(k0, 0.0, pot, n)
    y = sol0.vectors.conj().T @ sol0.vectors[:, 0]
    nsteps = round(horizon / dt)
    h = horizon / nsteps
    for j in range(nsteps):
        tm = (j + 0.5) * h
        sol, omega_bar, _ = frame_generator(k0, pot, n, -e_field * tm, -e_field)
        y = scipy.linalg.expm((-1j * np.diag(sol.energies) - omega_bar) * h) @ y

    sol_end = solve_at(k0, -e_field * horizon, pot, n)
    y_direct = sol_end.vectors.conj().T @ state.coeffs
    assert np.linalg.norm(y - y_direct) < 1e-8


def _block_step(w, v, h, X):
    """X -> U (Θ† X), U = Θ exp(-iΛh): the operands integrate_basis forms per block."""
    u, v_h = v * np.exp(-1j * w * h), np.conjugate(v, dtype=np.complex128).T
    return np.dot(u, np.dot(v_h, X))


def _parent_step(w, v, h, X):
    """The step as written before its operands were formed once per block."""
    return v @ (np.exp(-1j * w * h) * (v.conj().T @ X))


def _per_step_reference(k, pot, n, E, T, dt, stride, step=_block_step):
    """One phase-fixed solve_at per midpoint: the propagator before stacking."""
    times, nsteps, h = _time_grid(T, dt)
    X = solve_at(k, 0.0, pot, n).vectors[:, 0].astype(np.complex128)
    rows = []

    def sample(j):
        ground, diagnostics = _sample_reference(k, pot, n, E, float(times[j]))
        fid = float(np.abs(np.vdot(ground, X)) ** 2)
        rows.append((float(times[j]), *diagnostics[:4], fid, diagnostics[4]))

    sample(0)
    for j in range(nsteps):
        mid = solve_at(k, -E * (j + 0.5) * h, pot, n)
        X = step(mid.energies, mid.vectors, h, X)
        if (j + 1) % stride == 0 or j + 1 == nsteps:
            sample(j + 1)
    return X, [np.array(c) for c in zip(*rows)]


def _compare_with_reference(args):
    """(ΔX, {column: (stacked, reference)}) for integrate_basis against the reference."""
    state, report = integrate_basis(*args[:6], report_stride=args[6])
    X, cols = _per_step_reference(*args)
    names = [f.name for f in dataclasses.fields(report)]
    return state.coeffs - X, {name: (getattr(report, name), col)
                              for name, col in zip(names, cols)}


REAL_RUNS = {
    "real": (-0.75 * math.pi, WEAK, 10, 0.05, 3.0, 3.0 / 320, 40),
    # 150 steps: two full blocks and a partial one; stride 7 straddles each boundary
    "partial-blocks": (0.4, WEAK, 10, 0.05, 1.5, 0.01, 7),
}
COMPLEX_RUN = (0.3, SKEW, 10, 0.02, 4.0, 0.01, 37)


@pytest.mark.parametrize("args", REAL_RUNS.values(), ids=REAL_RUNS.keys())
def test_stacked_propagation_is_bit_identical_on_a_real_lattice(args):
    delta, columns = _compare_with_reference(args)
    assert not np.any(delta)
    for name, (got, expect) in columns.items():
        np.testing.assert_array_equal(got, expect, err_msg=name)


@pytest.mark.parametrize("args", [*REAL_RUNS.values(), COMPLEX_RUN],
                         ids=[*REAL_RUNS.keys(), "complex"])
def test_block_operator_stays_within_roundoff_of_the_parent_step(args):
    state, report = integrate_basis(*args[:6], report_stride=args[6])
    X, columns = _per_step_reference(*args, step=_parent_step)
    assert np.linalg.norm(state.coeffs - X) <= 1e-12
    # columns follow AdiabaticReport: t, gap, hdot_norm, omega_bar_star, bound_rhs, fidelity, …
    np.testing.assert_allclose(report.fidelity, columns[5], rtol=0.0, atol=1e-12)


def test_stacked_propagation_on_a_complex_lattice():
    delta, columns = _compare_with_reference(COMPLEX_RUN)
    assert np.linalg.norm(delta) <= 1e-12
    got, expect = columns.pop("fidelity")
    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12)
    for name, (got, expect) in columns.items():
        np.testing.assert_array_equal(got, expect, err_msg=name)


def test_integrate_basis_validation():
    with pytest.raises(ValueError):
        integrate_basis(0.0, WEAK, 10, 0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_basis(0.0, WEAK, 10, 0.1, 1.0, 0.1, report_stride=0)


def test_stride_not_dividing_the_steps_keeps_the_last_step():
    # T = 1, dt = 0.1 takes ten steps; stride 3 records after steps 0, 3, 6, 9 and 10
    grid, nsteps, _ = _time_grid(1.0, 0.1)
    assert nsteps == 10
    expect = grid[[0, 3, 6, 9, 10]]
    psi0 = gaussian_packet(400.0, 1024, x0=-30.0, k0=1.0, sigma=10.0)
    res = split_step_free(psi0, 0.05, 1.0, 0.1, sample_stride=3)
    np.testing.assert_array_equal(res.times, expect)
    _, report = integrate_basis(0.4, WEAK, 10, 0.05, 1.0, 0.1, report_stride=3)
    np.testing.assert_array_equal(report.t, expect)


# --------------------------------------------------------------------------
# eigenframe diagnostics


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
@pytest.mark.parametrize("E", [0.05, -0.3, 0.0, 1e-4])
def test_eigenframes_equal_the_per_sample_reference(pot, E):
    # 150 times: two full stacked blocks and a partial one
    ts = 0.05 * np.arange(150)
    grounds, *columns = _eigenframes(0.4, pot, 10, E, ts)
    rows = [_sample_reference(0.4, pot, 10, E, float(t)) for t in ts]
    np.testing.assert_array_equal(grounds, [ground for ground, _ in rows])
    names = ["gap", "hdot_norm", "omega_bar_star", "bound_rhs", "comm_norm"]
    for name, got, expect in zip(names, columns, zip(*(d for _, d in rows))):
        np.testing.assert_array_equal(got, expect, err_msg=name)


def test_frame_generator_structure():
    sol, omega_bar, hdot_rot = frame_generator(0.4, WEAK, 8, -0.2, -0.01)
    # skew-Hermitian generator, zero diagonal, Hermitian rotated drive
    np.testing.assert_allclose(omega_bar, -omega_bar.conj().T, atol=1e-14)
    np.testing.assert_allclose(np.diag(omega_bar), 0.0, atol=1e-14)
    np.testing.assert_allclose(hdot_rot, hdot_rot.conj().T, atol=1e-14)
    # unitary invariance pins the rotated drive norm to the diagonal formula
    kappa = sol.plane_wavevectors
    assert np.linalg.norm(hdot_rot) == pytest.approx(
        0.01 * math.sqrt(float(np.sum(kappa ** 2))), rel=1e-10)


def test_si_field_diagnostics_frozen():
    units = UnitSystem(1e-10)
    pot = single_cosine(1.0, 0.5 / units.energy_eV)
    e_int = units.to_internal(10.0, "electric_field")
    rep = adiabatic_diagnostics(math.pi, pot, 10, e_int, 2e-3 / e_int)
    ev = units.energy_eV
    assert rep.omega_bar_star[0] * ev == pytest.approx(2.3721514041481407e-08,
                                                       rel=1e-9)
    assert rep.gap[0] * ev == pytest.approx(1.0045713775588407, rel=1e-9)
    assert rep.bound_rhs[0] * ev == pytest.approx(1.3270002855952059e-06, rel=1e-9)
    assert math.isnan(rep.fidelity[0])
    assert rep.chain_holds()


def test_si_diagnostics_against_two_level_model():
    units = UnitSystem(1e-10)
    v1 = 0.5 / units.energy_eV
    pot = single_cosine(1.0, v1)
    e_int = units.to_internal(10.0, "electric_field")
    detune = -2e-3
    rep = adiabatic_diagnostics(math.pi, pot, 10, e_int, -detune / e_int)
    analytic = math.pi * e_int * v1 / (2.0 * ((math.pi * detune) ** 2 + v1 ** 2))
    assert rep.omega_bar_star[0] == pytest.approx(analytic, rel=1e-4)


def test_diagnostics_survive_exact_zone_edge():
    # excited bands are quasi-degenerate here; the analytic generator copes
    rep = adiabatic_diagnostics(math.pi, WEAK, 10, 1e-4, 0.0)
    assert rep.chain_holds()
    assert rep.gap[0] == pytest.approx(0.1, rel=1e-3)


def test_diagnostics_zero_field():
    _, gap, hdot, om_star, bound, comm = _eigenframes(0.5, WEAK, 10, 0.0, [3.0])
    assert hdot == 0.0 and om_star == 0.0 and bound == 0.0 and comm == 0.0
    assert gap > 0.0


@pytest.mark.filterwarnings("error")
def test_overflowing_drive_is_refused():
    # A = -E t = -1e8 is finite, but -E·κ and |E|·‖κ‖ are not
    with pytest.raises(ConfigError, match="overflows the drive"):
        adiabatic_diagnostics(math.pi, WEAK, 10, 1e308, 1e-300)


@pytest.mark.filterwarnings("error")
def test_closed_gap_raises():
    free = single_cosine(1.0, 0.0)
    with pytest.raises(DegeneratePointError):
        adiabatic_diagnostics(math.pi, free, 10, 1e-4, 0.0)
    # the first closed sample is named, before any bound is divided by its gap
    with pytest.raises(DegeneratePointError, match=r"closed at A=0\.5$"):
        _eigenframes(math.pi - 0.5, free, 10, -0.5, [0.0, 1.0, 2.0, 3.0])


# --------------------------------------------------------------------------
# split-step propagation


def test_free_packet_width_growth():
    psi0 = gaussian_packet(200.0, 2048, x0=0.0, k0=0.0, sigma=2.0)
    res = split_step_free(psi0, 0.0, 8.0, 0.01, sample_stride=100)
    sig_exact = 2.0 * np.sqrt(1.0 + res.times ** 2 / (4.0 * 2.0 ** 4))
    np.testing.assert_allclose(res.sigma_x, sig_exact, rtol=1e-10)
    np.testing.assert_allclose(res.k_mean, 0.0, atol=1e-12)


def test_uniform_field_momentum_drift():
    psi0 = gaussian_packet(400.0, 4096, x0=-30.0, k0=1.0, sigma=10.0)
    res = split_step_free(psi0, 0.05, 20.0, 0.01, sample_stride=20)
    np.testing.assert_allclose(res.k_mean, 1.0 - 0.05 * res.times, atol=1e-10)


def test_harmonic_trap_ehrenfest():
    # Strang with U = x²/2: the centroid follows the classical oscillator
    psi0 = gaussian_packet(40.0, 1024, x0=2.0, k0=0.0, sigma=1.0)
    res = split_step_free(psi0, 0.0, TWO_PI, 0.005, potential=lambda x: 0.5 * x * x,
                          sample_stride=20)
    np.testing.assert_allclose(res.x_mean, 2.0 * np.cos(res.times), atol=2e-3)


def test_boundary_guard_raises():
    psi0 = gaussian_packet(40.0, 512, x0=0.0, k0=0.0, sigma=1.0)
    with pytest.raises(BoundaryProximityError):
        split_step_free(psi0, 0.5, 10.0, 0.01)


def test_grid_state_validation():
    x = -20.0 + (40.0 / 64) * np.arange(64)
    with pytest.raises(ValueError):
        GridState(Ldom=40.0, N=64, psi=np.ones(64), x=x)   # not normalized
    with pytest.raises(ValueError):
        GridState(Ldom=40.0, N=64, psi=np.ones(32), x=x)
    with pytest.raises(ValueError):
        gaussian_packet(40.0, 64, x0=0.0, k0=0.0, sigma=-1.0)
    for ldom, n in ((0.0, 64), (-40.0, 64), (40.0, 0)):
        with pytest.raises(ValueError):
            gaussian_packet(ldom, n, x0=0.0, k0=0.0, sigma=1.0)
    psi0 = gaussian_packet(40.0, 64, x0=0.0, k0=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        split_step_free(psi0, 0.0, 1.0, 0.1, sample_stride=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-300, 1e-160])
def test_packet_narrower_than_the_grid_raises_without_numpy_warnings(sigma):
    # sigma² underflows to 0 (divide by zero) or the exponent overflows
    with pytest.raises(ConfigError):
        gaussian_packet(400.0, 4096, x0=-30.0, k0=1.0, sigma=sigma)


# --------------------------------------------------------------------------
# grid oracle


def test_empty_lattice_ring_spectrum():
    free = single_cosine(1.0, 0.0)    # 16 unit cells, zero potential
    gb = grid_ground_state(free, M=16, N=512, n_levels=8)
    # the lowest levels of the free ring follow (2πm/M)²/2
    ring = (TWO_PI / 16.0) ** 2 / 2.0
    low = np.sort(gb.energies)[:5]
    np.testing.assert_allclose(low, [0.0, ring, ring, 4 * ring, 4 * ring],
                               atol=1e-9)


def test_grid_labels_are_zone_grid():
    gb = grid_ground_state(WEAK, M=16, N=512)
    uniq = np.unique(gb.k)
    expect = TWO_PI * np.arange(-7, 9) / 16.0
    np.testing.assert_allclose(np.sort(uniq), np.sort(expect), atol=1e-12)


def test_grid_matches_plane_wave_solver_weak_and_strong():
    for amp, n in ((0.05, 10), (5.0, 14)):
        pot = single_cosine(1.0, amp)
        gb = grid_ground_state(pot, M=16, N=1024)
        worst = 0.0
        for k in np.unique(gb.k):
            e_grid = gb.ground_band_energy(float(k))
            e_pw = solve_at(float(k), 0.0, pot, n).energies[0]
            worst = max(worst, abs(e_grid - e_pw))
        assert worst < 1e-6


def test_grid_hamiltonian_is_the_gathered_circulant():
    # the M Bloch blocks together hold every level of the full N x N grid H
    N = 64
    dx = 8.0 / N
    kappa = TWO_PI * np.fft.fftfreq(N, d=dx)
    circ = np.fft.ifft(0.5 * kappa ** 2).real
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    for pot in (WEAK, SKEW):
        gb = grid_ground_state(pot, M=8, N=N, n_levels=N)
        H = circ[idx]
        H[np.diag_indices(N)] += pot.evaluate(dx * np.arange(N))
        np.testing.assert_allclose(np.sort(gb.energies), np.linalg.eigvalsh(H),
                                   rtol=0, atol=1e-10)


def test_grid_ground_state_validation():
    with pytest.raises(ValueError):
        grid_ground_state(WEAK, M=16, N=1000)   # not a power of two
    with pytest.raises(ValueError):
        grid_ground_state(WEAK, M=4, N=512)
    with pytest.raises(ValueError):
        grid_ground_state(WEAK, M=24, N=512)    # N not divisible by M
    gb = grid_ground_state(WEAK, M=16, N=512)
    with pytest.raises(ValueError):
        gb.ground_band_energy(0.123456)         # not a labeled wavevector
