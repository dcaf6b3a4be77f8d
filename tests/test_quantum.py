"""Quantum propagators and the grid oracle against closed forms and each other."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    band_derivatives,
    evolve_free_E,
    frame_generator,
    gaussian_packet,
    grid_ground_state,
    integrate_basis,
    reduce_to_zone,
    single_cosine,
    split_step_free,
)
from blochdyn.central_equation import _K_BLOCK, _coupling_block, _eigensystems, solve_at
from blochdyn.quantum import AdiabaticReport, _eigenframes
from blochdyn.semiclassical import _time_grid

ROOT = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi
WEAK = single_cosine(1.0, 0.05)
# complex coefficients with no mirror plane: V(x0 - x) != V(x0 + x) for every x0
SKEW = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j,
                              2: 0.1 - 0.15j, -2: 0.1 + 0.15j})


# --------------------------------------------------------------------------
# plane-wave basis propagation


def _sample_reference(k, pot, n, E, t):
    """Ground vector and (gap, hdot_norm, omega_bar_star, comm_norm) at t.

    One frame_generator call per sample: the diagnostics before stacking.
    """
    sol, omega_bar, m = frame_generator(k, pot, n, -E * t, -E)
    gap = float(sol.energies[1] - sol.energies[0])
    hdot = abs(E) * float(np.sqrt(np.sum(sol.plane_wavevectors ** 2)))
    if E == 0.0:
        return sol.vectors[:, 0], (gap, hdot, 0.0, 0.0)
    comm = m - np.diag(np.diag(m))     # [Ω̄, Λ]_ij = Ω̄_ij (λ_j - λ_i) = M_ij, i≠j
    return sol.vectors[:, 0], (gap, hdot, float(np.max(np.abs(omega_bar[0, 1:]))),
                               float(np.linalg.norm(comm)))


def test_stationary_state_accumulates_only_phase():
    pot = single_cosine(1.0, 0.3)
    k, n, horizon = 0.5, 10, 2.0
    sol = solve_at(k, 0.0, pot, n)
    X, report = integrate_basis(k, pot, n, 0.0, horizon, 0.01, report_stride=100)
    expect = np.exp(-1j * sol.energies[0] * horizon) * sol.vectors[:, 0]
    np.testing.assert_allclose(X, expect, atol=1e-10)
    np.testing.assert_allclose(report.fidelity, 1.0, atol=1e-12)


@pytest.mark.parametrize("k0, E, T, steps", [(-0.5, 0.1, 20.0, 200),
                                             (1.0, 0.05, 30.0, 64),
                                             (0.2, -0.02, 50.0, 1000)])
def test_free_electron_phase_is_the_dispersion_phase(k0, E, T, steps):
    # With V = 0 the state stays on the plane wave l = 0 and gains the phase
    # -Σ h·(k0 - E(j + ½)h)²/2. That midpoint sum falls short of
    # ∫ω(k(t))dt = evolve_free_E's phase by E²T·h²/24, modulo 2π.
    dt = T / steps
    X, _ = integrate_basis(k0, single_cosine(1.0, 0.0), 4, E, T, dt)
    np.testing.assert_allclose(np.abs(X), np.eye(9)[4], rtol=0, atol=1e-12)
    total = np.angle(X[4]) + evolve_free_E(k0, E, T, dt).phase[-1]
    remainder = np.angle(np.exp(1j * (total - E ** 2 * T * dt ** 2 / 24.0)))
    assert abs(remainder) < 1e-12


def _bloch_period_phase(pot, E, n=8, k0=0.3, steps_per_time=8):
    """(|overlap|², phase) of X(T_B) on the rolled band-0 vector, dynamic phase removed.

    After T_B = 2π/(aE) the shift A = -2π/a has moved H's plane-wave index by
    one, so band 0 has returned as its vector rolled by one place. The overlap
    carries -∫ε₀dt + γ_Zak + O(E); the dynamic part ∫ε₀dt = (1/E)∫_zone ε₀ dk
    is a periodic trapezoid, which converges exponentially: with V = 0.5 the
    nearest branch points lie ±iV/π off the zone edge, so 256 points leave
    about e^{-256·0.16} of it.
    """
    T = TWO_PI / (pot.a * E)
    X, _ = integrate_basis(k0, pot, n, E, T, 1.0 / steps_per_time, report_stride=10 ** 9)
    overlap = np.vdot(np.roll(solve_at(k0, 0.0, pot, n).vectors[:, 0], 1), X)
    ks = -math.pi / pot.a + TWO_PI / pot.a * np.arange(256) / 256
    dynamic = TWO_PI / pot.a * float(np.mean(band_derivatives(ks, pot, n, 1)[0])) / E
    return abs(overlap) ** 2, float(np.angle(overlap * np.exp(1j * dynamic)))


def _stark_integral(pot, n=8, points=512):
    """P = ∫_zone Σ(k) dk, with Σ = Σ_{j≠0} |⟨j|κ|0⟩|²/(ε_j - ε_0)³, as a periodic trapezoid.

    In a field E band 0 is dressed to ε_0 - E²Σ(k), the second-order Stark
    shift, and with dt = dk/E one Bloch period adds the phase +E·P to it.
    """
    ks = -math.pi / pot.a + TWO_PI / pot.a * np.arange(points) / points
    total = 0.0
    for _, energies, vecs, kappa in _eigensystems(ks, 0.0, _coupling_block(pot, n), pot.a):
        # velocity[:, j] = ⟨j|κ|0⟩
        velocity = np.einsum("kij,ki,ki->kj", vecs.conj(), kappa, vecs[:, :, 0])
        gaps = energies[:, 1:] - energies[:, :1]
        total += float(np.sum(np.abs(velocity[:, 1:]) ** 2 / gaps ** 3))
    return TWO_PI / pot.a * total / points


def test_one_bloch_period_returns_band_0_with_the_zak_phase():
    """J. Zak, Phys. Rev. Lett. 62, 2747 (1989): the cosine lattice, inversion
    symmetric about x = 0, has γ_Zak = π, and moving it by x0 gives γ - 2πx0/a.

    What is left after the dynamic phase is γ plus E·P, the second-order Stark
    phase of _stark_integral: a shift of order E²/Δ held for T_B ∝ 1/E. At
    E = 0.01 and 8 steps per unit time the phase lies 4.1e-6 (V1 = 0.5) and
    -4.0e-5 (V1 = 1.0) from -π + E·P; the first is the next order in E, the
    second the midpoint step's h² error. P is translation invariant, so it
    cancels between the two placements of the lattice. The moved lattice has
    complex coefficients, so its eigenframes are complex.
    """
    E = 0.01
    phases = {}
    for depth in (0.5, 1.0):
        cosine = single_cosine(1.0, depth)
        fidelity, phases[depth] = _bloch_period_phase(cosine, E)
        assert fidelity >= 1.0 - 1e-6
        stark = E * _stark_integral(cosine)
        assert abs(np.angle(np.exp(1j * (phases[depth] + math.pi - stark)))) <= 1e-4, depth
    moved = FourierPotential(1.0, {1: -0.5j, -1: 0.5j})    # V(x - a/4) at V1 = 0.5
    fidelity_moved, phase_moved = _bloch_period_phase(moved, E)
    assert fidelity_moved >= 1.0 - 1e-6
    assert abs(np.angle(np.exp(1j * (phase_moved - phases[0.5] + math.pi / 2)))) <= 1e-3


@pytest.mark.parametrize("nsteps", [2 ** 12, 2 ** 14])
def test_the_coupling_block_is_formed_once_per_pass(monkeypatch, nsteps):
    formed = []

    def counted(pot, n):
        formed.append(n)
        return _coupling_block(pot, n)

    # integrate_basis imports the band solver's names when it runs, so this one patch reaches it
    monkeypatch.setattr("blochdyn.central_equation._coupling_block", counted)
    # one sample pass, and one step pass over nsteps / _K_BLOCK stacked blocks of midpoints
    _, report = integrate_basis(0.3, WEAK, 4, 0.05, nsteps * 0.001, 0.001, report_stride=512)
    assert report.t.size == nsteps // 512 + 1
    assert formed == [4, 4]
    formed.clear()
    band_derivatives(np.linspace(-math.pi, math.pi, 1001), WEAK, 4, 3)
    assert formed == [4]


def test_slow_sweep_follows_ground_band():
    # quarter-zone crossing of the zone edge; weak lattice, adiabatic field
    # (crossing leak ~exp(-V1²/E) = exp(-8.3) for this choice)
    e_field = 3e-4
    horizon = (math.pi / 2.0) / e_field
    _, report = integrate_basis(-3.0 * math.pi / 4.0, WEAK, 10, e_field,
                                horizon, horizon / 16384, report_stride=2048)
    assert report.fidelity[-1] > 0.999
    assert report.chain_holds()
    assert np.all(report.gap > 0.09)


def test_fast_sweep_breaks_adiabaticity_frozen():
    _, report = integrate_basis(-3.0 * math.pi / 4.0, WEAK, 10, 1.0,
                                math.pi / 2.0, (math.pi / 2.0) / 16384,
                                report_stride=4096)
    assert report.fidelity[-1] == pytest.approx(0.0021957506625300523, rel=1e-6)


@pytest.mark.parametrize("v1, e_field", [(0.05, 0.02), (0.1, 0.05), (0.1, 0.2)])
def test_zone_edge_crossing_follows_landau_zener(v1, e_field):
    """Band-0 population after one zone-edge crossing is 1 - exp(-V1²/E).

    The diabatic levels k²/2 and (k + 2π)²/2 of single_cosine(1, V1) cross at
    k = -π with relative slope 2πE and coupling V1, so Landau-Zener leaves
    exp(-V1²/E) in the free-electron branch, which is band 1 after the edge.
    integrate_basis with n = 5, T = π/E (k0 -> k0 - π) and 512 steps, averaged
    over 21 k0 in -π/2 ± 0.2 to wash out the finite-time oscillation of the
    population in k0. Measured errors: 8.8e-7, 2.8e-6 and 2.6e-6.
    """
    pot, horizon = single_cosine(1.0, v1), math.pi / e_field
    k0s = np.linspace(-math.pi / 2 - 0.2, -math.pi / 2 + 0.2, 21)
    band_0 = [integrate_basis(k0, pot, 5, e_field, horizon, horizon / 512,
                              report_stride=512)[1].fidelity[-1] for k0 in k0s]
    assert abs(np.mean(band_0) - (1.0 - math.exp(-v1 ** 2 / e_field))) <= 1e-5


def test_rotated_frame_equivalence():
    # propagating Y' = (-iΛ - Ω̄)Y must reproduce Θ†X of the direct evolution
    pot = WEAK
    k0, e_field, horizon, dt, n = 0.3 * math.pi, 0.01, 1.0, 0.005, 10
    X, _ = integrate_basis(k0, pot, n, e_field, horizon, dt)

    sol0 = solve_at(k0, 0.0, pot, n)
    y = sol0.vectors.conj().T @ sol0.vectors[:, 0]
    nsteps = round(horizon / dt)
    h = horizon / nsteps
    for j in range(nsteps):
        tm = (j + 0.5) * h
        sol, omega_bar, _ = frame_generator(k0, pot, n, -e_field * tm, -e_field)
        y = scipy.linalg.expm((-1j * np.diag(sol.energies) - omega_bar) * h) @ y

    sol_end = solve_at(k0, -e_field * horizon, pot, n)
    y_direct = sol_end.vectors.conj().T @ X
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
        rows.append((float(times[j]), *diagnostics[:3], fid, diagnostics[3]))

    sample(0)
    for j in range(nsteps):
        mid = solve_at(k, -E * (j + 0.5) * h, pot, n)
        X = step(mid.energies, mid.vectors, h, X)
        if (j + 1) % stride == 0 or j + 1 == nsteps:
            sample(j + 1)
    return X, [np.array(c) for c in zip(*rows)]


def _compare_with_reference(args):
    """(ΔX, {column: (stacked, reference)}) for integrate_basis against the reference."""
    X_stacked, report = integrate_basis(*args[:6], report_stride=args[6])
    X, cols = _per_step_reference(*args)
    names = [f.name for f in dataclasses.fields(report)]
    return X_stacked - X, {name: (getattr(report, name), col)
                              for name, col in zip(names, cols)}


REAL_RUNS = {
    "real": (-0.75 * math.pi, WEAK, 10, 0.05, 3.0, 3.0 / 320, 40),
    # 150 steps: full blocks and a partial one; stride 7 straddles each boundary
    "partial-blocks": (0.4, WEAK, 10, 0.05, 1.5, 0.01, 7),
    # 128 steps at stride 64: each sample falls on a block's last step
    "sample-at-block-end": (0.4, WEAK, 10, 0.05, 1.28, 0.01, 64),
    # 50 steps at stride 80: the last step is the only sample after t = 0
    "stride-past-the-steps": (0.4, WEAK, 10, 0.05, 0.5, 0.01, 80),
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
    X_stacked, report = integrate_basis(*args[:6], report_stride=args[6])
    X, columns = _per_step_reference(*args, step=_parent_step)
    assert np.linalg.norm(X_stacked - X) <= 1e-12
    # columns follow AdiabaticReport: t, gap, hdot_norm, omega_bar_star, fidelity, comm_norm
    np.testing.assert_allclose(report.fidelity, columns[4], rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("stride", [2.5, 3.0, np.float64(2.0), True],
                         ids=["fraction", "whole-float", "numpy-float", "bool"])
def test_a_stride_that_is_not_an_integer_is_refused(stride):
    # the uniform-field and extra-potential split-step paths, and the basis propagator
    psi0 = gaussian_packet(400.0, 1024, x0=-30.0, k0=1.0, sigma=10.0)
    runs = [
        lambda: split_step_free(psi0, 0.05, 1.0, 0.1, sample_stride=stride),
        lambda: split_step_free(psi0, 0.05, 1.0, 0.1, potential=np.zeros_like,
                                sample_stride=stride),
        lambda: integrate_basis(0.4, WEAK, 10, 0.05, 1.0, 0.1, report_stride=stride),
    ]
    for run in runs:
        with pytest.raises(ConfigError, match="stride must be an integer >= 1"):
            run()


def test_a_long_run_at_a_wide_stride_holds_only_its_samples():
    # 10^7 steps of h sampled at both ends: one Strang step, and no 10^7-long time grid
    pytest.importorskip("resource")
    script = """
import resource
from blochdyn import gaussian_packet, split_step_free
psi0 = gaussian_packet(40.0, 64, 0.0, 0.0, 2.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
res = split_step_free(psi0, 0.01, 1.0, 1e-7, sample_stride=10**7)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(res.times.tolist(), after - before)
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    times, grown = res.stdout.split("]")
    assert times == "[0.0, 1.0"
    # ru_maxrss counts KiB on Linux and bytes on macOS
    grown_mb = int(grown) / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)
    assert grown_mb < 50.0, f"peak RSS grew by {grown_mb:.1f} MB"


def test_the_midpoint_shifts_are_held_one_block_at_a_time():
    # one 8·nsteps-byte array of shifts would add 96 KB to the peak from 2^12 to 2^14 steps
    def traced_peak(nsteps):
        tracemalloc.start()
        try:
            integrate_basis(0.3, WEAK, 1, 0.05, 1.0, 1.0 / nsteps, report_stride=nsteps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = traced_peak(2 ** 14) - traced_peak(2 ** 12)
    assert grown < 32 * 1024, f"traced peak grew by {grown / 1024:.1f} KB"


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_the_block_size_moves_no_bit_of_the_basis_run(monkeypatch, pot):
    # 101 steps end in a partial block at every size but 1, and stride 9 samples
    # steps inside blocks, across block edges and on one (63 at size 7)
    runs = []
    for size in (1, 7, _K_BLOCK):
        monkeypatch.setattr("blochdyn.central_equation._K_BLOCK", size)
        runs.append((*integrate_basis(0.4, pot, 10, 0.05, 1.01, 0.01, report_stride=9),
                     _eigenframes(0.4, pot, 10, -0.3, 0.05 * np.arange(101))))
    X, report, frames = runs[0]
    assert report.t.size == 13
    for got_X, got_report, got_frames in runs[1:]:
        assert np.array_equal(got_X, X)
        for field in dataclasses.fields(AdiabaticReport):
            assert np.array_equal(getattr(got_report, field.name),
                                  getattr(report, field.name)), field.name
        for got, expect in zip(got_frames, frames, strict=True):
            assert np.array_equal(got, expect)


def test_a_basis_run_holds_one_block_of_step_operators():
    # n = 10: per step, a block holds U and Θ† (13.8 KiB of complex) and the
    # Hamiltonian and eigenvectors (6.9 KiB of float). Over 4096 steps the peak
    # read 1597 KiB in blocks of 64 steps and 809 KiB in blocks of 32
    tracemalloc.start()
    try:
        integrate_basis(0.3, WEAK, 10, 0.05, 4.096, 0.001, report_stride=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, f"traced peak {peak / 1024:.0f} KiB"


# --------------------------------------------------------------------------
# eigenframe diagnostics


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
@pytest.mark.parametrize("E", [0.05, -0.3, 0.0, 1e-4])
def test_eigenframes_equal_the_per_sample_reference(pot, E):
    # 150 times: full stacked blocks and a partial one
    ts = 0.05 * np.arange(150)
    grounds, *columns = _eigenframes(0.4, pot, 10, E, ts)
    rows = [_sample_reference(0.4, pot, 10, E, float(t)) for t in ts]
    np.testing.assert_array_equal(grounds, [ground for ground, _ in rows])
    names = ["gap", "hdot_norm", "omega_bar_star", "comm_norm"]
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
    # each link's slack is 1e-9·‖Ḣ‖ = 2.3e-17 internal here, far below gap·Ω̄* = 4.1e-10,
    # so a zero commutator norm, or a drive below the commutator, breaks the chain
    assert not dataclasses.replace(rep, comm_norm=np.zeros(1)).chain_holds()
    assert not dataclasses.replace(rep, hdot_norm=0.5 * rep.comm_norm).chain_holds()


@pytest.mark.parametrize("link", ["gap-omega", "commutator-drive"])
def test_a_chain_broken_by_one_part_in_a_million_does_not_hold(link):
    # two samples, each with gap·Ω̄* = 0.5 <= ‖[Ω̄, Λ]‖ = 1 <= ‖Ḣ‖ = 2; one link
    # of the second is then broken by 1e-6 relative, far above the 1e-9·‖Ḣ‖ slack
    ones = np.ones(2)
    rep = AdiabaticReport(t=np.array([0.0, 1.0]), gap=0.5 * ones, hdot_norm=2.0 * ones,
                          omega_bar_star=ones, fidelity=np.full(2, np.nan), comm_norm=ones)
    assert rep.chain_holds()
    broken = {"gap-omega": {"omega_bar_star": np.array([1.0, 2.0 * (1.0 + 1e-6)])},
              "commutator-drive": {"comm_norm": np.array([1.0, 2.0 * (1.0 + 1e-6)])}}[link]
    assert not dataclasses.replace(rep, **broken).chain_holds()


def test_bound_rhs_is_derived_from_the_drive_and_the_gap():
    # criterion 6's SI probe: the bound is hdot_norm / gap, bit for bit
    units = UnitSystem(1e-10)
    pot = single_cosine(1.0, 0.5 / units.energy_eV)
    e_int = units.to_internal(10.0, "electric_field")
    rep = adiabatic_diagnostics(math.pi, pot, 10, e_int, 2e-3 / e_int)
    assert rep.bound_rhs == rep.hdot_norm / rep.gap
    assert [f.name for f in dataclasses.fields(rep)] == [
        "t", "gap", "hdot_norm", "omega_bar_star", "fidelity", "comm_norm"]
    # no report holds a bound that its arrays disagree with
    assert dataclasses.replace(rep, gap=0.5 * rep.gap).bound_rhs == 2.0 * rep.bound_rhs
    with pytest.raises(TypeError):
        AdiabaticReport(rep.t, rep.gap, rep.hdot_norm, rep.omega_bar_star, rep.bound_rhs,
                        rep.fidelity, rep.comm_norm)
    with pytest.raises(TypeError):
        dataclasses.replace(rep, bound_rhs=rep.bound_rhs)


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
    _, gap, hdot, om_star, comm = _eigenframes(0.5, WEAK, 10, 0.0, [3.0])
    assert hdot == 0.0 and om_star == 0.0 and comm == 0.0
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


def _parent_split_step(psi0, E, T, dt, potential=None, sample_stride=1, guard_sigmas=5.0):
    """split_step_free as written before its one moments pass: a record closure,
    five sample lists and a separate power spectrum of ψ₀ for the k-window check."""
    t_grid, nsteps, h = _time_grid(T, dt)
    x, dx = psi0.x, psi0.dx
    kgrid = TWO_PI * np.fft.fftfreq(psi0.psi.size, d=dx)
    power = np.abs(np.fft.fft(psi0.psi)) ** 2
    k_mean = float(np.sum(power * kgrid) / np.sum(power))
    k_sigma = float(np.sqrt(np.sum(power * (kgrid - k_mean) ** 2) / np.sum(power)))
    k_reach = max(abs(k_mean), abs(k_mean - E * T)) + guard_sigmas * k_sigma
    if not k_reach < np.pi / dx:
        raise ConfigError(
            f"<k> runs from {k_mean:.6g} to {k_mean - E * T:.6g}; with {guard_sigmas}σ_k "
            f"it reaches {k_reach:.6g}, past the grid's k window π/dx = {np.pi / dx:.6g}")
    U = E * x
    if potential is not None:
        U = U + np.asarray(potential(x), dtype=np.float64)
    half_kick = np.exp(-0.5j * h * U)
    kinetic = np.exp(-0.5j * h * kgrid ** 2)
    psi = psi0.psi.astype(np.complex128)
    x_lo, x_hi = x[0], x[-1] + dx
    times, xm, km, sg, nm = [], [], [], [], []

    def record(j, p):
        w = np.abs(p) ** 2
        tot = float(np.sum(w) * dx)
        mx = float(np.sum(w * x) * dx / tot)
        mx2 = float(np.sum(w * x * x) * dx / tot)
        sig = np.sqrt(max(mx2 - mx * mx, 0.0))
        power = np.abs(np.fft.fft(p)) ** 2
        if min(mx - x_lo, x_hi - mx) < guard_sigmas * sig:
            raise BoundaryProximityError(
                f"centroid {mx:.3f} within {guard_sigmas}σ (σ={sig:.3f}) of the "
                f"domain boundary [{x_lo:.3f}, {x_hi:.3f}] at t={t_grid[j]:.6g}")
        times.append(float(t_grid[j]))
        xm.append(mx)
        km.append(float(np.sum(power * kgrid) / np.sum(power)))
        sg.append(sig)
        nm.append(tot)

    record(0, psi)
    for j in range(nsteps):
        psi = half_kick * psi
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi = half_kick * psi
        if (j + 1) % sample_stride == 0 or j + 1 == nsteps:
            record(j + 1, psi)
    return (np.array(times), np.array(xm), np.array(km), np.array(sg), np.array(nm),
            psi / np.sqrt(nm[-1]))


CRITERION_1_PACKET = gaussian_packet(400.0, 4096, x0=-30.0, k0=1.0, sigma=10.0)

# runs whose step partition is the parent loop's: every step of h
SPLIT_STEP_RUNS = {
    # 628 steps: stride 20 does not divide them, so the last sample is off-stride
    "trap": (gaussian_packet(40.0, 1024, x0=2.0, k0=0.0, sigma=1.0),
             0.0, math.pi, 0.005, lambda x: 0.5 * x * x, 20),
    # stride 1 in a uniform field: one sample interval is one step
    "stride-1-field": (CRITERION_1_PACKET, 0.05, 0.5, 0.01, None, 1),
    # stride 1 with a potential: the moments between every two steps
    "trap-stride-1": (gaussian_packet(40.0, 1024, x0=2.0, k0=0.0, sigma=1.0),
                      0.0, 0.5, 0.005, lambda x: 0.5 * x * x, 1),
}


def _split_step_pair(args):
    res = split_step_free(*args[:5], sample_stride=args[5])
    expect = _parent_split_step(*args[:5], sample_stride=args[5])
    got = (res.times, res.x_mean, res.k_mean, res.sigma_x, res.norms, res.final.psi)
    return zip(["times", "x_mean", "k_mean", "sigma_x", "norms", "final"], got, expect)


@pytest.mark.parametrize("args", SPLIT_STEP_RUNS.values(), ids=SPLIT_STEP_RUNS.keys())
def test_split_step_is_bit_identical_to_the_parent_loop(args):
    for name, g, e in _split_step_pair(args):
        np.testing.assert_array_equal(g, e, err_msg=name)


# U = E·x alone: one Strang step per sample interval, exact up to the phase it restores
UNIFORM_FIELD_RUNS = {
    # criterion 1's packet and field, 200 of its 2000 steps, in 20 steps of 10h
    "criterion-1": (CRITERION_1_PACKET, 0.05, 2.0, 0.01, 10),
    # 200 steps at stride 7: 28 steps of 7h and a last one of 4h
    "stride-7": (CRITERION_1_PACKET, 0.05, 2.0, 0.01, 7),
    "zero-field": (CRITERION_1_PACKET, 0.0, 2.0, 0.01, 10),
    "negative-field": (CRITERION_1_PACKET, -0.05, 2.0, 0.01, 10),
}


@pytest.mark.parametrize("args", UNIFORM_FIELD_RUNS.values(), ids=UNIFORM_FIELD_RUNS.keys())
def test_uniform_field_steps_match_the_parent_loop(args):
    # measured: at most 5.7e-14 in a moment and 3.4e-15 in ψ (1.1e-13 and 1.1e-14
    # over criterion 1's 2000 steps); without the phase, ψ is 4.1e-7 off
    for name, g, e in _split_step_pair((*args[:4], None, args[4])):
        np.testing.assert_allclose(g, e, rtol=0.0, atol=0.0 if name == "times" else 1e-12,
                                   err_msg=name)


def test_a_numpy_integer_stride_takes_the_same_steps():
    # one step of 2.1e6·h: stride³ is past the int64 range, where a numpy integer wraps
    psi0 = gaussian_packet(40.0, 64, x0=0.0, k0=0.0, sigma=2.0)
    got, expect = (split_step_free(psi0, 0.01, 2.1, 1e-6, sample_stride=stride)
                   for stride in (np.int64(2_100_000), 2_100_000))
    np.testing.assert_array_equal(got.final.psi, expect.final.psi)


@pytest.mark.parametrize("potential, stride", [(None, 7), (lambda x: 0.5 * x * x, 20)],
                         ids=["uniform-field", "potential"])
def test_split_step_works_on_its_own_copy_of_the_state(monkeypatch, potential, stride):
    psi0 = gaussian_packet(40.0, 512, x0=2.0, k0=0.0, sigma=1.0)
    before = psi0.psi.copy()
    steps = []
    fft = np.fft.fft

    def recorded(a, *args, **kwargs):     # the work array is every in-place step's output
        if kwargs.get("out") is not None:
            steps.append(kwargs["out"])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    res = split_step_free(psi0, 0.05, 1.0, 0.01, potential=potential, sample_stride=stride)
    np.testing.assert_array_equal(psi0.psi, before)
    assert steps and all(work is steps[0] for work in steps)
    assert not np.shares_memory(res.final.psi, steps[0])
    assert not np.shares_memory(res.final.psi, psi0.psi)


def test_uniform_field_steps_differ_from_the_parent_loop_by_the_periodic_wrap():
    """E·x jumps by E·L where the periodic grid wraps, and the big step's identity
    holds only for the weight that does not meet that jump. Pushed by E = 0.5 to
    about 6σ from the boundary (L = 40, 512 points, T = 4.5, stride 5), the packet
    measured 2.2e-9 in <x> and 9.5e-6 in the final ψ against the h-step loop,
    where 1e-12 holds far from the boundary. The centroid guard, 5σ by default,
    stops a run not much closer than this."""
    args = (gaussian_packet(40.0, 512, x0=0.0, k0=0.0, sigma=1.0), 0.5, 4.5, 0.01, None, 5)
    diff = {name: float(np.max(np.abs(g - e))) for name, g, e in _split_step_pair(args)}
    res = split_step_free(*args[:4], sample_stride=5)
    assert 6.0 < (res.x_mean[-1] + 20.0) / res.sigma_x[-1] < 6.2
    assert 1e-9 < diff["x_mean"] < 1e-8
    assert 1e-6 < diff["final"] < 1e-4
    assert diff["norms"] < 1e-12


@pytest.mark.parametrize("error, args", [
    # the field pushes the centroid into the guard band mid-run (caught at t = 5.11)
    (BoundaryProximityError, (gaussian_packet(40.0, 512, x0=0.0, k0=0.0, sigma=1.0),
                              0.5, 10.0, 0.01)),
    # 3σ from the boundary before the first step
    (BoundaryProximityError, (gaussian_packet(40.0, 512, x0=-17.0, k0=0.0, sigma=1.0),
                              0.0, 1.0, 0.01)),
    # <k> = 1.8 stays put, but <k> + 5σ_k = 2.07 passes π/dx = 2.01
    (ConfigError, (gaussian_packet(400.0, 256, x0=0.0, k0=1.8, sigma=10.0), 0.0, 1.0, 0.1)),
], ids=["guard-mid-run", "guard-at-start", "k-window"])
def test_refusals_match_the_parent_loop(error, args):
    with pytest.raises(error) as expect:
        _parent_split_step(*args, sample_stride=7)
    with pytest.raises(error) as got:
        split_step_free(*args, sample_stride=7)
    assert str(got.value) == str(expect.value)


def _zener_grid_bands(pot, cells, per_cell):
    """Wavenumbers (alias, block) of the periodic grid and each block's band-0 vector.

    The grid holds per_cell aliases k + 2πl of each commensurate k, so its
    FFT, reshaped to (per_cell, cells), has the aliases of one k per column.
    V's harmonics ±1 couple alias l to l ± 1, cyclically because the grid
    wraps them.
    """
    kappa = TWO_PI * np.fft.fftfreq(cells * per_cell, d=1.0 / per_cell).reshape(per_cell, cells)
    up = np.roll(np.eye(per_cell), 1, axis=0)          # up[l + 1, l] = 1
    H = (np.einsum("lm,lj->mlj", 0.5 * kappa ** 2, np.eye(per_cell))
         + pot.coefficient(1) * up + pot.coefficient(-1) * up.T)
    return kappa, np.linalg.eigh(H)[1][:, :, 0]


def test_zener_crossing_is_gauge_invariant(monkeypatch):
    """Scalar gauge (U = E·x on a grid) against vector gauge (A = -E t) over one crossing.

    V = 2·0.1·cos 2πx, E = 0.05 and T = π/E carry k0 = -π/2 once through the
    zone edge. The scalar side puts the grid's own band-0 Bloch state at k0
    under a Gaussian envelope (σ = 25, centred at x0 = +100 on 512 cells of 4
    points) and runs split_step_free; its band-0 population comes from one FFT
    and one stacked eigh over the 512 blocks. The vector side runs
    integrate_basis (512 steps) in each commensurate k channel whose initial
    weight w_k is above 1e-3 of the largest (13 channels), and the two must
    agree as Σ w_k F(k) / Σ w_k, where F(k) is a channel's final band-0
    population. Measured: 0.18126720 against 0.18126506, +2.1e-6; with 4096
    steps per channel the weighted mean moves by 1e-8.

    The weighting is needed: F(k0) alone is 0.1813091 (4096 steps), 4.2e-5
    off, and no σ removes that, because F oscillates in k on a scale below
    any σ_k that fits the grid (F(k0 ± 0.05) = 0.1812277, F(k0 ± 0.1) =
    0.1812857). The scalar result moved by at most 2e-7 for σ = 6.25, 1024
    cells or dt = 0.01, and by 1.7e-6 for 8 points per cell. At x0 = 0 on
    512 cells it read 0.1816002: the split packet's tail wrapped across the
    boundary, where E·x jumps.
    """
    pot, E, k0, T = single_cosine(1.0, 0.1), 0.05, -math.pi / 2, math.pi / 0.05
    sigma, x0, cells, per_cell = 25.0, 100.0, 512, 4
    kappa, ground = _zener_grid_bands(pot, cells, per_cell)
    x = -0.5 * cells + np.arange(cells * per_cell) / per_cell
    block = np.flatnonzero(np.isclose(kappa, k0).any(axis=0))[0]
    psi = ((np.exp(1j * np.outer(x, kappa[:, block])) @ ground[block])
           * np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2)))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) / per_cell)

    def band_0(p):
        c = np.fft.fft(p).reshape(per_cell, cells)
        populations = np.abs(np.einsum("ml,lm->m", ground.conj(), c)) ** 2
        return populations, np.sum(np.abs(c) ** 2, axis=0)

    psi0 = GridState(float(cells), psi)
    np.testing.assert_array_equal(psi0.x, x)     # the hand-built grid is the derived one
    # the split packet spreads to σ_x > 75, past 5 widths of the boundary
    monkeypatch.setattr("blochdyn.quantum._GUARD_SIGMAS", 0.5)
    res = split_step_free(psi0, E, T, 0.04, potential=pot.evaluate, sample_stride=100)
    assert res.sigma_x[-1] > 75.0              # the packet has split
    population, total = band_0(res.final.psi)
    scalar = population.sum() / total.sum()

    weight = band_0(psi)[1]
    channels = np.flatnonzero(weight > 1e-3 * weight.max())
    assert channels.size == 13
    F = [integrate_basis(reduce_to_zone(kappa[0, m]), pot, 5, E, T, T / 512,
                         report_stride=512)[1].fidelity[-1] for m in channels]
    vector = np.sum(weight[channels] * F) / np.sum(weight[channels])
    assert abs(scalar - vector) <= 2e-5, (scalar, vector)
    # Landau-Zener, 1 - exp(-V1²/E) = 0.18126925: measured -2.0e-6 (scalar), -4.2e-6 (vector)
    landau_zener = 1.0 - math.exp(-0.1 ** 2 / E)
    assert abs(scalar - landau_zener) <= 1e-5 and abs(vector - landau_zener) <= 1e-5


def test_grid_state_validation():
    with pytest.raises(ValueError):
        GridState(Ldom=40.0, psi=np.ones(64))   # not normalized
    with pytest.raises(ValueError, match="one-dimensional"):
        GridState(Ldom=40.0, psi=np.ones((8, 8)))
    with pytest.raises(ValueError):
        gaussian_packet(40.0, 64, x0=0.0, k0=0.0, sigma=-1.0)
    for ldom, n in ((0.0, 64), (-40.0, 64), (40.0, 0)):
        with pytest.raises(ValueError):
            gaussian_packet(ldom, n, x0=0.0, k0=0.0, sigma=1.0)
    psi0 = gaussian_packet(40.0, 64, x0=0.0, k0=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        split_step_free(psi0, 0.0, 1.0, 0.1, sample_stride=0)


def test_a_potential_whose_strang_phase_overflows_is_refused():
    # h·max|U|/2 = 5e308: the half kick's phase used to overflow to NaN
    psi0 = gaussian_packet(40.0, 64, x0=0.0, k0=0.0, sigma=2.0)
    with pytest.raises(ConfigError, match=r"step τ=100000000\.0 puts a Strang phase"):
        split_step_free(psi0, 0.0, 1e9, 1e8, potential=lambda x: np.full_like(x, 1e301))


@pytest.mark.parametrize("ldom, n", [(40.0, 64), (400.0, 4096), (37.3, 1000), (1.0, 7)])
def test_grid_state_derives_its_grid(ldom, n, monkeypatch):
    # the points are gaussian_packet's -Ldom/2 + j·dx, bit for bit; no grid can be
    # passed, so none can disagree with Ldom
    packet = gaussian_packet(ldom, n, x0=0.0, k0=0.0, sigma=0.1 * ldom)
    dx = ldom / n
    np.testing.assert_array_equal(packet.x, -0.5 * ldom + dx * np.arange(n))
    assert packet.dx == dx
    with pytest.raises(TypeError):
        GridState(ldom, packet.psi, packet.x)
    with pytest.raises(TypeError):
        GridState(Ldom=ldom, psi=packet.psi, x=packet.x)
    # σ = Ldom/10 puts ⟨k⟩ ± 5σ_k past the 7-point grid's k window
    monkeypatch.setattr("blochdyn.quantum._GUARD_SIGMAS", 1.0)
    final = split_step_free(packet, 0.0, 0.1, 0.05).final
    np.testing.assert_array_equal(final.x, packet.x)


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
    gb = grid_ground_state(free, M=16, N=512)
    # the lowest levels of the free ring follow (2πm/M)²/2
    ring = (TWO_PI / 16.0) ** 2 / 2.0
    low = np.sort(gb.energies, axis=None)[:5]
    np.testing.assert_allclose(low, [0.0, ring, ring, 4 * ring, 4 * ring],
                               atol=1e-9)


def test_grid_labels_are_zone_grid():
    gb = grid_ground_state(WEAK, M=16, N=512)
    # one ascending row per block, each label the block's own k
    np.testing.assert_allclose(gb.k, TWO_PI * np.arange(-7, 9) / 16.0, rtol=0, atol=1e-12)
    assert gb.energies.shape == (16, 32)


def test_grid_matches_plane_wave_solver_weak_and_strong():
    # bands 0-2 at every block's k; measured 4.9e-12 (weak) and 6.4e-12 (strong)
    for amp, n in ((0.05, 10), (5.0, 14)):
        pot = single_cosine(1.0, amp)
        gb = grid_ground_state(pot, M=16, N=1024)
        energies, _, _ = band_derivatives(gb.k, pot, n, 3)
        np.testing.assert_allclose(gb.energies[:, :3], energies, rtol=0, atol=1e-9)


@pytest.mark.parametrize("a", [1e-3, 1e9])
def test_grid_oracle_is_scale_invariant(a):
    # V1 ∝ 1/a² keeps the physics fixed; at a = 1e9 the k spacing is 3.9e-10
    ref = grid_ground_state(single_cosine(1.0, 0.05), M=16, N=512)
    gb = grid_ground_state(single_cosine(a, 0.05 / a ** 2), M=16, N=512)
    np.testing.assert_allclose(gb.k * a, ref.k, rtol=1e-14, atol=0)
    np.testing.assert_allclose(gb.energies[:, :3] * a ** 2, ref.energies[:, :3],
                               rtol=0, atol=1e-10)


def test_grid_hamiltonian_is_the_gathered_circulant():
    # the M Bloch blocks together hold every level of the full N x N grid H
    N = 64
    dx = 8.0 / N
    kappa = TWO_PI * np.fft.fftfreq(N, d=dx)
    circ = np.fft.ifft(0.5 * kappa ** 2).real
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    for pot in (WEAK, SKEW):
        gb = grid_ground_state(pot, M=8, N=N)
        H = circ[idx]
        H[np.diag_indices(N)] += pot.evaluate(dx * np.arange(N))
        np.testing.assert_allclose(np.sort(gb.energies, axis=None), np.linalg.eigvalsh(H),
                                   rtol=0, atol=1e-10)


def _gathered_circulant_blocks(pot, M, N):
    """The M Bloch blocks as built before the spectral-symbol fold: the real-space
    circulant gathered over the periods r, then summed with e^{ik_m·ra}."""
    dx = M * pot.a / N
    circ = np.fft.ifft(0.5 * (TWO_PI * np.fft.fftfreq(N, d=dx)) ** 2).real
    s = N // M
    i, r = np.arange(s), np.arange(M)
    m = np.arange(1 - M // 2, M // 2 + 1)
    gathered = circ[(i[:, None, None] - i[None, :, None] - s * r) % N]
    H = np.einsum("ijr,rm->mij", gathered, np.exp(TWO_PI * 1j * np.outer(r, m) / M))
    H[:, i, i] += pot.evaluate(dx * i)
    return H


@pytest.mark.parametrize("M, N", [(8, 64), (16, 256)])
@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_every_grid_block_holds_its_own_levels(pot, M, N):
    # block by block, not the sorted union: a high level filed under the wrong k fails here
    gb = grid_ground_state(pot, M=M, N=N)
    expect = np.linalg.eigvalsh(_gathered_circulant_blocks(pot, M, N))
    assert gb.energies.shape == expect.shape == (M, N // M)
    np.testing.assert_allclose(gb.energies, expect, rtol=0, atol=1e-10)


def _stacked_symbol_blocks(pot, M, N):
    """All M blocks folded from the spectral symbol at once, as one (M, s, s) stack."""
    dx = M * pot.a / N
    s = N // M
    m = np.arange(1 - M // 2, M // 2 + 1)
    symbol = 0.5 * (TWO_PI * np.fft.fftfreq(N, d=dx))[(m[:, None] + M * np.arange(s)) % N] ** 2
    c = np.fft.ifft(symbol, axis=1)
    i = np.arange(s)
    H = c[:, (i[:, None] - i) % s]
    phase = np.exp(TWO_PI * 1j * np.outer(m, i) / N)
    H *= phase[:, :, None]
    H *= phase.conj()[:, None, :]
    H[:, i, i] += pot.evaluate(dx * i)
    return H


@pytest.mark.parametrize("pot", [WEAK, SKEW], ids=["real", "complex"])
def test_block_by_block_grid_levels_are_the_stacked_call_bitwise(pot):
    # eigvalsh factors each matrix of a stack on its own, so one block at a time
    # changes no bit of the levels at criterion 4's size
    gb = grid_ground_state(pot, M=16, N=2048)
    expect = np.linalg.eigvalsh(_stacked_symbol_blocks(pot, 16, 2048))
    assert gb.energies.shape == expect.shape == (16, 128)
    assert np.array_equal(gb.energies, expect)


def test_the_grid_oracle_holds_no_real_space_cube():
    # the (s, s, M) gather and its einsum peaked at 6.1 MiB and the stack of all M
    # blocks at 4.5 MiB; one (s, s) block at a time peaks at 0.74 MiB
    tracemalloc.start()
    try:
        grid_ground_state(single_cosine(1.0, 0.05), 16, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_grid_ground_state_validation():
    with pytest.raises(ValueError):
        grid_ground_state(WEAK, M=16, N=1000)   # not a power of two
    with pytest.raises(ValueError):
        grid_ground_state(WEAK, M=4, N=512)
    with pytest.raises(ValueError):
        grid_ground_state(WEAK, M=24, N=512)    # N not divisible by M
