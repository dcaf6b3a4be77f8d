"""End-to-end validation scenarios with frozen tolerances.

Each criterion function runs one physics scenario and returns its checks,
(ok, message) pairs. CRITERIA holds each one's id, output name and runtime
limit; run_all selects, times and runs them as the ``validate`` subcommand's
backend. Tolerances are frozen here; do not loosen them to make a failing run pass.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .central_equation import band_derivatives, solve_at
from .conduction import fillings
from .errors import ConfigError
from .potential import FourierPotential, random_symmetric, single_cosine
from .quantum import (
    adiabatic_diagnostics,
    gaussian_packet,
    grid_ground_state,
    integrate_basis,
    split_step_free,
)
from .semiclassical import (
    compare_fundamental_lorentz,
    evolve_general_V,
    evolve_lorentz,
    evolve_periodic_E,
)
from .units import UnitSystem, fractional_displacement, solenoid_shift

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AcceptanceResult:
    cid: int
    name: str
    passed: bool
    detail: str


def criterion_1_free_packet(seed: int = 0) -> list[tuple[bool, str]]:
    """Uniform-force wave packet: exact <k> drift and centroid acceleration."""
    e_field = 0.05
    k0 = 1.0
    horizon = 20.0
    psi0 = gaussian_packet(400.0, 4096, x0=-30.0, k0=k0, sigma=10.0)
    res = split_step_free(psi0, e_field, horizon, 0.01, sample_stride=10)

    k_expect = k0 - e_field * res.times
    k_err = float(np.max(np.abs(res.k_mean - k_expect)))
    # acceleration from a quadratic fit of the centroid
    coeffs = np.polyfit(res.times, res.x_mean, 2)
    accel = 2.0 * coeffs[0]
    a_err = abs(accel - (-e_field)) / e_field

    return [
        (k_err < 1e-4, f"max |<k> - (k0 - E t)| = {k_err:.3e} (limit 1e-4)"),
        (a_err < 1e-3, f"centroid accel rel err = {a_err:.3e} (limit 1e-3)"),
    ]


def criterion_2_cyclotron_circle(seed: int = 0) -> list[tuple[bool, str]]:
    """Centered cyclotron orbit: constant radius, exact period, both planar EOMs agree."""
    b_field = 1.0
    period = TWO_PI / b_field
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.0, -1.0], [0.0, 0.0],
                                      b_field, 3.0 * period, period / 2000.0)
    radii = np.linalg.norm(rep.fundamental.x, axis=1)
    r_err = float(np.max(np.abs(radii - 1.0)))

    # period from the unwrapped velocity angle: slope = -omega_c for this orientation
    ang = np.unwrap(np.arctan2(rep.fundamental.v_g[:, 1], rep.fundamental.v_g[:, 0]))
    slope = np.polyfit(rep.fundamental.times, ang, 1)[0]
    p_err = abs(TWO_PI / abs(slope) - period) / period

    return [
        (r_err < 1e-6, f"radius wobble {r_err:.3e} (limit 1e-6)"),
        (p_err < 1e-6, f"period rel err {p_err:.3e} (limit 1e-6)"),
        (rep.max_position_divergence < 1e-6,
         f"planar EOM position divergence {rep.max_position_divergence:.3e} (limit 1e-6)"),
        (rep.max_velocity_divergence < 1e-6,
         f"velocity divergence {rep.max_velocity_divergence:.3e} (limit 1e-6)"),
    ]


def criterion_3_crossed_field_divergence(seed: int = 0) -> list[tuple[bool, str]]:
    """Crossed E and B separate the two planar EOMs: one stays bounded, one drifts."""
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.0, -1.0], [1.0, 0.0],
                                      1.0, 10.0, 1e-3)
    t_cross = float(rep.fundamental.times[np.argmax(rep.velocity_divergence > 0.1)])
    fund_extent = float(np.max(np.linalg.norm(rep.fundamental.x, axis=1)))

    return [
        (rep.max_position_divergence > 10.0,
         f"position divergence {rep.max_position_divergence:.3f} (must exceed 10)"),
        (rep.max_velocity_divergence > 1.0,
         f"velocity divergence {rep.max_velocity_divergence:.3f} (must exceed 1)"),
        (rep.max_velocity_divergence > 0.1 and t_cross < 10.0,
         f"velocity gap passes 0.1 at t = {t_cross:.3f}"),
        (fund_extent < 5.0,
         f"restoring-force orbit stays bounded (max |x| = {fund_extent:.3f})"),
    ]


def criterion_4_band_oracle(seed: int = 0) -> list[tuple[bool, str]]:
    """Plane-wave bands vs the Bloch-folded grid oracle, plus the empty-lattice limit."""
    pot = single_cosine(1.0, 0.05)
    gb = grid_ground_state(pot, M=16, N=2048)

    energies, _, _ = band_derivatives(gb.k, pot, 10, 1)
    worst = float(np.max(np.abs(gb.energies[:, 0] - energies[:, 0])))

    # empty lattice: folded free parabola, several bands
    ks = np.linspace(-math.pi, math.pi, 101)
    energies, _, _ = band_derivatives(ks, FourierPotential(1.0, {0: 0.0}), 10, 5)
    exact = np.sort((ks[:, None] + TWO_PI * np.arange(-5, 6)) ** 2 / 2.0, axis=1)
    folded_err = float(np.max(np.abs(energies - exact[:, :5])))

    return [
        (worst < 1e-4, f"grid vs plane-wave max |dE| = {worst:.3e} (limit 1e-4)"),
        (folded_err < 1e-10, f"empty-lattice folding err = {folded_err:.3e} (limit 1e-10)"),
    ]


def criterion_5_weak_lattice_gap(seed: int = 0) -> list[tuple[bool, str]]:
    """Zone-edge gap of a weak cosine lattice approaches twice the coefficient."""
    checks = []
    for amp in (0.01, 0.03, 0.05):
        sol = solve_at(math.pi, 0.0, single_cosine(1.0, amp), 10)
        gap = sol.energies[1] - sol.energies[0]
        rel = abs(gap - 2.0 * amp) / (2.0 * amp)
        checks.append((rel < 0.05,
                       f"V1={amp}: gap={gap:.6f} vs 2V1={2*amp} (rel {rel:.2e}, limit 5%)"))
    return checks


def criterion_6_adiabatic_following(seed: int = 0) -> list[tuple[bool, str]]:
    """Slow sweep through the zone edge stays on the ground band; SI-field diagnostics."""
    pot = single_cosine(1.0, 0.05)

    # slow sweep (field far above any SI value, but still deep in the adiabatic
    # regime for this gap; an SI-magnitude field would need ~1e12 steps)
    e_slow = 1e-4
    k0 = -3.0 * math.pi / 4.0
    horizon = (math.pi / 2.0) / e_slow
    n_steps = 65536
    _, report = integrate_basis(k0, pot, 10, e_slow, horizon, horizon / n_steps,
                                report_stride=1024)
    fid = float(report.fidelity[-1])

    # fast sweep must break adiabaticity
    _, report_f = integrate_basis(k0, pot, 10, 1.0, math.pi / 2.0, (math.pi / 2.0) / 16384,
                                  report_stride=4096)
    fid_fast = float(report_f.fidelity[-1])

    # SI-magnitude field: coupling and bound hierarchy at a laboratory field
    units = UnitSystem(1e-10)
    v1 = 0.5 / units.energy_eV
    e_int = units.to_internal(10.0, "electric_field")
    pot_si = single_cosine(1.0, v1)
    t_probe = 2e-3 / e_int
    diag = adiabatic_diagnostics(math.pi, pot_si, 10, e_int, t_probe)
    ev = units.energy_eV
    coupling_ev = diag.omega_bar_star[0] * ev
    chain_ok = diag.chain_holds()

    return [
        (fid >= 0.9999, f"slow-sweep ground fidelity {fid:.10f} (limit 0.9999)"),
        (fid_fast < 0.01, f"fast-sweep fidelity {fid_fast:.6f} (must be < 0.01)"),
        (1e-9 < coupling_ev < 1e-7,
         f"SI-field frame coupling {coupling_ev:.3e} eV (expected ~1e-8 eV)"),
        (chain_ok, f"gap*coupling <= comm norm <= drive norm chain holds "
                   f"(gap {diag.gap[0]*ev:.4f} eV, bound {diag.bound_rhs[0]*ev:.3e} eV)"),
    ]


def criterion_7_effective_mass_dynamics(seed: int = 0) -> list[tuple[bool, str]]:
    """dv/dt = -E/m* along a Bloch oscillation, masked away from inflection points."""
    pot = single_cosine(1.0, 0.05)
    e_field = 0.01
    t_bloch = TWO_PI / e_field
    dt = t_bloch / 4096.0
    traj = evolve_periodic_E(0.0, 0, pot, 10, e_field, 2.2 * t_bloch, dt)

    v = traj.v_g
    dvdt = np.gradient(v, traj.times)
    curv = traj.inv_mass
    mask = np.abs(curv) > 0.25
    pred = -e_field * curv
    rel = np.abs(dvdt[mask] - pred[mask]) / np.abs(pred[mask])
    max_rel = float(np.max(rel))

    # oscillation period from downward zero crossings of v
    sign = np.signbit(v)
    down = np.where(~sign[:-1] & sign[1:])[0]
    # linear interpolation of each crossing time
    t_cross = traj.times[down] + traj.dt * v[down] / (v[down] - v[down + 1])
    period = float(np.mean(np.diff(t_cross)))
    p_err = abs(period - t_bloch) / t_bloch

    return [
        (max_rel < 0.01,
         f"masked dv/dt vs -E/m* rel err {max_rel:.3e} (limit 1%, "
         f"{int(mask.sum())}/{len(mask)} samples kept)"),
        (p_err < 0.01, f"oscillation period rel err {p_err:.3e} (limit 1%)"),
    ]


def criterion_8_conduction(seed: int = 12345) -> list[tuple[bool, str]]:
    """Filled bands carry nothing; a half-filled band responds linearly to a shift.

    The gate is the filled band of each of 10 random lattices at its drawn
    shift. Unshifted, a filled band is whole mirror pairs, which time reversal
    sums to exactly 0.0 (conduction module docstring), so it is not solved
    here; test_criterion_8_unshifted_filled_bands_sum_to_exactly_zero pins
    that on these lattices. The lattices and shifts come from
    random.Random(seed), whose random() sequence Python keeps for a given
    seed, and which loads no numpy.random.
    """
    rng = random.Random(seed)
    n_k = 256
    worst_filled = 0.0
    for _ in range(10):
        pot = random_symmetric(1.0, rng)
        shift = rng.uniform(-0.3, 0.3) * TWO_PI
        filled, = fillings(pot, 10, 0, n_k, shift, [1.0])
        worst_filled = max(worst_filled, abs(filled.velocity_sum))

    # one unshifted band pass on the last potential labels the full, half and
    # empty fillings and gives the half-filled sum and Σ m/m* for the linear response
    full, half, empty = fillings(pot, 10, 0, n_k, 0.0, (1.0, 0.5, 0.0))
    labels = (full.label, half.label, empty.label)
    shift = 1e-4 * TWO_PI
    net = fillings(pot, 10, 0, n_k, shift, [0.5])[0].velocity_sum - half.velocity_sum
    response = shift * half.response
    resp_rel = abs(net - response) / abs(response)

    return [
        (worst_filled < 1e-8 * n_k,
         f"filled-band |sum v| = {worst_filled:.3e} over 10 potentials "
         f"(limit {1e-8 * n_k:.2e})"),
        (resp_rel < 0.1,
         f"half-filled linear response rel err {resp_rel:.3e} (limit 10%)"),
        (labels == ("insulator", "conductor", "insulator"),
         f"classification trio {labels}"),
    ]


def criterion_9_solenoid(seed: int = 0) -> list[tuple[bool, str]]:
    """Solenoid vector-potential kick: formula value and its size against a 1 A/m scale."""
    shift = solenoid_shift(n_turns_per_m=1000.0, current_A=1e-3,
                           area_m2=1e-4, radius_m=0.1)
    k0 = math.pi / (2e-10)
    frac_formula = fractional_displacement(k0, shift)
    frac_quoted = fractional_displacement(k0, 1e4)

    return [
        (abs(shift - 3.04e5) / 3.04e5 < 0.01,
         f"shift = {shift:.6e} m^-1 (expected 3.04e5 within 1%)"),
        (abs(shift - 303853.48992731253) < 1e-6,
         "regression against frozen value"),
        (abs(frac_formula - 1.9345e-5) / 1.9345e-5 < 0.01,
         f"fraction of zone-edge k: {frac_formula:.4e}"),
        (abs(frac_quoted - 6.366e-7) / 6.366e-7 < 0.01,
         f"fraction for a 1e4 m^-1 kick: {frac_quoted:.4e}"),
    ]


def criterion_10_integrators(seed: int = 0) -> list[tuple[bool, str]]:
    """Order checks: RK4 halving ratio near 16, split-step near 4, norms preserved."""
    # RK4 on a harmonic well via the potential-force path
    period = TWO_PI
    x0, v0 = 1.5, 0.3
    well = lambda x: -0.5 * x * x
    dwell = lambda x: -x

    def rk4_err(n: int) -> float:
        traj = evolve_general_V(v0, x0, well, 2.0 * period, 2.0 * period / n,
                                dV=dwell, energy_tol=None)
        xe = x0 * math.cos(traj.times[-1]) + v0 * math.sin(traj.times[-1])
        ve = -x0 * math.sin(traj.times[-1]) + v0 * math.cos(traj.times[-1])
        return math.hypot(traj.x[-1] - xe, traj.v_g[-1] - ve)

    r_rk4 = rk4_err(400) / rk4_err(800)

    # RK4 on the magnetic circle
    def circ_err(n: int) -> float:
        traj = evolve_lorentz([1.0, 0.0], [0.0, -1.0], [0.0, 0.0],
                              1.0, 2.0 * period, 2.0 * period / n)
        return float(np.linalg.norm(traj.x[-1] - [0.0, -1.0])
                     + np.linalg.norm(traj.v_g[-1] - [1.0, 0.0]))

    r_circ = circ_err(200) / circ_err(400)

    # split-step halving on a harmonic trap
    psi0 = gaussian_packet(40.0, 1024, x0=2.0, k0=0.0, sigma=1.0)
    trap = lambda x: 0.5 * x * x

    def ss_final(n: int) -> np.ndarray:
        res = split_step_free(psi0, 0.0, period, period / n, potential=trap,
                              sample_stride=n)
        return res.final.psi

    # over one period 2π of U = x²/2 every level e^{-i(n+½)t} returns to -1: ψ(2π) = -ψ₀
    ref = -psi0.psi
    dx = psi0.dx
    e200 = float(np.linalg.norm(ss_final(200) - ref)) * math.sqrt(dx)
    e400 = float(np.linalg.norm(ss_final(400) - ref)) * math.sqrt(dx)
    r_ss = e200 / e400

    # norm preservation over 1e4 steps, both integrators
    res_long = split_step_free(psi0, 0.0, 10.0, 1e-3, potential=trap,
                               sample_stride=2000)
    ss_drift = float(np.max(np.abs(res_long.norms - 1.0)))
    X, _ = integrate_basis(0.3 * math.pi, single_cosine(1.0, 0.05), 10,
                           1e-3, 10.0, 1e-3, report_stride=5000)
    basis_drift = abs(float(np.linalg.norm(X)) - 1.0)

    return [
        (r_rk4 >= 8.0, f"RK4 well halving ratio {r_rk4:.2f} (expect ~16, min 8)"),
        (r_circ >= 8.0, f"RK4 circle halving ratio {r_circ:.2f} (min 8)"),
        (r_ss >= 3.5, f"split-step halving ratio {r_ss:.2f} (expect ~4, min 3.5)"),
        (ss_drift < 1e-10, f"split-step norm drift {ss_drift:.3e} over 1e4 steps"),
        (basis_drift < 1e-10, f"basis-propagator norm drift {basis_drift:.3e}"),
    ]


# (id, output name, criterion, runtime limit in s or None); bench/tracer.py patches tuples
CRITERIA: tuple[tuple[int, str, Callable[[int], list], float | None], ...] = (
    (1, "free packet under uniform force", criterion_1_free_packet, 30.0),
    (2, "centered cyclotron orbit", criterion_2_cyclotron_circle, None),
    (3, "crossed-field divergence of planar EOMs", criterion_3_crossed_field_divergence, None),
    (4, "band structure against grid oracle", criterion_4_band_oracle, 60.0),
    (5, "weak-lattice zone-edge gap", criterion_5_weak_lattice_gap, None),
    (6, "adiabatic following through the zone edge", criterion_6_adiabatic_following, None),
    (7, "effective-mass acceleration along Bloch oscillation",
     criterion_7_effective_mass_dynamics, None),
    (8, "filled vs half-filled band conduction", criterion_8_conduction, None),
    (9, "solenoid wavevector kick", criterion_9_solenoid, None),
    (10, "integrator order and unitarity", criterion_10_integrators, None),
)


def run_all(seed: int = 12345, only: Sequence[int] | None = None) -> list[AcceptanceResult]:
    """Results of the criteria whose ids are in ``only`` (default all), in id order.

    An unknown id or an empty selection raises ConfigError before any runs. A
    criterion with a runtime limit gets the timed check "runtime (limit Ns)" last.
    """
    unknown = sorted(set(only or ()) - {cid for cid, *_ in CRITERIA})
    if unknown:
        raise ConfigError(f"--only names unknown criteria {unknown} (valid: 1..{len(CRITERIA)})")
    if only is not None and not only:
        raise ConfigError(f"--only selected no criterion (valid: 1..{len(CRITERIA)})")
    results = []
    for cid, name, criterion, limit in CRITERIA:
        if only is None or cid in only:
            t0 = time.perf_counter()
            checks = criterion(seed)
            if limit is not None:
                checks.append((time.perf_counter() - t0 < limit, f"runtime (limit {limit:g}s)"))
            results.append(AcceptanceResult(cid, name, all(ok for ok, _ in checks),
                                            "; ".join(msg for _, msg in checks)))
    return results
