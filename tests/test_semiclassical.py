"""Equation-of-motion integrators: closed forms, conservation, field limits."""

import dataclasses
import math
import re

import numpy as np
import pytest

from blochdyn import (
    ConfigError,
    EnergyDriftError,
    FourierPotential,
    band_derivatives,
    compare_fundamental_lorentz,
    evolve_free_E,
    evolve_fundamental,
    evolve_general_V,
    evolve_lorentz,
    evolve_periodic_B,
    evolve_periodic_E,
    reduce_to_zone,
    single_cosine,
    solve_at,
)
from blochdyn import semiclassical
from blochdyn.semiclassical import DivergenceReport, _time_grid

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# free electron in a uniform field


def test_free_E_closed_form():
    traj = evolve_free_E(0.0, 1.0, 2.0, 0.01)
    assert traj.equation_tag == "FREE_E"
    assert traj.k[-1] == pytest.approx(-2.0, abs=1e-12)
    assert traj.x[-1] == pytest.approx(-2.0, abs=1e-12)
    # accumulated dispersion phase ∫ (E t)²/2 dt = t³/6
    assert traj.phase[-1] == pytest.approx(8.0 / 6.0, rel=1e-8)
    np.testing.assert_allclose(traj.v_g, traj.k, atol=0)


def test_free_E_with_offset_and_initial_k():
    traj = evolve_free_E(1.5, 0.2, 3.0, 0.01, x0=4.0)
    t = traj.times
    np.testing.assert_allclose(traj.x, 4.0 + 1.5 * t - 0.1 * t ** 2, atol=1e-12)


@pytest.mark.parametrize("k0, e_field, horizon, phase", [
    (1.5, 0.2, 3.0, 2.205),                # k0²T/2 - k0·E·T²/2 + E²T³/6
    (2.0, -0.5, 1.0, 2.0 + 0.5 + 0.25 / 6.0),
    (0.7, 0.0, 2.0, 0.49),                 # no field: the phase grows as k0²t/2
])
def test_free_E_phase_with_initial_k(k0, e_field, horizon, phase):
    traj = evolve_free_E(k0, e_field, horizon, 0.01)
    assert traj.phase[0] == 0.0
    assert traj.phase[-1] == pytest.approx(phase, rel=1e-12)


def test_linear_potential_reproduces_free_E():
    # V(x) = -E x gives dv/dt = +V' = -E, the uniform-field equation
    e_field = 0.7
    free = evolve_free_E(0.3, e_field, 5.0, 1e-3, x0=1.0)
    gen = evolve_general_V(0.3, 1.0, lambda x: -e_field * x, 5.0, 1e-3,
                           dV=lambda x: -e_field)
    np.testing.assert_allclose(gen.x, free.x, atol=1e-10)
    np.testing.assert_allclose(gen.v_g, free.v_g, atol=1e-10)


# --------------------------------------------------------------------------
# potential-driven classical motion


def test_harmonic_well_ten_periods():
    # electrical potential -x²/2 gives dv/dt = -x
    x0, v0 = 1.2, -0.4
    horizon = 10.0 * TWO_PI
    traj = evolve_general_V(v0, x0, lambda x: -0.5 * x * x, horizon,
                            TWO_PI / 1000.0, dV=lambda x: -x)
    assert traj.x[-1] == pytest.approx(
        x0 * math.cos(horizon) + v0 * math.sin(horizon), abs=1e-6)
    assert traj.v_g[-1] == pytest.approx(
        -x0 * math.sin(horizon) + v0 * math.cos(horizon), abs=1e-6)
    energy = 0.5 * traj.v_g ** 2 + 0.5 * traj.x ** 2
    np.testing.assert_allclose(energy, energy[0], rtol=1e-8)


def test_periodic_potential_through_evaluate_and_derivative():
    pot = single_cosine(1.0, 0.2)
    traj = evolve_general_V(0.9, 0.1, pot.evaluate, 10.0, 1e-3, dV=pot.derivative)
    assert traj.equation_tag == "GENERAL_V"
    energy = 0.5 * traj.v_g ** 2 - pot.evaluate(traj.x)
    np.testing.assert_allclose(energy, energy[0], atol=1e-7)


def test_energy_drift_guard():
    # a stiff well at a reckless step size destroys the invariant
    with pytest.raises(EnergyDriftError):
        evolve_general_V(0.0, 1.0, lambda x: -50.0 * x * x, 20.0, 0.5,
                         dV=lambda x: -100.0 * x)
    # the same run goes through with the check disabled
    traj = evolve_general_V(0.0, 1.0, lambda x: -50.0 * x * x, 20.0, 0.5,
                            dV=lambda x: -100.0 * x, energy_tol=None)
    assert traj.times[-1] == pytest.approx(20.0)


# --------------------------------------------------------------------------
# planar motion in E and B


def test_fundamental_circle():
    period = TWO_PI
    traj = evolve_fundamental([1.0, 0.0], [0.0, -1.0], [0.0, 0.0], 1.0,
                              period, period / 500.0)
    radii = np.linalg.norm(traj.x, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-7)
    np.testing.assert_allclose(traj.x[-1], traj.x[0], atol=1e-7)


def test_fundamental_rest_and_equilibrium():
    rest = evolve_fundamental([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 2.0, 5.0, 1e-2)
    np.testing.assert_allclose(rest.x, 0.0, atol=1e-14)
    # static solution of the restoring-force equation: x* = -2E/ω_c²
    e_vec = [0.3, -0.1]
    wc = 1.5
    x_star = [-2.0 * e_vec[0] / wc ** 2, -2.0 * e_vec[1] / wc ** 2]
    pinned = evolve_fundamental([0.0, 0.0], x_star, e_vec, wc, 5.0, 1e-2)
    np.testing.assert_allclose(pinned.x, np.broadcast_to(x_star, pinned.x.shape),
                               atol=1e-12)


def test_fundamental_requires_magnetic_field():
    with pytest.raises(ValueError):
        evolve_fundamental([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], 0.0, 1.0, 1e-2)


def test_lorentz_drift_velocity():
    # E×B drift (E_y/B, -E_x/B); average velocity over whole periods
    b_field = 2.0
    e_vec = [0.5, 0.0]
    period = TWO_PI / b_field
    traj = evolve_lorentz([0.0, 0.0], [0.0, 0.0], e_vec, b_field,
                          10.0 * period, period / 400.0)
    v_mean = np.mean(traj.v_g[:-1], axis=0)
    np.testing.assert_allclose(v_mean, [0.0, -0.25], atol=1e-3)


def test_lorentz_zero_field_uniform_acceleration():
    e_vec = [0.4, -0.2]
    traj = evolve_lorentz([1.0, 0.5], [0.0, 0.0], e_vec, 0.0, 4.0, 1e-2)
    t = traj.times[:, None]
    v_exact = np.array([1.0, 0.5]) - np.asarray(e_vec) * t
    np.testing.assert_allclose(traj.v_g, v_exact, atol=1e-12)


def test_lorentz_mirror_symmetry_under_field_reversal():
    fwd = evolve_lorentz([1.0, 0.3], [0.2, -0.5], [0.1, 0.0], 1.3, 6.0, 1e-3)
    mir = evolve_lorentz([1.0, -0.3], [0.2, 0.5], [0.1, 0.0], -1.3, 6.0, 1e-3)
    np.testing.assert_allclose(mir.x[:, 0], fwd.x[:, 0], atol=1e-12)
    np.testing.assert_allclose(mir.x[:, 1], -fwd.x[:, 1], atol=1e-12)


def test_compare_centered_orbits_identical():
    period = TWO_PI
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.0, -1.0], [0.0, 0.0],
                                      1.0, 3.0 * period, period / 2000.0)
    assert rep.max_position_divergence < 1e-12
    assert rep.max_velocity_divergence < 1e-12


def test_compare_crossed_fields_frozen_divergence():
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.0, -1.0], [1.0, 0.0],
                                      1.0, 10.0, 1e-3)
    assert rep.max_position_divergence == pytest.approx(11.465010899107085, rel=1e-9)
    assert rep.max_velocity_divergence == pytest.approx(1.7320507980397548, rel=1e-9)


def test_compare_maxima_are_derived_from_the_divergences():
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.0, -1.0], [1.0, 0.0], 1.0, 10.0, 1e-3)
    assert rep.max_position_divergence == float(np.max(rep.position_divergence))
    assert rep.max_velocity_divergence == float(np.max(rep.velocity_divergence))
    assert [f.name for f in dataclasses.fields(rep)] == [
        "fundamental", "lorentz", "position_divergence", "velocity_divergence"]
    # no report holds a maximum that its arrays disagree with
    halved = dataclasses.replace(rep, position_divergence=0.5 * rep.position_divergence)
    assert halved.max_position_divergence == 0.5 * rep.max_position_divergence
    with pytest.raises(TypeError):
        DivergenceReport(rep.max_position_divergence, rep.max_velocity_divergence,
                         rep.fundamental, rep.lorentz, rep.position_divergence,
                         rep.velocity_divergence)
    with pytest.raises(TypeError):
        dataclasses.replace(rep, max_velocity_divergence=0.0)


def test_compare_off_center_differs_even_without_E():
    rep = compare_fundamental_lorentz([1.0, 0.0], [0.5, -1.0], [0.0, 0.0],
                                      1.0, 2.0 * TWO_PI, TWO_PI / 1000.0)
    assert rep.max_position_divergence == pytest.approx(0.8660254, rel=1e-3)


# --------------------------------------------------------------------------
# band transport


def test_periodic_E_bloch_oscillation():
    pot = single_cosine(1.0, 0.05)
    e_field = 0.05
    t_bloch = TWO_PI / e_field
    traj = evolve_periodic_E(0.0, 0, pot, 10, e_field, t_bloch, t_bloch / 2048.0)
    assert traj.equation_tag == "PERIODIC_E"
    # k returns to the starting zone label and the velocity closes the loop
    assert traj.v_g[-1] == pytest.approx(traj.v_g[0], abs=1e-6)
    assert abs(traj.x[-1] - traj.x[0]) < 1e-2
    np.testing.assert_allclose(traj.k, -e_field * traj.times, atol=1e-12)
    assert np.all(np.abs(reduce_to_zone(traj.k, pot.a)) <= math.pi + 1e-12)


# complex coefficients with no mirror plane, so band 0 has no k -> -k symmetry
SKEW = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j, 2: 0.1 - 0.15j, -2: 0.1 + 0.15j})


@pytest.mark.parametrize("pot, band, k0, E, periods", [
    (single_cosine(1.0, 0.3), 0, 0.3, 0.05, 1.0),
    (SKEW, 0, -1.0, -1e-3, 1.2),
    (SKEW, 1, -1.0, -1e-3, 1.2),
], ids=["real-band0", "complex-band0", "complex-band1"])
def test_periodic_E_position_closes_on_the_band_energy(pot, band, k0, E, periods):
    # dε/dt = -E·v, so x(t) = -(ε(k(t)) - ε(k0))/E exactly; the 1/E amplifies the
    # roundoff of ε, so this oracle holds for |E| >= 1e-3 only. The trapezoid errs
    # by at most t·h²/12·max|v''|, v'' = E²·ε''' with ε''' taken on a fine zone
    # grid, and halving h quarters the error
    ks = np.linspace(-math.pi, math.pi, 1025)
    third = np.max(np.abs(np.gradient(band_derivatives(ks, pot, 10, band + 1)[2][:, band], ks)))
    T = periods * TWO_PI / abs(E)
    errors = []
    for steps in (400, 800):
        traj = evolve_periodic_E(k0, band, pot, 10, E, T, T / steps)
        eps = band_derivatives(reduce_to_zone(traj.k, pot.a), pot, 10, band + 1)[0][:, band]
        error = np.max(np.abs(traj.x - (eps[0] - eps) / E))
        assert error <= T * traj.dt ** 2 / 12.0 * E * E * third
        errors.append(error)
    assert 3.8 <= errors[0] / errors[1] <= 4.2


def test_periodic_E_mass_channel():
    pot = single_cosine(1.0, 0.05)
    traj = evolve_periodic_E(0.3, 0, pot, 10, 0.05, 10.0, 0.1)
    inv_mass = traj.inv_mass
    assert inv_mass.shape == traj.times.shape
    assert np.all(np.isfinite(inv_mass))


def test_periodic_B_free_limit_rotation():
    pot = single_cosine(1.0, 1e-6)
    period = TWO_PI
    traj = evolve_periodic_B([1.0, 0.0], 0, pot, 10, 1.0, period, period / 200.0)
    radii = np.linalg.norm(traj.k, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-5)
    np.testing.assert_allclose(traj.k[-1], traj.k[0], atol=1e-4)


def test_periodic_B_period_scales_with_effective_mass():
    # near the bottom of a strong lattice the orbit slows by m*/m
    pot = single_cosine(1.0, 2.0)
    m_star = 1.0830287831518808
    b_field = 1.0
    expected = TWO_PI * m_star / b_field
    traj = evolve_periodic_B([0.25, 0.0], 0, pot, 10, b_field, expected,
                             expected / 400.0)
    ang = np.unwrap(np.arctan2(traj.k[:, 1], traj.k[:, 0]))
    slope = np.polyfit(traj.times, ang, 1)[0]
    assert TWO_PI / abs(slope) == pytest.approx(expected, rel=2e-2)
    assert TWO_PI / abs(slope) > TWO_PI * 1.04   # clearly not the free period


def test_periodic_B_zero_field_keeps_k():
    pot = single_cosine(1.0, 0.3)
    traj = evolve_periodic_B([0.4, 0.1], 0, pot, 10, 0.0, 1.0, 0.05)
    np.testing.assert_allclose(traj.k, np.broadcast_to([0.4, 0.1], traj.k.shape),
                               atol=1e-14)


def _rk4_periodic_B(k0, band, pot, n, B, T, dt):
    """The RK4 orbit the closed form replaced: k̇ = B·(-v_y, v_x) and ẋ = v_g, with
    x carried in the RK4 state from the origin and v_g rebuilt per stage.

    v_g = ε'(ρ) k/ρ takes ε'(ρ) as Σ_l |a_l|² κ_l of a lone solve_at at reduce(ρ).
    Returns (times, k, x, v_g).
    """
    def vg_of(kvec):
        rho = math.hypot(kvec[0], kvec[1])
        if rho < 1e-12:
            return np.zeros(2)
        sol = solve_at(reduce_to_zone(rho, pot.a), 0.0, pot, n)
        speed = float(np.abs(sol.vectors[:, band]) ** 2 @ sol.plane_wavevectors)
        return speed * np.asarray(kvec) / rho

    def rhs(y):
        v = vg_of(y[:2])
        return -B * v[1], B * v[0], v[0], v[1]

    times, ys = semiclassical._rk4(rhs, [*k0, 0.0, 0.0], T, dt)
    ks = ys[:, :2]
    return times, ks, ys[:, 2:], np.array([vg_of(k) for k in ks])


@pytest.mark.parametrize("k0, band, B", [([2.0, 1.0], 1, 0.8), ([2.5, -1.0], 0, -0.7)])
def test_periodic_B_closed_form_is_the_rk4_limit(k0, band, B):
    # RK4's error is O(dt⁴): halving dt shrinks the gap to the exact orbit ~16-fold
    pot = single_cosine(1.0, 0.3)
    gaps = []
    for dt in (0.02, 0.01):
        traj = evolve_periodic_B(k0, band, pot, 8, B, 4.0, dt)
        times, k, x, v = _rk4_periodic_B(k0, band, pot, 8, B, 4.0, dt)
        np.testing.assert_array_equal(traj.times, times)
        gaps.append(max(np.max(np.abs(traj.k - k)), np.max(np.abs(traj.x - x)),
                        np.max(np.abs(traj.v_g - v))))
    assert gaps[0] < 1e-6
    assert 12.0 <= gaps[0] / gaps[1] <= 20.0


def test_periodic_B_conserves_the_orbit_radius():
    pot = single_cosine(1.0, 0.3)
    traj = evolve_periodic_B([2.5, -1.0], 0, pot, 8, -0.7, 200.0, 0.01)
    np.testing.assert_allclose(np.hypot(traj.k[:, 0], traj.k[:, 1]), math.hypot(2.5, -1.0),
                               rtol=0.0, atol=1e-14)


def _rigid_rotation(k0, slope, B, t):
    """x(t) from the origin of v = slope·R(ωt)k0, ω = B·slope: slope·(sin ωt/ω·k0 +
    (1 - cos ωt)/ω·Jk0), J the quarter turn, in sinc forms that stay exact as ω -> 0."""
    omega = B * slope
    along = t * np.sinc(omega * t / math.pi)
    across = 0.5 * omega * t * t * np.sinc(omega * t / TWO_PI) ** 2
    return slope * (np.outer(along, k0) + np.outer(across, [-k0[1], k0[0]]))


@pytest.mark.parametrize("pot, k0, band, B", [(single_cosine(1.0, 0.3), [2.0, 1.0], 1, 0.8),
                                              (SKEW, [2.5, -1.0], 0, -0.7)],
                         ids=["real", "complex"])
def test_periodic_B_position_is_the_rigid_rotation_closed_form(pot, k0, band, B):
    # x is the exact integral of v_g, so it matches the closed form to roundoff at
    # every step size and, at shared times, does not depend on dt (the trapezoid it
    # replaced erred by up to 3.7e-4 at dt 0.02 over t = 20)
    rho = math.hypot(*k0)
    slope = band_derivatives(reduce_to_zone(rho, pot.a), pot, 10, band + 1)[1][0, band] / rho
    runs = [evolve_periodic_B(k0, band, pot, 10, B, 20.0, dt) for dt in (0.02, 0.01)]
    for traj in runs:
        np.testing.assert_allclose(traj.v_g, slope * traj.k, rtol=0, atol=1e-15)
        error = np.max(np.abs(traj.x - _rigid_rotation(k0, slope, B, traj.times)))
        assert error <= 1e-13 * np.max(np.abs(traj.x))
    np.testing.assert_array_equal(runs[1].times[::2], runs[0].times)
    np.testing.assert_array_equal(runs[1].x[::2], runs[0].x)


@pytest.mark.parametrize("B", [0.0, 1e-30])
def test_periodic_B_closed_form_holds_as_the_field_vanishes(B):
    # sin(ωt)/ω -> t and (1 - cos ωt)/ω -> 0: the sinc forms hold where ω is 0 or tiny
    pot = single_cosine(1.0, 0.3)
    traj = evolve_periodic_B([0.4, 0.1], 0, pot, 10, B, 50.0, 0.05)
    slope = traj.v_g[0, 0] / 0.4
    np.testing.assert_allclose(traj.x, _rigid_rotation([0.4, 0.1], slope, B, traj.times),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("k0, B", [([2.0, 1.0], 1e308), ([2.0, 1.0], math.inf),
                                   ([2.0, 1.0], math.nan), ([2.0, 1.0], 1e306),
                                   ([0.0, 0.0], math.inf)],
                         ids=["1e308", "inf", "nan", "half-wt2-overflows", "origin-inf"])
def test_periodic_B_refuses_a_rotation_past_float_range(k0, B):
    # at 1e306, ωT is finite and ½ωT² is not; at the origin s = 0 and B·s is NaN.
    # Refused before k or x is formed, so no overflow warning (an error under
    # this suite's filterwarnings) is raised first
    with pytest.raises(ConfigError, match=re.escape(
            f"PERIODIC_B rotation leaves float range (B={B!r}, T=20.0, dt=0.02)")):
        evolve_periodic_B(k0, 0, single_cosine(1.0, 0.3), 10, B, 20.0, 0.02)


@pytest.mark.parametrize("evolve", [
    lambda B: evolve_fundamental([1.0, 0.0], [0.0, -1.0], [0.0, 0.0], B, 1.0, 0.1),
    lambda B: evolve_lorentz([1.0, 0.0], [0.0, -1.0], [0.0, 0.0], B, 1.0, 0.1),
    lambda B: evolve_periodic_B([0.3, 0.1], 0, single_cosine(1.0, 0.3), 4, B, 1.0, 0.1),
], ids=["fundamental", "lorentz", "periodic_B"])
def test_a_field_past_float_range_is_a_config_error(evolve):
    # a Python int converts to float only within float range, so 10**400 is bad
    # input, refused as such
    with pytest.raises(ConfigError, match="B lies past float range"):
        evolve(10 ** 400)


@pytest.mark.parametrize("n, message", [(0, "truncation half-width must be >= 1, got 0"),
                                        (2, "smaller than potential cutoff L=3")])
@pytest.mark.parametrize("k0", [[0.0, 0.0], [1e-13, 0.0], [0.5, 0.0]],
                         ids=["origin", "below-rho-min", "off"])
def test_periodic_B_refuses_a_bad_truncation_at_every_k0(k0, n, message):
    # below ρ = 1e-12 no band pass runs, and the truncation is still checked
    pot = FourierPotential(1.0, {1: 0.1, -1: 0.1, 3: 0.05, -3: 0.05})
    with pytest.raises(ConfigError, match=re.escape(message)):
        evolve_periodic_B(k0, 0, pot, n, 1.0, 1.0, 0.1)


@pytest.mark.parametrize("band", [-1, 9])
@pytest.mark.parametrize("evolve", [
    lambda band: evolve_periodic_B([0.3, 0.1], band, single_cosine(1.0, 0.3), 4, 0.5, 0.2, 0.1),
    lambda band: evolve_periodic_E(0.3, band, single_cosine(1.0, 0.3), 4, 0.5, 0.2, 0.1),
], ids=["periodic_B", "periodic_E"])
def test_band_integrators_reject_a_band_out_of_range(evolve, band):
    # n = 4 truncation has bands 0..8
    with pytest.raises(ConfigError, match="out of range"):
        evolve(band)


# --------------------------------------------------------------------------
# plumbing


def test_time_grid_rounding():
    times, nsteps, dt_eff = _time_grid(1.0, 0.3)
    assert nsteps == 3
    assert dt_eff == pytest.approx(1.0 / 3.0)
    assert times[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        _time_grid(1.0, 2.0)
    with pytest.raises(ValueError):
        _time_grid(1.0, 0.0)


def _array_rk4(f, y0, T, dt):
    """RK4 with the state as a float64 array, the form the list-of-floats loop replaced."""
    times, nsteps, h = _time_grid(T, dt)
    y = np.asarray(y0, dtype=np.float64)
    ys = np.empty((nsteps + 1, y.size))
    ys[0] = y
    for j in range(nsteps):
        k1 = np.asarray(f(y))
        k2 = np.asarray(f(y + 0.5 * h * k1))
        k3 = np.asarray(f(y + 0.5 * h * k2))
        k4 = np.asarray(f(y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[j + 1] = y
    return times, ys


def test_rk4_on_floats_is_bit_identical_to_the_array_form(monkeypatch):
    pot = single_cosine(1.0, 0.3)
    runs = [
        lambda: evolve_general_V(0.9, 0.1, pot.evaluate, 5.0, 1e-2, dV=pot.derivative),
        lambda: evolve_general_V(0.3, 1.2, lambda x: -0.5 * x * x - 0.1 * x ** 3, 5.0, 1e-2,
                                 dV=lambda x: -x - 0.3 * x * x),
    ]
    fast = [run() for run in runs]
    monkeypatch.setattr(semiclassical, "_rk4", _array_rk4)
    for got, run in zip(fast, runs):
        want = run()
        for name in ("times", "k", "x", "v_g"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                          err_msg=f"{want.equation_tag} {name}")


def _fundamental_generator(wc, E):
    return [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
            [-wc * wc / 2, 0, 0, -wc / 2, -E[0]], [0, -wc * wc / 2, wc / 2, 0, -E[1]],
            [0, 0, 0, 0, 0]]


def _lorentz_generator(wc, E):
    return [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, -wc, -E[0]], [0, 0, wc, 0, -E[1]], [0, 0, 0, 0, 0]]


# (integrator, the generator G of d(x, y, vx, vy, 1)/dt = G·(...)), written here
# independently of the package's own matrices
PLANAR = [(evolve_fundamental, _fundamental_generator), (evolve_lorentz, _lorentz_generator)]
# (v0, x0, E, B, T, dt): 600 steps with E != 0; B < 0 over 2000 steps; a larger
# E, off the orbit centre
PLANAR_RUNS = [
    ([0.7, -0.2], [0.3, 0.1], [0.05, -0.02], 1.3, 6.0, 0.01),
    ([1.0, 0.0], [0.0, -1.0], [0.0, 0.0], -0.8, 40.0, 0.02),
    ([0.2, 0.5], [-0.4, 0.3], [0.3, 0.1], 2.0, 8.0, 0.02),
]


def _planar_rk4(generator, v0, x0, E, B, T, dt):
    """(x, v) of the planar equation by RK4 stage by stage, on semiclassical._rk4."""
    G = np.array(generator(B, E), dtype=float)[:4]
    _, ys = semiclassical._rk4(lambda y: G @ [*y, 1.0], [*x0, *v0], T, dt)
    return ys[:, 0:2], ys[:, 2:4]


@pytest.mark.parametrize("evolve, generator", PLANAR, ids=["fundamental", "lorentz"])
def test_planar_step_matrix_is_rk4(evolve, generator):
    from scipy.linalg import expm

    for v0, x0, E, B, T, dt in PLANAR_RUNS:
        traj = evolve(v0, x0, E, B, T, dt)
        x, v = _planar_rk4(generator, v0, x0, E, B, T, dt)
        for got, want in ((traj.x, x), (traj.v_g, v)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (v0, B, E)
        # fourth order: halving dt shrinks the error at T sixteen-fold
        exact = (expm(np.array(generator(B, E), dtype=float) * T) @ [*x0, *v0, 1.0])[:4]
        errors = [np.linalg.norm(np.concatenate([t.x[-1], t.v_g[-1]]) - exact)
                  for t in (traj, evolve(v0, x0, E, B, T, dt / 2))]
        assert 15.0 <= errors[0] / errors[1] <= 17.0, (v0, B, E, errors)


def test_trapezoid_integral_matches_scipy():
    from scipy.integrate import cumulative_trapezoid

    # evolve_periodic_E's x is the running trapezoid of its own v_g, bitwise
    for pot, k0, E, T, dt in ((single_cosine(1.0, 0.3), 0.3, 0.05, 40.0, 0.1),
                              (SKEW, -1.0, -1e-3, 7.0, 0.3)):
        traj = evolve_periodic_E(k0, 0, pot, 10, E, T, dt)
        np.testing.assert_array_equal(traj.x, cumulative_trapezoid(traj.v_g, traj.times,
                                                                   initial=0.0))


def test_trajectory_properties():
    traj = evolve_free_E(0.0, 1.0, 1.0, 0.25)
    assert traj.dt == pytest.approx(0.25)
