"""Wavepacket equations of motion: closed forms where they exist, else RK4.

FUNDAMENTAL and LORENTZ step in planar, on Python floats and without numpy,
and their integrators here wrap planar's rows into Trajectory arrays.
evolve_general_V takes the same RK4 step, planar.rk4_step, stage by stage,
and holds its rows in a flat array as planar does. Every integrator here runs
on planar.step_count's grid of round(T/dt) steps, as quantum's propagators do.
Every planar vector is two real numbers; anything else is a ConfigError.

Internal units throughout (ħ = m = e = 1): a uniform electric field E enters
accelerations as -E, a magnetic field B ẑ gives the cyclotron frequency
ω_c = B, and for free electrons k and v_g are numerically identical.

Equation tags
-------------
FREE_E       closed form k(t) = k0 - E t, x by elementary integration
GENERAL_V    dv/dt = +V'(x) for an electrical potential V (force = eV')
FUNDAMENTAL  dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E, with x = x0 + ∫v
             (RK4 as one affine step map, in planar)
LORENTZ      dv/dt = -v×B - E (RK4 as one affine step map, in planar)
PERIODIC_E   k(t) = reduce(k0 - E t), v_g from the band dispersion
PERIODIC_B   closed form: k(t) rotates at ω = B ε'(|k|)/|k| (isotropic band),
             and x(t) is the exact integral of that rotation

The two band integrators import the band solver when they run, so this
module loads neither central_equation nor potential; the cyclotron and
compare-eom subcommands call planar directly and load neither this module nor
numpy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, EnergyDriftError
from .planar import compare, planar_rows, real, rk4_step, step_count, vector

if TYPE_CHECKING:
    from .potential import FourierPotential


@dataclass
class Trajectory:
    """Uniformly sampled k(t), x(t), v_g(t) with the governing equation tag; PERIODIC_E
    sets inv_mass (m/m* along the path) and FREE_E the dispersion phase."""

    equation_tag: str
    times: np.ndarray
    k: np.ndarray
    x: np.ndarray
    v_g: np.ndarray
    inv_mass: np.ndarray | None = None
    phase: np.ndarray | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _time_grid(T: float, dt: float):
    """(times, nsteps, h) of every fixed-step integrator: round(T/dt) steps of
    h = T/nsteps (planar.step_count), sampled at every step."""
    nsteps, h = step_count(T, dt)
    return np.arange(nsteps + 1) * h, nsteps, h


def _rk4(f: Callable[[list], tuple], y0, T: float, dt: float):
    """Classic RK4 by planar.rk4_step on a state held as a list of Python floats;
    f returns a sequence. ys is bit-identical to the array form, without the
    per-step array overhead: its rows are held one after another in a flat
    float64 array.array, as planar_rows holds its own, and wrapped without a copy.
    """
    times, nsteps, h = _time_grid(T, dt)
    y = [float(v) for v in y0]
    rows = array("d", y)
    for _ in range(nsteps):
        y = rk4_step(f, y, h)
        rows.extend(y)
    return times, np.frombuffer(rows).reshape(-1, len(y))


def evolve_free_E(k0: float, E: float, T: float, dt: float, x0: float = 0.0) -> Trajectory:
    """Free electron in a uniform field: exact k(t) = k0 - E t.

    x(t) integrates v_g = k(t) in closed form, and so does the accumulated
    dispersion phase ∫ω(k(τ))dτ with ω = k²/2, attached for comparison
    against quantum propagation.
    """
    times, _, _ = _time_grid(T, dt)
    k = k0 - E * times
    x = x0 + k0 * times - 0.5 * E * times ** 2
    phase = k0 ** 2 * times / 2.0 - k0 * E * times ** 2 / 2.0 + E ** 2 * times ** 3 / 6.0
    return Trajectory("FREE_E", times, k, x, k.copy(), phase=phase)


def evolve_general_V(k0: float, x0: float, V: Callable, T: float, dt: float, dV: Callable,
                     energy_tol: float | None = 1e-6) -> Trajectory:
    """Classical limit in a linearizable potential: dv/dt = +V'(x), dx/dt = v.

    V is an electrical potential (the potential energy is -V), a callable on
    arrays of x, and dV its derivative, a callable on one x; a lattice passes
    pot.evaluate, dV=pot.derivative. Conservation of v²/2 - V(x) is checked
    to energy_tol relative over the run unless energy_tol is None.
    """
    def rhs(y):
        return y[1], float(dV(y[0]))

    times, ys = _rk4(rhs, (x0, k0), T, dt)
    x, v = ys[:, 0], ys[:, 1]
    if energy_tol is not None:
        energy = 0.5 * v ** 2 - np.asarray(V(x), dtype=np.float64)
        scale = max(abs(energy[0]), 1e-30)
        drift = float(np.max(np.abs(energy - energy[0])) / scale)
        if drift > energy_tol:
            raise EnergyDriftError(
                f"relative energy drift {drift:.3e} exceeds {energy_tol:.1e}; reduce dt"
            )
    return Trajectory("GENERAL_V", times, v.copy(), x, v)


def _trajectory(tag: str, times, ys) -> Trajectory:
    """A planar run's times and rows (planar.planar_rows) as a Trajectory, on their
    buffers; k and v_g coincide."""
    ys = np.frombuffer(ys).reshape(-1, 4)
    v = ys[:, 2:4]
    return Trajectory(tag, np.frombuffer(times), v.copy(), ys[:, 0:2], v)


def evolve_fundamental(k0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Gauge-derived planar motion: dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E.

    The position enters the equation itself, so the coordinate origin is
    physical: circular orbits require it at the orbit center. k(t) and
    v_g(t) coincide in internal units. B = 0, and a step map or trajectory
    that leaves float range, are refused with ConfigError (planar.planar_rows).
    """
    return _trajectory("FUNDAMENTAL", *planar_rows("FUNDAMENTAL", k0, x0, E, B, T, dt))


def evolve_lorentz(v0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Classical Lorentz force: dv/dt = -v×B - E (planar, B along ẑ)."""
    return _trajectory("LORENTZ", *planar_rows("LORENTZ", v0, x0, E, B, T, dt))


@dataclass(frozen=True)
class DivergenceReport:
    """Both planar trajectories, the per-sample norms |Δx| and |Δv| between
    them (position_divergence, velocity_divergence), and the maxima derived
    from those arrays."""

    fundamental: Trajectory
    lorentz: Trajectory
    position_divergence: np.ndarray
    velocity_divergence: np.ndarray

    @property
    def max_position_divergence(self) -> float:
        return float(np.max(self.position_divergence))

    @property
    def max_velocity_divergence(self) -> float:
        return float(np.max(self.velocity_divergence))


def compare_fundamental_lorentz(k0, x0, E, B: float, T: float, dt: float) -> DivergenceReport:
    """Sup-norm divergence between the two equations for matched (v0, x0).

    The Lorentz initial velocity is taken equal to k0. With E = 0 and x0 at
    the orbit center both systems trace the same circle; with E != 0 they
    separate without bound. A norm that overflows float range is refused with
    ConfigError.
    """
    times, fund, lor, dx, dv = compare(k0, x0, E, B, T, dt)
    return DivergenceReport(_trajectory("FUNDAMENTAL", times, fund),
                            _trajectory("LORENTZ", times, lor), np.frombuffer(dx),
                            np.frombuffer(dv))


def evolve_periodic_E(k0: float, band: int, pot: FourierPotential, n: int,
                      E: float, T: float, dt: float) -> Trajectory:
    """Band transport under a uniform field: k(t) = reduce(k0 - E t).

    v_g is sampled from the band dispersion along the path and x(t) is its
    trapezoid integral from the origin; inv_mass carries the inverse
    effective mass m/m* along the path. All come from one band_derivatives
    call over the whole path.
    """
    from .central_equation import _check_band, band_derivatives, reduce_to_zone

    _check_band(band, n)
    times, _, _ = _time_grid(T, dt)
    k_unred = k0 - E * times
    _, v, inv_mass = band_derivatives(reduce_to_zone(k_unred, pot.a), pot, n, band + 1)
    v = v[:, band]
    x = np.concatenate([[0.0], np.cumsum(np.diff(times) * (v[1:] + v[:-1]) / 2.0)])
    return Trajectory("PERIODIC_E", times, k_unred, x, v, inv_mass=inv_mass[:, band])


def evolve_periodic_B(k0, band: int, pot: FourierPotential, n: int,
                      B: float, T: float, dt: float) -> Trajectory:
    """Planar band dynamics in a magnetic field: k̇ = -v_g(k)×B, in closed form.

    The 1D band is extended isotropically, ε(k) = ε_band(reduce(|k|)), so v_g
    = ε'(ρ) k/ρ is parallel to k, ρ = |k| is conserved, and k0 rotates rigidly
    counter-clockwise at ω = B ε'(ρ)/ρ: near a band extremum the period is 2π m*/B,
    not the free 2π/B. One band_derivatives call gives ε'(ρ); x(t) is v_g's
    exact integral from the origin, s·(sin(ωt)/ω·k0 + (1 - cos ωt)/ω·Jk0) with
    s = ε'(ρ)/ρ and J the quarter turn, in sinc forms exact at ω = 0. Below
    ρ = 1e-12, k stays put and v_g = 0; the truncation is checked there too,
    though no band pass runs. A B that is not a real number or lies past
    float range (the int 10**400) is refused with ConfigError before the band
    pass; a B that is not finite, or a rotation whose largest term ½ωt²
    leaves float range, is refused with ConfigError before k or x is formed.
    """
    from .central_equation import _check_band, _coupling_block, band_derivatives, reduce_to_zone

    k0, B = vector(k0, "k0"), real(B, "B")
    _check_band(band, n)
    _coupling_block(pot, n)
    times, _, _ = _time_grid(T, dt)
    rho = float(np.hypot(k0[0], k0[1]))
    slope = 0.0
    if rho >= 1e-12:
        _, v, _ = band_derivatives(reduce_to_zone(rho, pot.a), pot, n, band + 1)
        slope = float(v[0, band]) / rho
    # on Python floats a product past float range is inf, with no warning
    t_end = float(times[-1])
    if not np.isfinite(0.5 * (B * slope * t_end) * t_end):
        raise ConfigError(f"PERIODIC_B rotation leaves float range (B={B!r}, T={T!r}, dt={dt!r})")
    wt = B * slope * times
    c, s = np.cos(wt), np.sin(wt)
    k = np.column_stack([c * k0[0] - s * k0[1], s * k0[0] + c * k0[1]])
    along = times * np.sinc(wt / np.pi)
    across = 0.5 * wt * times * np.sinc(0.5 * wt / np.pi) ** 2
    x = slope * (np.outer(along, k0) + np.outer(across, [-k0[1], k0[0]]))
    return Trajectory("PERIODIC_B", times, k, x, slope * k)
