"""Wavepacket equations of motion integrated with fixed-step classic RK4.

Internal units throughout (ħ = m = e = 1): a uniform electric field E enters
accelerations as -E, a magnetic field B ẑ gives the cyclotron frequency
ω_c = B, and for free electrons k and v_g are numerically identical.

Equation tags
-------------
FREE_E       closed form k(t) = k0 - E t, x by elementary integration
GENERAL_V    dv/dt = +V'(x) for an electrical potential V (force = eV')
FUNDAMENTAL  dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E, with x = x0 + ∫v
LORENTZ      dv/dt = -v×B - E
PERIODIC_E   k(t) = reduce(k0 - E t), v_g from the band dispersion
PERIODIC_B   k̇ = -v_g×B on an isotropic extension of the 1D band
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

from .central_equation import (_mass_from_curvature, band_derivatives,
                               hellmann_feynman_velocity, reduce_to_zone, solve_at)
from .errors import EnergyDriftError
from .potential import FourierPotential

TWO_PI = 2.0 * np.pi


@dataclass
class Trajectory:
    """Uniformly sampled k(t), x(t), v_g(t) with the governing equation tag."""

    equation_tag: str
    times: np.ndarray
    k: np.ndarray
    x: np.ndarray
    v_g: np.ndarray
    meta: dict = field(default_factory=dict)
    phase: np.ndarray | None = None

    @property
    def k_reduced(self) -> np.ndarray:
        a = self.meta.get("a", 1.0)
        return reduce_to_zone(self.k, a)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _time_grid(T: float, dt: float):
    if not (dt > 0.0 and T >= dt):
        raise ValueError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    nsteps = max(1, int(round(T / dt)))
    dt_eff = T / nsteps
    return np.arange(nsteps + 1) * dt_eff, nsteps, dt_eff


def _rk4(f: Callable[[np.ndarray], np.ndarray], y0: np.ndarray, T: float, dt: float):
    times, nsteps, h = _time_grid(T, dt)
    ys = np.empty((nsteps + 1, y0.size))
    ys[0] = y0
    y = y0.astype(np.float64)
    for j in range(nsteps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[j + 1] = y
    return times, ys


def evolve_free_E(k0: float, E: float, T: float, dt: float, x0: float = 0.0) -> Trajectory:
    """Free electron in a uniform field: exact k(t) = k0 - E t.

    x(t) integrates v_g = k(t) in closed form; the accumulated dispersion
    phase ∫ω(k(τ))dτ with ω = k²/2 is attached via Simpson's rule for
    comparison against quantum propagation.
    """
    times, _, _ = _time_grid(T, dt)
    k = k0 - E * times
    x = x0 + k0 * times - 0.5 * E * times ** 2
    omega = 0.5 * k ** 2
    phase = cumulative_simpson(omega, x=times, initial=0.0)
    return Trajectory("FREE_E", times, k, x, k.copy(),
                      meta={"dt": float(times[1] - times[0]), "method": "closed_form",
                            "E": float(E)},
                      phase=phase)


def evolve_general_V(k0: float, x0: float, V, T: float, dt: float,
                     dV: Callable[[float], float] | None = None,
                     energy_tol: float | None = 1e-6) -> Trajectory:
    """Classical limit in a linearizable potential: dv/dt = +V'(x), dx/dt = v.

    V is an electrical potential (the potential energy is -V), given either
    as a FourierPotential or a callable; a callable without dV gets a
    central-difference derivative. Conservation of v²/2 - V(x) is checked
    to energy_tol relative over the run unless energy_tol is None.
    """
    if isinstance(V, FourierPotential):
        Vx, dVx = V.evaluate, V.derivative
    else:
        Vx = V
        if dV is not None:
            dVx = dV
        else:
            h = 1e-6

            def dVx(x):
                return (Vx(x + h) - Vx(x - h)) / (2.0 * h)

    def rhs(y):
        return np.array([y[1], dVx(y[0])])

    times, ys = _rk4(rhs, np.array([x0, k0], dtype=np.float64), T, dt)
    x, v = ys[:, 0], ys[:, 1]
    if energy_tol is not None:
        energy = 0.5 * v ** 2 - np.asarray(Vx(x), dtype=np.float64)
        scale = max(abs(energy[0]), 1e-30)
        drift = float(np.max(np.abs(energy - energy[0])) / scale)
        if drift > energy_tol:
            raise EnergyDriftError(
                f"relative energy drift {drift:.3e} exceeds {energy_tol:.1e}; reduce dt"
            )
    return Trajectory("GENERAL_V", times, v.copy(), x, v,
                      meta={"dt": float(times[1] - times[0]), "method": "rk4"})


def cyclotron_center_offset(v0: np.ndarray, omega_c: float) -> np.ndarray:
    """Starting position (relative to the orbit center) matching velocity v0.

    For the circular solution v(t) = κ(cos ω_c t, sin ω_c t) the position is
    x(t) = (κ/ω_c)(sin ω_c t, -cos ω_c t), i.e. x = (v × ẑ)/ω_c at all times.
    """
    v0 = np.asarray(v0, dtype=np.float64)
    return np.array([v0[1], -v0[0]]) / omega_c


def _planar(vec, name):
    v = np.atleast_1d(np.asarray(vec, dtype=np.float64))
    if v.size == 1:
        v = np.array([float(v[0]), 0.0])
    if v.size != 2:
        raise ValueError(f"{name} must have 1 or 2 components, got {vec!r}")
    return v


def evolve_fundamental(k0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Gauge-derived planar motion: dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E.

    The position enters the equation itself, so the coordinate origin is
    physical: circular orbits require it at the orbit center. k(t) and
    v_g(t) coincide in internal units.
    """
    if B == 0.0:
        raise ValueError("B must be nonzero; use evolve_free_E for the field-free case")
    v0 = _planar(k0, "k0")
    x0 = _planar(x0, "x0")
    Ev = _planar(E, "E")
    wc = float(B)

    def rhs(y):
        x, yy, vx, vy = y
        ax = -0.5 * wc * vy - 0.5 * wc * wc * x - Ev[0]
        ay = +0.5 * wc * vx - 0.5 * wc * wc * yy - Ev[1]
        return np.array([vx, vy, ax, ay])

    times, ys = _rk4(rhs, np.concatenate([x0, v0]), T, dt)
    v = ys[:, 2:4]
    return Trajectory("FUNDAMENTAL", times, v.copy(), ys[:, 0:2], v,
                      meta={"dt": float(times[1] - times[0]), "method": "rk4",
                            "B": wc, "E": Ev.copy()})


def evolve_lorentz(v0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Classical Lorentz force: dv/dt = -v×B - E (planar, B along ẑ)."""
    v0 = _planar(v0, "v0")
    x0 = _planar(x0, "x0")
    Ev = _planar(E, "E")
    wc = float(B)

    def rhs(y):
        x, yy, vx, vy = y
        ax = -wc * vy - Ev[0]
        ay = +wc * vx - Ev[1]
        return np.array([vx, vy, ax, ay])

    times, ys = _rk4(rhs, np.concatenate([x0, v0]), T, dt)
    v = ys[:, 2:4]
    return Trajectory("LORENTZ", times, v.copy(), ys[:, 0:2], v,
                      meta={"dt": float(times[1] - times[0]), "method": "rk4",
                            "B": wc, "E": Ev.copy()})


@dataclass(frozen=True)
class DivergenceReport:
    max_position_divergence: float
    max_velocity_divergence: float
    fundamental: Trajectory
    lorentz: Trajectory


def compare_fundamental_lorentz(k0, x0, E, B: float, T: float, dt: float) -> DivergenceReport:
    """Sup-norm divergence between the two equations for matched (v0, x0).

    The Lorentz initial velocity is taken equal to k0. With E = 0 and x0 at
    the orbit center both systems trace the same circle; with E != 0 they
    separate without bound.
    """
    fund = evolve_fundamental(k0, x0, E, B, T, dt)
    lor = evolve_lorentz(k0, x0, E, B, T, dt)
    dx = float(np.max(np.linalg.norm(fund.x - lor.x, axis=1)))
    dv = float(np.max(np.linalg.norm(fund.v_g - lor.v_g, axis=1)))
    return DivergenceReport(dx, dv, fund, lor)


def evolve_periodic_E(k0: float, band: int, pot: FourierPotential, n: int,
                      E: float, T: float, dt: float, x0: float = 0.0,
                      with_mass: bool = False) -> Trajectory:
    """Band transport under a uniform field: k(t) = reduce(k0 - E t).

    v_g is sampled from the band dispersion along the path and x(t) is its
    trapezoid integral. With with_mass=True, meta["m_star"] carries the
    effective mass along the path. Both come from one band_derivatives call
    over the whole path.
    """
    times, _, _ = _time_grid(T, dt)
    k_unred = k0 - E * times
    _, v, inv_mass = band_derivatives(reduce_to_zone(k_unred, pot.a), pot, n, band + 1)
    v = v[:, band]
    x = x0 + cumulative_trapezoid(v, times, initial=0.0)
    meta = {"dt": float(times[1] - times[0]), "method": "band_sampling",
            "a": pot.a, "E": float(E)}
    if with_mass:
        meta["m_star"] = _mass_from_curvature(inv_mass[:, band])
    return Trajectory("PERIODIC_E", times, k_unred, x, v, meta=meta)


def evolve_periodic_B(k0, band: int, pot: FourierPotential, n: int,
                      B: float, T: float, dt: float) -> Trajectory:
    """Planar band dynamics in a magnetic field: k̇ = -v_g(k)×B.

    The 1D band is extended isotropically, ε(k) = ε_band(reduce(|k|)), so
    v_g = ε'(|k|) k̂ and the orbit near a band extremum closes with period
    2π m*/(B) instead of the free 2π/B. x(t) integrates v_g from the origin.
    """
    k0 = _planar(k0, "k0")
    wc = float(B)

    def vg_of(kvec):
        rho = float(np.hypot(kvec[0], kvec[1]))
        if rho < 1e-12:
            return np.zeros(2)
        sol = solve_at(reduce_to_zone(rho, pot.a), 0.0, pot, n)
        return hellmann_feynman_velocity(sol, band) * kvec / rho

    def rhs(y):
        v = vg_of(y)
        # k' = -v×B with B = B ẑ: v×B = (v_y B, -v_x B)
        return np.array([-wc * v[1], wc * v[0]])

    times, ks = _rk4(rhs, k0, T, dt)
    vs = np.array([vg_of(k) for k in ks])
    x = cumulative_trapezoid(vs, times, initial=0.0, axis=0)
    return Trajectory("PERIODIC_B", times, ks, x, vs,
                      meta={"dt": float(times[1] - times[0]), "method": "rk4",
                            "a": pot.a, "B": wc})
