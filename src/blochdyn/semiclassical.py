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

from .central_equation import (_mass_from_curvature, band_derivatives,
                               hellmann_feynman_velocity, reduce_to_zone, solve_at)
from .errors import ConfigError, EnergyDriftError
from .potential import FourierPotential

TWO_PI = 2.0 * np.pi
# step count past which _time_grid refuses a (T, dt) pair as bad input
_MAX_STEPS = 2 ** 31


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
    """(times, nsteps, h) of every fixed-step integrator: round(T/dt) steps of T/nsteps."""
    if not (dt > 0.0 and T >= dt):
        raise ConfigError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    ratio = T / dt
    if not ratio <= _MAX_STEPS:
        raise ConfigError(f"T/dt = {ratio!r} steps exceeds the bound {_MAX_STEPS}")
    nsteps = max(1, int(round(ratio)))
    dt_eff = T / nsteps
    return np.arange(nsteps + 1) * dt_eff, nsteps, dt_eff


def _sample_rule(nsteps: int, stride: int, name: str):
    """Whether a sampling integrator records after step j: every stride-th and the last."""
    if stride < 1:
        raise ConfigError(f"{name} must be >= 1, got {stride!r}")
    return lambda j: j % stride == 0 or j == nsteps


def _trapezoid_integral(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y along axis 0 over the grid t, starting at 0."""
    d = np.diff(t).reshape((-1,) + (1,) * (y.ndim - 1))
    steps = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros_like(steps[:1]), steps])


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

    x(t) integrates v_g = k(t) in closed form, and so does the accumulated
    dispersion phase ∫ω(k(τ))dτ with ω = k²/2, attached for comparison
    against quantum propagation.
    """
    times, _, _ = _time_grid(T, dt)
    k = k0 - E * times
    x = x0 + k0 * times - 0.5 * E * times ** 2
    phase = k0 ** 2 * times / 2.0 - k0 * E * times ** 2 / 2.0 + E ** 2 * times ** 3 / 6.0
    return Trajectory("FREE_E", times, k, x, k.copy(), meta={"E": float(E)}, phase=phase)


def evolve_general_V(k0: float, x0: float, V, T: float, dt: float,
                     dV: Callable[[float], float] | None = None,
                     energy_tol: float | None = 1e-6) -> Trajectory:
    """Classical limit in a linearizable potential: dv/dt = +V'(x), dx/dt = v.

    V is an electrical potential (the potential energy is -V), given either
    as a FourierPotential or as a callable together with its derivative dV;
    a callable without dV raises ConfigError. Conservation of v²/2 - V(x) is
    checked to energy_tol relative over the run unless energy_tol is None.
    """
    if isinstance(V, FourierPotential):
        Vx, dVx = V.evaluate, V.derivative
    elif dV is None:
        raise ConfigError("a callable V needs its derivative dV")
    else:
        Vx, dVx = V, dV

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
    return Trajectory("GENERAL_V", times, v.copy(), x, v)


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
        raise ConfigError(f"{name} must have 1 or 2 components, got {vec!r}")
    return v


def _evolve_planar(tag: str, accel, v0, v_name: str, x0, E, B: float, T: float,
                   dt: float) -> Trajectory:
    """RK4 on (x, y, vx, vy) with accel(x, y, vx, vy, ω_c, E) giving (ax, ay)."""
    v0 = _planar(v0, v_name)
    x0 = _planar(x0, "x0")
    Ev = _planar(E, "E")
    wc = float(B)

    def rhs(y):
        x, yy, vx, vy = y
        return np.array([vx, vy, *accel(x, yy, vx, vy, wc, Ev)])

    times, ys = _rk4(rhs, np.concatenate([x0, v0]), T, dt)
    v = ys[:, 2:4]
    return Trajectory(tag, times, v.copy(), ys[:, 0:2], v, meta={"B": wc, "E": Ev.copy()})


def evolve_fundamental(k0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Gauge-derived planar motion: dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E.

    The position enters the equation itself, so the coordinate origin is
    physical: circular orbits require it at the orbit center. k(t) and
    v_g(t) coincide in internal units.
    """
    if B == 0.0:
        raise ConfigError("B must be nonzero; use evolve_free_E for the field-free case")

    def accel(x, y, vx, vy, wc, E):
        return (-0.5 * wc * vy - 0.5 * wc * wc * x - E[0],
                +0.5 * wc * vx - 0.5 * wc * wc * y - E[1])

    return _evolve_planar("FUNDAMENTAL", accel, k0, "k0", x0, E, B, T, dt)


def evolve_lorentz(v0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Classical Lorentz force: dv/dt = -v×B - E (planar, B along ẑ)."""

    def accel(x, y, vx, vy, wc, E):
        return -wc * vy - E[0], +wc * vx - E[1]

    return _evolve_planar("LORENTZ", accel, v0, "v0", x0, E, B, T, dt)


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
                      E: float, T: float, dt: float,
                      with_mass: bool = False) -> Trajectory:
    """Band transport under a uniform field: k(t) = reduce(k0 - E t).

    v_g is sampled from the band dispersion along the path and x(t) is its
    trapezoid integral from the origin. With with_mass=True, meta["m_star"]
    carries the effective mass along the path. Both come from one
    band_derivatives call over the whole path.
    """
    times, _, _ = _time_grid(T, dt)
    k_unred = k0 - E * times
    _, v, inv_mass = band_derivatives(reduce_to_zone(k_unred, pot.a), pot, n, band + 1)
    v = v[:, band]
    x = _trapezoid_integral(v, times)
    meta = {"a": pot.a, "E": float(E)}
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
    x = _trapezoid_integral(vs, times)
    return Trajectory("PERIODIC_B", times, ks, x, vs, meta={"a": pot.a, "B": wc})
