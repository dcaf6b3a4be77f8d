"""Wavepacket equations of motion: closed forms where they exist, else RK4.

The two planar equations are linear with constant coefficients, so their RK4
step is one precomputed affine map; evolve_general_V runs RK4 stage by stage.

Internal units throughout (ħ = m = e = 1): a uniform electric field E enters
accelerations as -E, a magnetic field B ẑ gives the cyclotron frequency
ω_c = B, and for free electrons k and v_g are numerically identical.

Equation tags
-------------
FREE_E       closed form k(t) = k0 - E t, x by elementary integration
GENERAL_V    dv/dt = +V'(x) for an electrical potential V (force = eV')
FUNDAMENTAL  dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E, with x = x0 + ∫v
             (RK4 as one precomputed step matrix)
LORENTZ      dv/dt = -v×B - E (RK4 as one precomputed step matrix)
PERIODIC_E   k(t) = reduce(k0 - E t), v_g from the band dispersion
PERIODIC_B   closed form: k(t) rotates at ω = B ε'(|k|)/|k| (isotropic band)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .central_equation import _check_band, _mass_from_curvature, band_derivatives, reduce_to_zone
from .errors import ConfigError, EnergyDriftError
from .potential import FourierPotential

# step count past which _time_grid refuses a (T, dt) pair as bad input
_MAX_STEPS = 2 ** 31
# planar RK4 steps taken per numpy product
_STEP_CHUNK = 256


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
    """Whether step j, an index or an index array, is sampled: every stride-th and the last."""
    if stride < 1:
        raise ConfigError(f"{name} must be >= 1, got {stride!r}")
    return lambda j: (j % stride == 0) | (j == nsteps)


def _trapezoid_integral(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y along axis 0 over the grid t, starting at 0."""
    d = np.diff(t).reshape((-1,) + (1,) * (y.ndim - 1))
    steps = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros_like(steps[:1]), steps])


def _rk4(f: Callable[[list], tuple], y0, T: float, dt: float):
    """Classic RK4 on a state held as a list of Python floats; f returns a sequence.

    Plain floats round as numpy float64 does, and the operation order is that
    of the array form, so ys is bit-identical to it, without the per-step
    array overhead.
    """
    times, nsteps, h = _time_grid(T, dt)
    half, sixth = 0.5 * h, h / 6.0
    y = [float(v) for v in y0]
    rows = [y]
    for _ in range(nsteps):
        k1 = f(y)
        k2 = f([yi + half * ki for yi, ki in zip(y, k1)])
        k3 = f([yi + half * ki for yi, ki in zip(y, k2)])
        k4 = f([yi + h * ki for yi, ki in zip(y, k3)])
        y = [yi + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        rows.append(y)
    return times, np.array(rows)


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
        return y[1], float(dVx(y[0]))

    times, ys = _rk4(rhs, (x0, k0), T, dt)
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


def _evolve_planar(tag: str, system, v0, v_name: str, x0, E, B: float, T: float,
                   dt: float) -> Trajectory:
    """RK4 on y = (x, y, vx, vy) for ẏ = M y + f, with (M, f) = system(ω_c, E).

    M and f are constant, so one RK4 step is exactly the affine map y -> R y + r,
    R = I + hM(I + hM/2(I + hM/3(I + hM/4))), r = h(I + hM/2(I + hM/3(I + hM/4)))f,
    and _STEP_CHUNK steps at a time come from one product with the stacked
    powers R^j and partial sums Σ_{i<j} R^i r, j <= _STEP_CHUNK.
    """
    v0 = _planar(v0, v_name)
    x0 = _planar(x0, "x0")
    Ev = _planar(E, "E")
    wc = float(B)
    times, nsteps, h = _time_grid(T, dt)
    M, f = system(wc, Ev)
    eye = np.eye(4)
    hM = h * M
    series = eye + hM / 2.0 @ (eye + hM / 3.0 @ (eye + hM / 4.0))
    step, offset = eye + hM @ series, h * series @ f
    # powers[j] = R^j and sums[j] = Σ_{i<j} R^i r, filled by doubling
    powers, sums = eye[None], np.zeros((1, 4))
    while powers.shape[0] <= _STEP_CHUNK:
        top, top_sum = step @ powers[-1], step @ sums[-1] + offset
        powers = np.concatenate([powers, top @ powers])
        sums = np.concatenate([sums, sums @ top.T + top_sum])
    ys = np.empty((nsteps + 1, 4))
    ys[0] = np.concatenate([x0, v0])
    for lo in range(0, nsteps, _STEP_CHUNK):
        m = min(_STEP_CHUNK, nsteps - lo)
        ys[lo + 1:lo + m + 1] = powers[1:m + 1] @ ys[lo] + sums[1:m + 1]
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
    return _evolve_planar("FUNDAMENTAL", _fundamental_system, k0, "k0", x0, E, B, T, dt)


def _fundamental_system(wc, E):
    return (np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [-0.5 * wc * wc, 0.0, 0.0, -0.5 * wc],
                      [0.0, -0.5 * wc * wc, 0.5 * wc, 0.0]]),
            np.array([0.0, 0.0, -E[0], -E[1]]))


def evolve_lorentz(v0, x0, E, B: float, T: float, dt: float) -> Trajectory:
    """Classical Lorentz force: dv/dt = -v×B - E (planar, B along ẑ)."""
    return _evolve_planar("LORENTZ", _lorentz_system, v0, "v0", x0, E, B, T, dt)


def _lorentz_system(wc, E):
    return (np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, -wc], [0.0, 0.0, wc, 0.0]]),
            np.array([0.0, 0.0, -E[0], -E[1]]))


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
    _check_band(band, n)
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
    """Planar band dynamics in a magnetic field: k̇ = -v_g(k)×B, in closed form.

    The 1D band is extended isotropically, ε(k) = ε_band(reduce(|k|)), so v_g
    = ε'(ρ) k/ρ is parallel to k, ρ = |k| is conserved, and k0 rotates rigidly
    counter-clockwise at ω = B ε'(ρ)/ρ: near a band extremum the period is 2π m*/B,
    not the free 2π/B. One band_derivatives call gives ε'(ρ); x(t) integrates
    v_g from the origin. Below ρ = 1e-12, k stays put and v_g = 0.
    """
    k0 = _planar(k0, "k0")
    _check_band(band, n)
    times, _, _ = _time_grid(T, dt)
    rho = float(np.hypot(k0[0], k0[1]))
    slope = 0.0
    if rho >= 1e-12:
        _, v, _ = band_derivatives(reduce_to_zone(rho, pot.a), pot, n, band + 1)
        slope = v[0, band] / rho
    c, s = np.cos(B * slope * times), np.sin(B * slope * times)
    k = np.column_stack([c * k0[0] - s * k0[1], s * k0[0] + c * k0[1]])
    v = slope * k
    x = _trapezoid_integral(v, times)
    return Trajectory("PERIODIC_B", times, k, x, v, meta={"a": pot.a, "B": float(B)})
