"""Wavepacket equations of motion: closed forms where they exist, else RK4.

The two planar equations are linear with constant coefficients, so their RK4
step is one precomputed affine map; evolve_general_V runs RK4 stage by stage.
Every planar vector has exactly two components; any other shape is a ConfigError.

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
PERIODIC_B   closed form: k(t) rotates at ω = B ε'(|k|)/|k| (isotropic band),
             and x(t) is the exact integral of that rotation

The two band integrators import the band solver when they run, so the
planar equations load neither central_equation nor potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, EnergyDriftError

if TYPE_CHECKING:
    from .potential import FourierPotential

# step count past which _sample_steps refuses a (T, dt) pair as bad input
_MAX_STEPS = 2 ** 31
# planar RK4 steps taken per numpy product
_STEP_CHUNK = 256


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


def _sample_steps(T: float, dt: float, stride=1, name: str = "stride"):
    """(samples, h) of round(T/dt) steps of h = T/nsteps: samples is the int array of
    the sampled step indices, every stride-th and the last, so a propagator holds
    the times samples·h and never the whole step grid. A stride that is not an
    integer >= 1 (a numpy integer will do, a bool will not) is a ConfigError, as
    are dt <= 0, T < dt and more than _MAX_STEPS steps.
    """
    if not (dt > 0.0 and T >= dt):
        raise ConfigError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    ratio = T / dt
    if not ratio <= _MAX_STEPS:
        raise ConfigError(f"T/dt = {ratio!r} steps exceeds the bound {_MAX_STEPS}")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {stride!r}")
    nsteps = max(1, int(round(ratio)))
    # a stride past nsteps samples as nsteps does, and keeps the array int64
    return np.append(np.arange(0, nsteps, min(int(stride), nsteps)), nsteps), T / nsteps


def _time_grid(T: float, dt: float):
    """(times, nsteps, h) of every fixed-step integrator: round(T/dt) steps of T/nsteps."""
    samples, h = _sample_steps(T, dt)
    return samples * h, int(samples[-1]), h


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


def _planar(vec, name):
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (2,):
        raise ConfigError(f"{name} must have 2 components, got {vec!r}")
    return v


def _evolve_planar(tag: str, system, v0, v_name: str, x0, E, B: float, T: float,
                   dt: float) -> Trajectory:
    """RK4 on y = (x, y, vx, vy) for ẏ = M y + f, with (M, f) = system(ω_c, E).

    M and f are constant, so one RK4 step is exactly the affine map y -> R y + r,
    R = I + hM(I + hM/2(I + hM/3(I + hM/4))), r = h(I + hM/2(I + hM/3(I + hM/4)))f,
    and _STEP_CHUNK steps at a time come from one product with the stacked
    powers R^j and partial sums Σ_{i<j} R^i r, j <= _STEP_CHUNK. A step map or
    trajectory that overflows float range is refused with ConfigError.
    """
    v0 = _planar(v0, v_name)
    x0 = _planar(x0, "x0")
    Ev = _planar(E, "E")
    wc = float(B)
    times, nsteps, h = _time_grid(T, dt)
    M, f = system(wc, Ev)
    eye = np.eye(4)
    hM = h * M
    ys = np.empty((nsteps + 1, 4))
    ys[0] = np.concatenate([x0, v0])
    with np.errstate(all="ignore"):
        series = eye + hM / 2.0 @ (eye + hM / 3.0 @ (eye + hM / 4.0))
        step, offset = eye + hM @ series, h * series @ f
        # powers[j] = R^j and sums[j] = Σ_{i<j} R^i r, filled by doubling
        powers, sums = eye[None], np.zeros((1, 4))
        while powers.shape[0] <= _STEP_CHUNK:
            top, top_sum = step @ powers[-1], step @ sums[-1] + offset
            powers = np.concatenate([powers, top @ powers])
            sums = np.concatenate([sums, sums @ top.T + top_sum])
        for lo in range(0, nsteps, _STEP_CHUNK):
            m = min(_STEP_CHUNK, nsteps - lo)
            ys[lo + 1:lo + m + 1] = powers[1:m + 1] @ ys[lo] + sums[1:m + 1]
    if not np.isfinite(ys).all():
        raise ConfigError(f"{tag} trajectory leaves float range (B={wc!r}, E={E!r}, "
                          f"T={T!r}, dt={dt!r})")
    v = ys[:, 2:4]
    return Trajectory(tag, times, v.copy(), ys[:, 0:2], v)


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
    fund = evolve_fundamental(k0, x0, E, B, T, dt)
    lor = evolve_lorentz(k0, x0, E, B, T, dt)
    with np.errstate(all="ignore"):
        dx = np.linalg.norm(fund.x - lor.x, axis=1)
        dv = np.linalg.norm(fund.v_g - lor.v_g, axis=1)
    if not (np.isfinite(dx).all() and np.isfinite(dv).all()):
        raise ConfigError(f"the divergence of the planar equations leaves float range "
                          f"(B={B!r}, E={E!r}, T={T!r})")
    return DivergenceReport(fund, lor, dx, dv)


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
    though no band pass runs.
    """
    from .central_equation import _check_band, _coupling_block, band_derivatives, reduce_to_zone

    k0 = _planar(k0, "k0")
    _check_band(band, n)
    _coupling_block(pot, n)
    times, _, _ = _time_grid(T, dt)
    rho = float(np.hypot(k0[0], k0[1]))
    slope = 0.0
    if rho >= 1e-12:
        _, v, _ = band_derivatives(reduce_to_zone(rho, pot.a), pot, n, band + 1)
        slope = v[0, band] / rho
    wt = B * slope * times
    c, s = np.cos(wt), np.sin(wt)
    k = np.column_stack([c * k0[0] - s * k0[1], s * k0[0] + c * k0[1]])
    along = times * np.sinc(wt / np.pi)
    across = 0.5 * wt * times * np.sinc(0.5 * wt / np.pi) ** 2
    x = slope * (np.outer(along, k0) + np.outer(across, [-k0[1], k0[0]]))
    return Trajectory("PERIODIC_B", times, k, x, slope * k)
