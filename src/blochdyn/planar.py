"""The two planar equations of motion on Python floats, without numpy.

The state is y = (x, y, vx, vy) in internal units (ħ = m = e = 1), and a
magnetic field B ẑ gives the cyclotron frequency ω_c = B:

FUNDAMENTAL  dv/dt = -(ω_c/2) v×ẑ - (ω_c²/2) x - E, with x = x0 + ∫v
LORENTZ      dv/dt = -v×B - E

Both are linear with constant coefficients, ẏ = My + f. On such a system one
RK4 step is exactly the affine map y -> Ry + r, where R is the degree-4 Taylor
polynomial of e^{hM} (Hairer, Nørsett & Wanner, Solving ODEs I, §II.1). So
planar_rows takes R and r from rk4_step itself: R's columns are one step of
the unforced equation from the unit vectors, and r is one step of the forced
equation from 0. It then steps y -> Ry + r on Python floats, whose bytes
depend on no BLAS kernel, and holds the rows one after another in a flat
float64 array.array, 32 bytes a step as in a numpy array. Every norm is
sqrt(a*a + b*b), numpy's 2-norm formula, so a norm overflows where numpy's
does.

semiclassical wraps these rows into Trajectory arrays without a copy, and
the cyclotron and compare-eom subcommands write them as they are.

step_count is the one step grid of the package: every fixed-step integrator,
here, in semiclassical and in quantum, takes its round(T/dt) steps of
h = T/nsteps from it, and so refuses the same bad (T, dt).
"""

from __future__ import annotations

import math
import numbers
from array import array
from typing import Callable

from .errors import ConfigError

# step count past which step_count refuses a (T, dt) pair as bad input
_MAX_STEPS = 2 ** 31


def step_count(T: float, dt: float) -> tuple[int, float]:
    """(nsteps, h) of every fixed-step integrator: round(T/dt) steps of h = T/nsteps.

    T and dt must pass real: one that is not a real number or lies past float
    range (the int 10**400) is a ConfigError. So are dt <= 0, T < dt and more
    than _MAX_STEPS steps, counted on Python floats, where a ratio past float
    range is inf and not a numpy overflow warning. The step count and h are
    formed in T's and dt's own arithmetic, so a numpy float32 T is counted
    in float32; h is returned as a Python float whatever their type.
    """
    t, step = real(T, "T"), real(dt, "dt")
    if not (dt > 0.0 and T >= dt):
        raise ConfigError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    ratio = t / step
    if not ratio <= _MAX_STEPS:
        raise ConfigError(f"T/dt = {ratio!r} steps exceeds the bound {_MAX_STEPS}")
    nsteps = max(1, int(round(T / dt)))
    return nsteps, float(T / nsteps)


def rk4_step(f: Callable[[list], tuple], y: list, h: float) -> list:
    """One classic RK4 step of ẏ = f(y), on a state held as a list of floats.

    Plain floats round as numpy float64 does, and the operation order is that
    of the array form, so a run of these steps is bit-identical to it.
    """
    half, sixth = 0.5 * h, h / 6.0
    k1 = f(y)
    k2 = f([yi + half * ki for yi, ki in zip(y, k1)])
    k3 = f([yi + half * ki for yi, ki in zip(y, k2)])
    k4 = f([yi + h * ki for yi, ki in zip(y, k3)])
    return [yi + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def real(value, name: str) -> float:
    """value as a Python float. One that is not a real number (a string, an
    array) or that lies past float range (the int 10**400) is a ConfigError;
    inf and nan pass through."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} lies past float range") from None


def vector(vec, name: str) -> list[float]:
    """A planar vector as two Python floats; anything else is a ConfigError."""
    try:
        a, b = vec
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must have 2 components, got {vec!r}") from None
    return [real(a, f"{name}[0]"), real(b, f"{name}[1]")]


def norm(a: float, b: float) -> float:
    """|(a, b)| as numpy's 2-norm forms it, so it overflows where numpy's does."""
    return math.sqrt(a * a + b * b)


def _fundamental(wc: float, E: list[float]):
    half, spring = 0.5 * wc, 0.5 * wc * wc
    ex, ey = E
    return lambda y: (y[2], y[3], -spring * y[0] - half * y[3] - ex,
                      -spring * y[1] + half * y[2] - ey)


def _lorentz(wc: float, E: list[float]):
    ex, ey = E
    return lambda y: (y[2], y[3], -wc * y[3] - ex, wc * y[2] - ey)


# equation tag -> (the right-hand side's maker, the name of its initial velocity)
_EQUATIONS = {"FUNDAMENTAL": (_fundamental, "k0"), "LORENTZ": (_lorentz, "v0")}


def planar_rows(tag: str, v0, x0, E, B: float, T: float, dt: float) -> tuple[array, array]:
    """(times, ys) of one RK4 run of the equation tag, "FUNDAMENTAL" or "LORENTZ".

    ys[4j:4j + 4] = [x, y, vx, vy] at times[j] = j·h, over step_count(T, dt);
    both are array("d"). In internal units k and v_g coincide, so
    FUNDAMENTAL's v0 is its k0. FUNDAMENTAL with B = 0 is a ConfigError (the free case has its closed
    form, evolve_free_E), and so is a step map or trajectory that leaves
    float range.
    """
    make, v_name = _EQUATIONS[tag]
    if tag == "FUNDAMENTAL" and B == 0.0:
        raise ConfigError("B must be nonzero; use evolve_free_E for the field-free case")
    v = vector(v0, v_name)
    y = [*vector(x0, "x0"), *v]
    Ev = vector(E, "E")
    wc = real(B, "B")
    nsteps, h = step_count(T, dt)
    unit = [[float(i == j) for i in range(4)] for j in range(4)]
    # row i of R, then r_i: R's columns are the unforced step from the unit vectors
    step = list(zip(*(rk4_step(make(wc, [0.0, 0.0]), e, h) for e in unit),
                    rk4_step(make(wc, Ev), [0.0] * 4, h)))
    ys = array("d", y)
    for _ in range(nsteps):
        y = [((a * y[0] + b * y[1]) + c * y[2]) + d * y[3] + e for a, b, c, d, e in step]
        ys.extend(y)
    # every product R_ij·y_j is formed, so a value past float range makes every
    # later component inf or nan, and the last row shows it
    if not all(map(math.isfinite, y)):
        raise ConfigError(f"{tag} trajectory leaves float range (B={wc!r}, E={E!r}, "
                          f"T={T!r}, dt={dt!r})")
    return array("d", (j * h for j in range(nsteps + 1))), ys


def compare(k0, x0, E, B: float, T: float, dt: float):
    """(times, fund, lor, dx, dv) of both equations from the matched start v0 = k0.

    fund and lor are the two runs' ys as planar_rows returns them, and dx and
    dv hold |Δx| and |Δv| between them per row; all are array("d"). A
    divergence norm past float range is a ConfigError.
    """
    times, fund = planar_rows("FUNDAMENTAL", k0, x0, E, B, T, dt)
    _, lor = planar_rows("LORENTZ", k0, x0, E, B, T, dt)
    rows = range(0, len(fund), 4)
    dx = array("d", (norm(fund[i] - lor[i], fund[i + 1] - lor[i + 1]) for i in rows))
    dv = array("d", (norm(fund[i + 2] - lor[i + 2], fund[i + 3] - lor[i + 3]) for i in rows))
    if not (all(map(math.isfinite, dx)) and all(map(math.isfinite, dv))):
        raise ConfigError(f"the divergence of the planar equations leaves float range "
                          f"(B={B!r}, E={E!r}, T={T!r})")
    return times, fund, lor, dx, dv
