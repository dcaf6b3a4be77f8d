"""Periodic crystal potential represented by its Fourier coefficients.

V(x) = Σ_l V_l exp(i 2πl x / a) with the Hermiticity constraint
V_{-l} = conj(V_l), which makes V real on the whole axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_IMAG_TOL = 1e-12


class FourierPotential:
    """Immutable periodic potential on lattice constant ``a``.

    Coefficients are given as a mapping {l: V_l} with integer l. Every
    stored l must come with its partner -l satisfying V_{-l} = conj(V_l);
    construction rejects anything else. V_0, if present, must be real.
    ``cutoff`` is the largest stored |l| (0 for the empty potential), and
    ``is_real`` is True when all coefficients are real, i.e. V(-x) = V(x).
    It holds the coefficients and nothing derived from a plane-wave
    truncation: the band solver forms its coupling block per pass.
    """

    __slots__ = ("a", "cutoff", "is_real", "_coeffs", "_ls", "_vs")

    def __init__(self, a: float, coeffs: dict[int, complex]):
        if not a > 0.0:
            raise ConfigError(f"lattice constant must be positive, got {a!r}")
        if not 0.0 < 2.0 * np.pi / float(a) < np.inf:
            raise ConfigError(f"lattice constant {a!r} puts 2π/a outside float range")
        clean: dict[int, complex] = {}
        for l, v in coeffs.items():
            if l != int(l):
                raise ConfigError(f"coefficient index must be an integer, got {l!r}")
            clean[int(l)] = complex(v)
        for l, v in clean.items():
            if l == 0:
                if abs(v.imag) > _IMAG_TOL:
                    raise ConfigError(f"V_0 must be real, got {v!r}")
                continue
            if -l not in clean:
                raise ConfigError(f"coefficient for l={-l} missing (Hermitian partner of l={l})")
            if abs(clean[-l] - v.conjugate()) > _IMAG_TOL * max(1.0, abs(v)):
                raise ConfigError(
                    f"Hermiticity violated: V_{-l}={clean[-l]!r} != conj(V_{l})={v.conjugate()!r}"
                )
        self.a = float(a)
        self._coeffs = clean
        self._ls = np.array(sorted(clean), dtype=np.int64)
        self._vs = np.array([clean[l] for l in self._ls], dtype=np.complex128)
        # read by every band pass, so computed once here
        self.cutoff = int(np.max(np.abs(self._ls))) if self._ls.size else 0
        self.is_real = bool(np.all(np.abs(self._vs.imag) <= _IMAG_TOL))

    def coefficient(self, l: int) -> complex:
        return self._coeffs.get(int(l), 0.0 + 0.0j)

    def items(self):
        return self._coeffs.items()

    def evaluate(self, x):
        """Real potential value at x (scalar or array)."""
        return self._series(x, self._vs, max(1.0, float(np.sum(np.abs(self._vs)))))

    def derivative(self, x):
        """dV/dx at x, real by the same Hermiticity."""
        dcoef = 2j * np.pi * self._ls / self.a * self._vs
        return self._series(x, dcoef, max(1.0, float(np.sum(np.abs(dcoef)))))

    def _series(self, x, coeffs: np.ndarray, scale: float):
        """Σ_l coeffs_l exp(i 2πl x/a); its imaginary part must lie below _IMAG_TOL·scale."""
        x = np.asarray(x, dtype=np.float64)
        if self._ls.size == 0:
            out = np.zeros_like(x)
            return out if out.ndim else float(out)
        phases = np.exp(2j * np.pi * np.multiply.outer(x, self._ls) / self.a)
        val = phases @ coeffs
        assert np.max(np.abs(np.atleast_1d(val.imag))) < _IMAG_TOL * scale
        return val.real if val.ndim else float(val.real)

    def __repr__(self) -> str:
        return f"FourierPotential(a={self.a!r}, coeffs={self._coeffs!r})"


def single_cosine(a: float, amplitude: float) -> FourierPotential:
    """Canonical test potential: coeffs {+1: amplitude, -1: amplitude}.

    evaluate(x) = 2·amplitude·cos(2πx/a), so the zone-edge gap of the
    nearly-free band structure is 2·|amplitude|.
    """
    if amplitude == 0.0:
        return FourierPotential(a, {})
    return FourierPotential(a, {1: amplitude, -1: amplitude})


def random_symmetric(a: float, rng) -> FourierPotential:
    """Random real (mirror-symmetric) potential on harmonics l = 1..3.

    Each V_l = V_{-l} has magnitude uniform in [0.3, 1.5] and a random sign.
    rng is any generator with uniform(low, high) and random(), such as
    random.Random or numpy.random.Generator; each l draws uniform, then random.
    """
    coeffs: dict[int, complex] = {}
    for l in range(1, 4):
        v = rng.uniform(0.3, 1.5) * (1.0 if rng.random() < 0.5 else -1.0)
        coeffs[l] = v
        coeffs[-l] = v
    return FourierPotential(a, coeffs)
