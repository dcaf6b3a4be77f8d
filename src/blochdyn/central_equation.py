"""Plane-wave band structure from the truncated coupled-component eigenproblem.

For crystal momentum k in the reduced zone and an optional gauge shift s
(the wavevector offset eA/ħ produced by a vector potential), the Hamiltonian
in the plane-wave basis exp(i(k + 2πl/a + s)x), l = -n..n, is

    H[l, l]   = (k + 2πl/a + s)² / 2 + V_0
    H[l, l']  = V_{l-l'}                       (l != l')

in internal units (ħ = m = e = 1). Eigenvalues are the band energies
ħω_{k,b}; eigenvector components a_l are the plane-wave weights of the
Bloch function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePointError, InfiniteMassError
from .potential import FourierPotential

TWO_PI = 2.0 * np.pi

# finite-difference steps, in units of the zone width 2π/a
_DELTA_K_VELOCITY = 1e-5
_DELTA_K_MASS = 1e-4
_OVERLAP_MIN = 0.5
_CURVATURE_MIN = 1e-12
_GAP_MIN = 1e-10
# k-points per stacked eigh call; bounds the memory of a long sweep
_K_BLOCK = 64


def reduce_to_zone(k, a: float = 1.0):
    """Map k into (-π/a, π/a]; ties at ±π/a land on +π/a."""
    k = np.asarray(k, dtype=np.float64)
    m = np.ceil(k * a / TWO_PI - 0.5)
    out = k - TWO_PI * m / a
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BandSolution:
    """Eigendecomposition at one (k, A_shift): ascending energies, phase-fixed vectors."""

    k: float
    A_shift: float
    a: float
    n: int
    energies: np.ndarray
    vectors: np.ndarray

    @property
    def plane_wavevectors(self) -> np.ndarray:
        return _plane_wavevectors(self.k, self.A_shift, self.a, self.n)


def _plane_wavevectors(k, A_shift, a: float, n: int) -> np.ndarray:
    """κ_l = k + 2πl/a + A_shift for l = -n..n, along a new last axis of k.

    A_shift is a scalar or an array that broadcasts against k.
    """
    ls = np.arange(-n, n + 1)
    return np.asarray(k)[..., None] + TWO_PI * ls / a + np.asarray(A_shift)[..., None]


def _hamiltonians(ks: np.ndarray, A_shift, pot: FourierPotential,
                  n: int) -> np.ndarray:
    """Stacked (len(ks), 2n+1, 2n+1) Hermitian matrices, one per reduced k.

    A_shift is one gauge shift for every matrix, or one per entry of ks.
    """
    k_max = float(np.abs(ks).max(initial=0.0))
    if k_max > np.pi / pot.a * (1.0 + 1e-12):
        raise ConfigError(f"|k|={k_max!r} outside the reduced zone [-π/a, π/a] for a={pot.a!r}")
    if n < 1:
        raise ConfigError(f"truncation half-width must be >= 1, got {n}")
    if n < pot.cutoff:
        raise ConfigError(
            f"truncation n={n} smaller than potential cutoff L={pot.cutoff}; "
            "harmonics would be silently dropped"
        )
    size = 2 * n + 1
    dtype = np.float64 if pot.is_real else np.complex128
    # Toeplitz potential part H[i, j] = V_{l_i - l_j}, row index i carries l_i = i - n
    coeffs = np.zeros(2 * size - 1, dtype=dtype)
    for l, v in pot.items():
        coeffs[l + 2 * n] = v.real if l == 0 or dtype is np.float64 else v
    ls = np.arange(-n, n + 1)
    H = np.repeat(coeffs[np.subtract.outer(ls, ls) + 2 * n][None], ks.size, axis=0)
    # every diagonal H[k, i, i] as one strided view
    H.reshape(ks.size, size * size)[:, ::size + 1] += (
        _plane_wavevectors(ks, A_shift, pot.a, n) ** 2 / 2.0)
    return H


def build(k: float, A_shift: float, pot: FourierPotential, n: int) -> np.ndarray:
    """The (2n+1)x(2n+1) Hermitian matrix at reduced k with gauge shift."""
    return _hamiltonians(np.array([k], dtype=np.float64), A_shift, pot, n)[0]


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    vectors is one matrix of column eigenvectors or a stack of them.
    """
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    if np.iscomplexobj(vectors):
        phase = lead / np.abs(lead)
        return vectors * phase.conj()
    return vectors * np.sign(lead)


def solve_at(k: float, A_shift: float, pot: FourierPotential, n: int) -> BandSolution:
    energies, vectors = np.linalg.eigh(build(k, A_shift, pot, n))
    return BandSolution(k=float(k), A_shift=float(A_shift), a=pot.a, n=n,
                        energies=energies, vectors=_phase_fix(vectors))


def bloch_psi(sol: BandSolution, band: int, x):
    """ψ(x) = Σ_l a_l exp(i(k + 2πl/a + A_shift)x) for the given band."""
    if not 0 <= band < sol.energies.size:
        raise IndexError(f"band {band} out of range for truncation n={sol.n}")
    x = np.asarray(x, dtype=np.float64)
    kap = sol.plane_wavevectors
    val = np.exp(1j * np.multiply.outer(x, kap)) @ sol.vectors[:, band].astype(np.complex128)
    return val if val.ndim else complex(val)


def _match_band(center_vectors: np.ndarray, side_vectors: np.ndarray, band: int) -> int:
    """Index of the side eigenvector continuing the center band, by max |overlap|."""
    overlaps = np.abs(side_vectors.conj().T @ center_vectors[:, band])
    j = int(np.argmax(overlaps))
    if overlaps[j] < _OVERLAP_MIN:
        raise DegeneratePointError(
            f"band tracking ambiguous: best eigenvector overlap {overlaps[j]:.3f} < {_OVERLAP_MIN}"
        )
    return j


def _stencil_energies(k, band, pot, n, delta):
    """Band energy at gauge shifts ±delta, overlap-tracked from the center.

    Shifting A instead of k probes the identical matrix (only k + A enters)
    while keeping one fixed plane-wave basis, so no zone rewrap or index
    roll is needed across the stencil.
    """
    center = solve_at(k, 0.0, pot, n)
    if not 0 <= band < center.energies.size:
        raise IndexError(f"band {band} out of range for truncation n={n}")
    out = []
    for s in (-delta, delta):
        side = solve_at(k, s, pot, n)
        out.append(side.energies[_match_band(center.vectors, side.vectors, band)])
    return out[0], center.energies[band], out[1]


def group_velocity(k: float, band: int, pot: FourierPotential, n: int) -> float:
    """dω/dk by central difference with step 1e-5·(2π/a), band tracked by overlap."""
    delta = _DELTA_K_VELOCITY * TWO_PI / pot.a
    e_minus, _, e_plus = _stencil_energies(k, band, pot, n, delta)
    return float((e_plus - e_minus) / (2.0 * delta))


def hellmann_feynman_velocity(sol: BandSolution, band: int) -> float:
    """Exact band derivative Σ_l |a_l|² (k + 2πl/a + A_shift) at one solved point."""
    w = np.abs(sol.vectors[:, band]) ** 2
    return float(w @ sol.plane_wavevectors)


def _mass_from_curvature(curvature):
    """1/curvature, elementwise; raises InfiniteMassError at an inflection point."""
    flattest = float(np.min(np.abs(curvature), initial=np.inf))
    if flattest < _CURVATURE_MIN:
        raise InfiniteMassError(
            f"band curvature {flattest:.3e} below {_CURVATURE_MIN}; inflection point"
        )
    return 1.0 / curvature


def effective_mass(k: float, band: int, pot: FourierPotential, n: int) -> float:
    """ħ²/(d²ε/dk²) by second central difference with step 1e-4·(2π/a).

    Negative near band tops; raises InfiniteMassError at inflection points.
    """
    delta = _DELTA_K_MASS * TWO_PI / pot.a
    e_minus, e_center, e_plus = _stencil_energies(k, band, pot, n, delta)
    curvature = (e_plus - 2.0 * e_center + e_minus) / delta ** 2
    return _mass_from_curvature(float(curvature))


def band_derivatives(ks, pot: FourierPotential, n: int, n_bands: int):
    """Energies, velocities and inverse masses m/m* of bands 0..n_bands-1 at reduced ks.

    Each is a (len(ks), n_bands) array from one eigendecomposition per k, with
    the k-points stacked _K_BLOCK at a time. With κ the plane-wave momentum,
    the velocity is the Hellmann–Feynman ⟨b|κ|b⟩ and the inverse mass the k·p
    sum rule 1 + 2 Σ_{j≠b} |⟨j|κ|b⟩|²/(E_b − E_j): exact derivatives of the
    truncated bands. A band within _GAP_MIN of a band κ couples it to has no
    curvature and raises DegeneratePointError; uncoupled crossings (the empty
    lattice's) add nothing.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=np.float64))
    if not 0 <= n_bands <= 2 * n + 1:
        raise ConfigError(f"n_bands={n_bands} out of range for truncation n={n}")
    out = np.empty((3, ks.size, n_bands))
    own = np.arange(n_bands)
    for lo in range(0, ks.size, _K_BLOCK):
        block = ks[lo:lo + _K_BLOCK]
        energies, vecs = np.linalg.eigh(_hamiltonians(block, 0.0, pot, n))
        kappa = _plane_wavevectors(block, 0.0, pot.a, n)
        # coupling[:, j, b] = ⟨j|κ|b⟩
        coupling = vecs.conj().transpose(0, 2, 1) @ (kappa[:, :, None] * vecs[:, :, :n_bands])
        weight = np.abs(coupling) ** 2
        weight[:, own, own] = 0.0  # j = b is the velocity, not a coupling
        gaps = energies[:, None, :n_bands] - energies[:, :, None]
        close = np.abs(gaps) <= _GAP_MIN
        coupled_close = np.argwhere(close & (weight > 0.0))
        if coupled_close.size:
            i, j, b = coupled_close[0]
            raise DegeneratePointError(
                f"band {b} at k={float(block[i])!r} lies {abs(gaps[i, j, b]):.3e} from "
                f"coupled band {j} (below {_GAP_MIN}); curvature undefined")
        terms = np.divide(weight, gaps, out=np.zeros_like(gaps), where=~close)
        out[:, lo:lo + _K_BLOCK] = (energies[:, :n_bands], coupling[:, own, own].real,
                                    1.0 + 2.0 * terms.sum(axis=1))
    return tuple(out)


def band_sweep(pot: FourierPotential, n: int, k_points: int, n_bands: int,
               energy_eV: float, velocity_SI: float):
    """Rows (k, band, energy_eV, v_g_SI, m_star_ratio) over a uniform zone grid.

    energy_eV and velocity_SI are the SI values of one internal unit; the
    mass ratio m*/m_e is dimensionless and inf where the curvature vanishes.
    Rows are ordered by (k, band).
    """
    if k_points < 1:
        raise ConfigError(f"k_points must be >= 1, got {k_points!r}")
    edge = np.pi / pot.a
    ks = np.linspace(-edge, edge, k_points)
    energies, velocity, inv_mass = band_derivatives(ks, pot, n, n_bands)
    m_star = np.divide(1.0, inv_mass, out=np.full_like(inv_mass, np.inf),
                       where=np.abs(inv_mass) >= _CURVATURE_MIN)
    return [(float(k), b, energies[i, b] * energy_eV, velocity[i, b] * velocity_SI,
             m_star[i, b])
            for i, k in enumerate(ks) for b in range(n_bands)]
