"""Plane-wave band structure from the truncated coupled-component eigenproblem.

For crystal momentum k in the reduced zone and an optional gauge shift s
(the wavevector offset eA/ħ produced by a vector potential), the Hamiltonian
in the plane-wave basis exp(i(k + 2πl/a + s)x), l = -n..n, is

    H[l, l]   = (k + 2πl/a + s)² / 2 + V_0
    H[l, l']  = V_{l-l'}                       (l != l')

in internal units (ħ = m = e = 1). Eigenvalues are the band energies
ħω_{k,b}; eigenvector components a_l are the plane-wave weights of the
Bloch function.

The truncation n and the Toeplitz block V_{l-l'} belong to this module. Each
band pass forms its block once, with _coupling_block, before its first k, so
a truncation that would drop harmonics is refused by every pass, even one
over no k; κ is formed per matrix stack, in _hamiltonians alone.
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
    # k just above -π/a can round to m = -1 and then up past +π/a: fold it back
    out = np.where(out > np.pi / a, out - TWO_PI / a, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BandSolution:
    """Eigendecomposition at one (k, A_shift): ascending energies, phase-fixed vectors.

    plane_wavevectors holds the κ_l = k + 2πl/a + A_shift, l = -n..n, of the
    pass that solved it.
    """

    k: float
    A_shift: float
    energies: np.ndarray
    vectors: np.ndarray
    plane_wavevectors: np.ndarray


def _coupling_block(pot: FourierPotential, n: int) -> np.ndarray:
    """The (2n+1)² Toeplitz block B[i, j] = V_{l_i - l_j}, l_i = i - n, of truncation n.

    It is float64 on a real lattice and complex128 otherwise, with V_0 kept
    real: one gather from the 4n+1 diagonals. Every band pass forms it before
    its first k, so a truncation below 1 or below the cutoff, which would drop
    harmonics, is refused with ConfigError even by a pass over no k. The block
    is allocated before its index arrays, so one that no memory can hold raises
    MemoryError before anything of its size is written.
    """
    if n < 1:
        raise ConfigError(f"truncation half-width must be >= 1, got {n}")
    if n < pot.cutoff:
        raise ConfigError(
            f"truncation n={n} smaller than potential cutoff L={pot.cutoff}; "
            "harmonics would be silently dropped"
        )
    dtype = np.float64 if pot.is_real else np.complex128
    block = np.empty((2 * n + 1, 2 * n + 1), dtype=dtype)
    coeffs = np.zeros(4 * n + 1, dtype=dtype)     # coeffs[l + 2n] = V_l
    for l, v in pot.items():
        coeffs[l + 2 * n] = v.real if l == 0 or dtype is np.float64 else v
    ls = np.arange(-n, n + 1)
    return np.take(coeffs, np.subtract.outer(ls, ls) + 2 * n, out=block)


def _hamiltonians(ks: np.ndarray, A_shift, coupling: np.ndarray, a: float):
    """Stacked (len(ks), 2n+1, 2n+1) Hermitian matrices, one per reduced k, and their κ.

    coupling is the pass's _coupling_block on lattice constant a. A_shift is
    one gauge shift for every matrix, or one per entry of ks. Each matrix is a
    copy of coupling plus its kinetic diagonal κ²/2, where κ_l = k + 2πl/a +
    A_shift runs along the last axis of the returned κ.
    """
    k_max = float(np.abs(ks).max(initial=0.0))
    if not k_max <= np.pi / a * (1.0 + 1e-12):
        raise ConfigError(f"|k|={k_max!r} outside the reduced zone [-π/a, π/a] for a={a!r}")
    size = coupling.shape[0]
    ls = np.arange(-(size // 2), size // 2 + 1)
    kappa = ks[:, None] + TWO_PI * ls / a + np.asarray(A_shift)[..., None]
    with np.errstate(over="ignore"):
        kinetic = kappa ** 2 / 2.0
    if not np.isfinite(kinetic).all():
        raise ConfigError(f"a={a!r} with gauge shift |A| up to "
                          f"{float(np.max(np.abs(A_shift)))!r} gives a non-finite "
                          "plane-wave energy (k + 2πl/a + A)²/2")
    H = np.repeat(coupling[None], ks.size, axis=0)
    # every diagonal H[k, i, i] as one strided view
    H.reshape(ks.size, size * size)[:, ::size + 1] += kinetic
    return H, kappa


def _eigensystems(ks, shifts, coupling: np.ndarray, a: float):
    """Eigensystems of H(k + A) over the broadcast pairs of ks and shifts.

    coupling is the pass's _coupling_block, which the caller forms once per
    pass. Yields (slice, energies, vectors, κ) per _K_BLOCK pairs from one
    stacked eigh call, with no phase fix. This is the package's one plane-wave
    eigensolve: solve_at and every stacked pass take their eigensystems from it.
    """
    ks, shifts = np.broadcast_arrays(ks, shifts)
    for lo in range(0, ks.size, _K_BLOCK):
        cut = slice(lo, min(lo + _K_BLOCK, ks.size))
        H, kappa = _hamiltonians(ks[cut], shifts[cut], coupling, a)
        yield (cut, *np.linalg.eigh(H), kappa)


def build(k: float, A_shift: float, pot: FourierPotential, n: int) -> np.ndarray:
    """The (2n+1)x(2n+1) Hermitian matrix at reduced k with gauge shift."""
    return _hamiltonians(np.array([k], dtype=np.float64), A_shift, _coupling_block(pot, n),
                         pot.a)[0][0]


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
    """The eigensystem at one (k, A_shift): a one-pair _eigensystems pass, phase-fixed."""
    (_, energies, vectors, kappa), = _eigensystems([float(k)], A_shift,
                                                   _coupling_block(pot, n), pot.a)
    return BandSolution(k=float(k), A_shift=float(A_shift), energies=energies[0],
                        vectors=_phase_fix(vectors[0]), plane_wavevectors=kappa[0])


def _check_band(band: int, n: int) -> None:
    if not 0 <= band <= 2 * n:
        raise ConfigError(f"band {band!r} out of range 0..{2 * n} for truncation n={n}")


def bloch_psi(sol: BandSolution, band: int, x):
    """ψ(x) = Σ_l a_l exp(i(k + 2πl/a + A_shift)x) for the given band."""
    _check_band(band, sol.energies.size // 2)
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
    while keeping one fixed plane-wave basis, so no zone rewrap or index roll
    is needed across the stencil. The three shifts are one _eigensystems pass.
    """
    _check_band(band, n)
    (_, energies, vectors, _), = _eigensystems(k, (0.0, -delta, delta),
                                               _coupling_block(pot, n), pot.a)
    e_minus, e_plus = (energies[i, _match_band(vectors[0], vectors[i], band)] for i in (1, 2))
    return e_minus, energies[0, band], e_plus


def group_velocity(k: float, band: int, pot: FourierPotential, n: int) -> float:
    """dω/dk by central difference with step 1e-5·(2π/a), band tracked by overlap."""
    delta = _DELTA_K_VELOCITY * TWO_PI / pot.a
    e_minus, _, e_plus = _stencil_energies(k, band, pot, n, delta)
    return float((e_plus - e_minus) / (2.0 * delta))


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

    Each is a (len(ks), n_bands) array from one eigendecomposition per k,
    taken from the stacked _eigensystems pass. With κ the plane-wave momentum,
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
    for cut, energies, vecs, kappa in _eigensystems(ks, 0.0, _coupling_block(pot, n), pot.a):
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
                f"band {b} at k={float(ks[cut][i])!r} lies {abs(gaps[i, j, b]):.3e} from "
                f"coupled band {j} (below {_GAP_MIN}); curvature undefined")
        terms = np.divide(weight, gaps, out=np.zeros_like(gaps), where=~close)
        out[:, cut] = (energies[:, :n_bands], coupling[:, own, own].real,
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
    if n_bands < 1:
        raise ConfigError(f"n_bands must be >= 1, got {n_bands!r}")
    edge = np.pi / pot.a
    ks = np.linspace(-edge, edge, k_points)
    energies, velocity, inv_mass = band_derivatives(ks, pot, n, n_bands)
    m_star = np.divide(1.0, inv_mass, out=np.full_like(inv_mass, np.inf),
                       where=np.abs(inv_mass) >= _CURVATURE_MIN)
    return [(float(k), b, energies[i, b] * energy_eV, velocity[i, b] * velocity_SI,
             m_star[i, b])
            for i, k in enumerate(ks) for b in range(n_bands)]
