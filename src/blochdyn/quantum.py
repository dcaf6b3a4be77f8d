"""Quantum oracles: plane-wave-basis propagation with adiabatic diagnostics,
a split-step real-space propagator, and direct grid diagonalization.

These provide independent checks of the semiclassical picture. The basis
integrator advances X with the exact exponential of the midpoint Hamiltonian
(exactly unitary per step); the split-step propagator is Strang-ordered and
second order in dt; the grid oracle diagonalizes the real-space Hamiltonian
with a spectral kinetic matrix and labels states by the eigenvalue of the
lattice translation operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .central_equation import _GAP_MIN, TWO_PI, solve_at
from .errors import BoundaryProximityError, DegeneratePointError
from .potential import FourierPotential


# --------------------------------------------------------------------------
# plane-wave basis states and adiabatic machinery


@dataclass
class BasisState:
    """Coefficient vector X over plane-wave index l at base crystal momentum k."""

    k: float
    coeffs: np.ndarray
    t: float
    n: int
    a: float

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass
class AdiabaticReport:
    """Sampled diagnostics of the instantaneous eigenframe.

    gap, hdot_norm, omega_bar_star, bound_rhs and comm_norm are in internal
    units (ħ = 1, so rates and energies share one scale); fidelity is the
    squared overlap with the instantaneous ground state, NaN where no wave
    function was propagated.
    """

    t: np.ndarray
    gap: np.ndarray
    hdot_norm: np.ndarray
    omega_bar_star: np.ndarray
    bound_rhs: np.ndarray
    fidelity: np.ndarray
    comm_norm: np.ndarray

    def chain_holds(self, slack: float = 1e-9) -> bool:
        """gap·Ω̄* <= ||[Ω̄, Λ]||_F <= ||Ḣ||_F at every sample."""
        lhs_ok = np.all(self.gap * self.omega_bar_star <= self.comm_norm + slack)
        rhs_ok = np.all(self.comm_norm <= self.hdot_norm + slack)
        return bool(lhs_ok and rhs_ok)


def frame_generator(k: float, pot: FourierPotential, n: int, A: float,
                    Adot: float):
    """Eigenframe solution at gauge shift A plus the rotated frame generator.

    Returns (solution, omega_bar, hdot_rotated) where omega_bar is
    Ω̄_ij = <θ_i|Ḣ|θ_j>/(λ_j - λ_i) off the diagonal and zero on it, and
    hdot_rotated is Θ†ḢΘ. Ḣ = Adot·dH/dA is exactly diagonal in the
    plane-wave basis (entries Adot·(k + 2πl/a + A)), so no finite
    differencing of eigenvectors is needed and the commutator
    [Ω̄, Λ] = offdiag(Θ†ḢΘ) stays bounded even where excited bands are
    quasi-degenerate and Ω̄ itself blows up.
    """
    center = solve_at(k, A, pot, n)
    w = center.energies
    theta = center.vectors
    m = (theta.conj().T * (Adot * center.plane_wavevectors)) @ theta
    m = 0.5 * (m + m.conj().T)
    denom = w[None, :] - w[:, None]
    denom = np.where(np.abs(denom) < 1e-30, np.inf, denom)
    omega_bar = m / denom
    return center, omega_bar, m


def _diagnostic_sample(k, pot, n, E, t):
    """One adiabatic sample at time t, where the gauge shift is A(t) = -E t."""
    A = -E * t
    center, omega_bar, m = frame_generator(k, pot, n, A, -E)
    w = center.energies
    gap = float(w[1] - w[0])
    if gap <= _GAP_MIN:
        raise DegeneratePointError(f"ground-state gap {gap:.3e} closed at A={A!r}")
    kappa = center.plane_wavevectors
    hdot_norm = abs(E) * float(np.sqrt(np.sum(kappa ** 2)))
    if E == 0.0:
        return gap, hdot_norm, 0.0, 0.0, 0.0
    omega_star = float(np.max(np.abs(omega_bar[0, 1:])))
    comm = m - np.diag(np.diag(m))     # [Ω̄, Λ]_{ij} = Ω̄_ij (λ_j - λ_i) = M_ij, i≠j
    comm_norm = float(np.linalg.norm(comm))
    return gap, hdot_norm, omega_star, hdot_norm / gap, comm_norm


def adiabatic_diagnostics(k: float, pot: FourierPotential, n: int, E: float,
                          t: float) -> AdiabaticReport:
    """Single-sample eigenframe diagnostics; no state is propagated (fidelity NaN)."""
    gap, hdot, om_star, bound, comm = _diagnostic_sample(k, pot, n, E, t)
    one = lambda v: np.array([v], dtype=np.float64)
    return AdiabaticReport(one(t), one(gap), one(hdot), one(om_star),
                           one(bound), one(float("nan")), one(comm))


def integrate_basis(k: float, pot: FourierPotential, n: int, E: float,
                    T: float, dt: float, X0: np.ndarray | None = None,
                    report_stride: int = 1):
    """Advance X through Ẋ = -iH(t)X with per-step midpoint exponentials.

    H(t) carries the gauge shift A(t) = -E t. Each step applies
    Θ exp(-iΛ dt) Θ† of the midpoint Hamiltonian, so the update is unitary
    to roundoff and integrator drift cannot masquerade as nonadiabaticity.
    Diagnostics and fidelity are sampled every report_stride steps plus the
    final instant. Returns (BasisState at T, AdiabaticReport).
    """
    if not (dt > 0.0 and T >= dt):
        raise ValueError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    if report_stride < 1:
        raise ValueError("report_stride must be >= 1")
    nsteps = max(1, int(round(T / dt)))
    h = T / nsteps
    size = 2 * n + 1
    if X0 is None:
        X = solve_at(k, 0.0, pot, n).vectors[:, 0].astype(np.complex128)
    else:
        X = np.asarray(X0, dtype=np.complex128).copy()
        if X.shape != (size,):
            raise ValueError(f"X0 must have shape ({size},)")
        if abs(np.linalg.norm(X) - 1.0) > 1e-10:
            raise ValueError("X0 must be normalized")

    samples = []

    def take_sample(j, Xnow):
        t = j * h
        gap, hdot, om_star, bound, comm = _diagnostic_sample(k, pot, n, E, t)
        ground = solve_at(k, -E * t, pot, n).vectors[:, 0]
        fid = float(np.abs(np.vdot(ground, Xnow)) ** 2)
        samples.append((t, gap, hdot, om_star, bound, fid, comm))

    take_sample(0, X)
    for j in range(nsteps):
        mid = solve_at(k, -E * (j + 0.5) * h, pot, n)
        w, v = mid.energies, mid.vectors
        X = v @ (np.exp(-1j * w * h) * (v.conj().T @ X))
        if (j + 1) % report_stride == 0 or j + 1 == nsteps:
            take_sample(j + 1, X)

    cols = [np.array(c, dtype=np.float64) for c in zip(*samples)]
    report = AdiabaticReport(*cols)
    return BasisState(k=k, coeffs=X, t=T, n=n, a=pot.a), report


# --------------------------------------------------------------------------
# real-space grid states and split-step propagation


@dataclass
class GridState:
    """Normalized complex amplitudes on a uniform periodic grid of length Ldom."""

    Ldom: float
    N: int
    psi: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        if self.psi.shape != (self.N,):
            raise ValueError("psi must have shape (N,)")
        if abs(self.norm - 1.0) > 1e-8:
            raise ValueError(f"state not normalized: ∫|ψ|²dx = {self.norm!r}")

    @property
    def dx(self) -> float:
        return self.Ldom / self.N

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.dx)


def gaussian_packet(Ldom: float, N: int, x0: float, k0: float, sigma: float) -> GridState:
    """Normalized Gaussian wavepacket exp(-(x-x0)²/(4σ²) + ik0 x)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    dx = Ldom / N
    x = -0.5 * Ldom + dx * np.arange(N)
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    return GridState(Ldom=float(Ldom), N=int(N), psi=psi, x=x)


@dataclass
class SplitStepResult:
    times: np.ndarray
    x_mean: np.ndarray
    k_mean: np.ndarray
    sigma_x: np.ndarray
    norms: np.ndarray
    final: GridState


def split_step_free(psi0: GridState, E: float, T: float, dt: float,
                    potential=None, sample_stride: int = 1,
                    guard_sigmas: float = 5.0) -> SplitStepResult:
    """Strang propagation of iψ̇ = -½ψ'' + U(x)ψ with U = E·x (+ optional extra).

    The scalar-gauge linear potential is unbounded, so the packet must stay
    in the interior: if the centroid comes within guard_sigmas packet widths
    of either boundary the run aborts with BoundaryProximityError. Centroid
    series ⟨x⟩(t), ⟨k⟩(t) and σ_x(t) are sampled every sample_stride steps.
    """
    if not (dt > 0.0 and T >= dt):
        raise ValueError(f"need dt > 0 and T >= dt, got T={T!r}, dt={dt!r}")
    nsteps = max(1, int(round(T / dt)))
    h = T / nsteps
    x = psi0.x
    dx = psi0.dx
    kgrid = TWO_PI * np.fft.fftfreq(psi0.N, d=dx)
    U = E * x
    if potential is not None:
        U = U + np.asarray(potential(x), dtype=np.float64)
    half_kick = np.exp(-0.5j * h * U)
    kinetic = np.exp(-0.5j * h * kgrid ** 2)
    psi = psi0.psi.astype(np.complex128)

    x_lo, x_hi = x[0], x[-1] + dx
    times, xm, km, sg, nm = [], [], [], [], []

    def moments(p):
        w = np.abs(p) ** 2
        tot = float(np.sum(w) * dx)
        mx = float(np.sum(w * x) * dx / tot)
        mx2 = float(np.sum(w * x * x) * dx / tot)
        power = np.abs(np.fft.fft(p)) ** 2
        mk = float(np.sum(power * kgrid) / np.sum(power))
        return tot, mx, np.sqrt(max(mx2 - mx * mx, 0.0)), mk

    def record(j, p):
        tot, mx, sig, mk = moments(p)
        if min(mx - x_lo, x_hi - mx) < guard_sigmas * sig:
            raise BoundaryProximityError(
                f"centroid {mx:.3f} within {guard_sigmas}σ (σ={sig:.3f}) of the "
                f"domain boundary [{x_lo:.3f}, {x_hi:.3f}] at t={j * h:.6g}"
            )
        times.append(j * h)
        xm.append(mx)
        km.append(mk)
        sg.append(sig)
        nm.append(tot)

    record(0, psi)
    for j in range(nsteps):
        psi = half_kick * psi
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi = half_kick * psi
        if (j + 1) % sample_stride == 0 or j + 1 == nsteps:
            record(j + 1, psi)

    final = GridState(Ldom=psi0.Ldom, N=psi0.N, psi=psi / np.sqrt(nm[-1]), x=x)
    return SplitStepResult(np.array(times), np.array(xm), np.array(km),
                           np.array(sg), np.array(nm), final)


# --------------------------------------------------------------------------
# real-space grid diagonalization with translation labeling


@dataclass
class GridBands:
    """Lowest grid eigenstates labeled by commensurate crystal momentum."""

    M: int
    N: int
    Ldom: float
    k: np.ndarray
    energies: np.ndarray
    states: np.ndarray

    def ground_band_energy(self, k: float, tol: float = 1e-9) -> float:
        match = np.abs(self.k - k) < tol
        if not np.any(match):
            raise ValueError(f"no labeled state at k={k!r}")
        return float(np.min(self.energies[match]))


def grid_ground_state(pot: FourierPotential, M: int = 16, N: int = 2048,
                      n_levels: int | None = None) -> GridBands:
    """Diagonalize -½∂² + V on M periods with N points, periodic boundary.

    The kinetic operator is the exact spectral circulant, so plane waves up
    to the grid Nyquist are represented without dispersion error. States are
    Bloch-labeled by diagonalizing the lattice translation within each
    degenerate cluster; labels are snapped to the commensurate set
    2πm/(Ma), m in (-M/2, M/2].
    """
    if N & (N - 1) or N <= 0:
        raise ValueError(f"N must be a power of two, got {N}")
    if M < 8:
        raise ValueError(f"need at least 8 periods, got M={M}")
    if N % M:
        raise ValueError(f"N={N} must be divisible by M={M}")
    if n_levels is None:
        n_levels = 3 * M
    if not 1 <= n_levels <= N:
        raise ValueError(f"n_levels must lie in [1, {N}], got {n_levels}")
    a = pot.a
    Ldom = M * a
    dx = Ldom / N
    x = dx * np.arange(N)
    kappa = TWO_PI * np.fft.fftfreq(N, d=dx)
    circ = np.fft.ifft(0.5 * kappa ** 2).real
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    H = circ[idx]
    H[np.diag_indices(N)] += pot.evaluate(x)
    # 1D levels are at most doubly degenerate; probe past the request so a
    # cluster sliced by the subset boundary can be recognized and dropped
    probe = min(N, n_levels + 4)
    energies, states = scipy.linalg.eigh(H, subset_by_index=(0, probe - 1))

    shift = N // M
    k_list: list[float] = []
    e_list: list[float] = []
    cluster_start = 0
    while cluster_start < probe:
        stop = cluster_start + 1
        while stop < probe and (energies[stop] - energies[stop - 1]
                                < 1e-7 + 1e-9 * abs(energies[stop])):
            stop += 1
        if stop == probe and probe < N:
            break              # trailing cluster may extend past the subset
        block = states[:, cluster_start:stop]
        shifted = np.roll(block, -shift, axis=0)
        tmat = block.T @ shifted
        vals = np.linalg.eigvals(tmat)
        if np.max(np.abs(np.abs(vals) - 1.0)) > 1e-6:
            raise RuntimeError(
                "translation eigenvalues off the unit circle; cluster tolerance "
                f"failed near E={energies[cluster_start]:.6g}"
            )
        e_cluster = float(np.mean(energies[cluster_start:stop]))
        for val in vals:
            m = int(round(np.angle(val) * M / TWO_PI))
            if m == -(M // 2):
                m = M // 2
            k_list.append(TWO_PI * m / (M * a))
            e_list.append(e_cluster)
        cluster_start = stop

    if len(e_list) < n_levels:
        raise RuntimeError(
            f"only {len(e_list)} levels labeled below the subset boundary; "
            f"requested {n_levels}"
        )
    k_out = np.array(k_list[:n_levels])
    e_out = np.array(e_list[:n_levels])
    order = np.lexsort((e_out, k_out))
    return GridBands(M=M, N=N, Ldom=Ldom, k=k_out[order], energies=e_out[order],
                     states=states)
