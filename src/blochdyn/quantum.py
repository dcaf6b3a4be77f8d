"""Quantum oracles: plane-wave-basis propagation with adiabatic diagnostics,
a split-step real-space propagator, and a Bloch-folded grid diagonalization.

These provide independent checks of the semiclassical picture. The basis
integrator advances X with the exact exponential of the midpoint Hamiltonian
(exactly unitary per step). Its diagnostic samples come from one stacked
_eigensystems pass of central_equation, and its step midpoints from one
_eigensystems block at a time; adiabatic_diagnostics is the sample pass at a
single time. A GridState derives its grid points from Ldom and psi.size.
The split-step propagator is Strang-ordered and second order in dt. In a
uniform field alone, U = E·x, a Strang step is exact up to a global phase at
any length, so it takes one step per sample interval and restores the phase
of the dt-step loop at the end. Both propagators walk the sampled steps of
semiclassical._sample_steps (a stride is an integer >= 1) and hold only their
times, never the step grid: the basis integrator forms each block's midpoint
shifts in its block loop, and the split-step propagator runs every step in
place on one copy of the state.
The grid oracle diagonalizes the real-space Hamiltonian with a spectral
kinetic circulant, folded by Bloch's theorem into one small block per
commensurate k. Each block's kinetic part comes straight from the spectral
symbol κ²/2: the grid's plane waves that belong to the block, one inverse FFT
and two phase products, with no real-space circulant gathered. That is the
same matrix as the folded circulant. The oracle builds and diagonalizes one
block at a time, so it never holds the stack of all M blocks. It returns the
blocks' levels as computed, one row per k, so each level's crystal-momentum
label is exact by construction and needs no lookup.
The plane-wave half (frame_generator, _eigenframes, integrate_basis) imports
the band solver when it runs, so the split-step propagator and the grid
oracle load neither central_equation nor potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BoundaryProximityError, ConfigError, DegeneratePointError
from .semiclassical import _sample_steps

if TYPE_CHECKING:
    from .potential import FourierPotential

TWO_PI = 2.0 * np.pi
# split_step_free's margin, in packet widths, for its k-window and boundary guards
_GUARD_SIGMAS = 5.0


# --------------------------------------------------------------------------
# plane-wave basis states and adiabatic machinery


@dataclass
class AdiabaticReport:
    """Sampled diagnostics of the instantaneous eigenframe.

    gap, hdot_norm, omega_bar_star and comm_norm are in internal units
    (ħ = 1, so rates and energies share one scale), and so is the derived
    bound_rhs = hdot_norm / gap; fidelity is the squared overlap with the
    instantaneous ground state, NaN where no wave function was propagated.
    """

    t: np.ndarray
    gap: np.ndarray
    hdot_norm: np.ndarray
    omega_bar_star: np.ndarray
    fidelity: np.ndarray
    comm_norm: np.ndarray

    @property
    def bound_rhs(self) -> np.ndarray:
        """||Ḣ||_F / gap at every sample."""
        return self.hdot_norm / self.gap

    def chain_holds(self) -> bool:
        """gap·Ω̄* <= ||[Ω̄, Λ]||_F <= ||Ḣ||_F at every sample, with slack 1e-9·||Ḣ||_F."""
        slack = 1e-9 * self.hdot_norm
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
    quasi-degenerate and Ω̄ itself blows up. This is the one-instant form with
    the full matrices; the adiabatic runs take their samples from the stacked
    _eigenframes pass, which is tested against it.
    """
    from .central_equation import solve_at

    center = solve_at(k, A, pot, n)
    w = center.energies
    theta = center.vectors
    m = (theta.conj().T * (Adot * center.plane_wavevectors)) @ theta
    m = 0.5 * (m + m.conj().T)
    denom = w[None, :] - w[:, None]
    denom = np.where(np.abs(denom) < 1e-30, np.inf, denom)
    omega_bar = m / denom
    return center, omega_bar, m


def _eigenframes(k: float, pot: FourierPotential, n: int, E: float, ts):
    """Instantaneous eigenframes at the times ts, where the gauge shift is A = -E t.

    One _eigensystems pass gives (grounds, gap, hdot_norm, omega_bar_star,
    comm_norm): grounds[i] is the phase-fixed band-0 vector at ts[i], the
    rest are arrays over ts. With Adot = -E and M = Θ†ḢΘ as in frame_generator,
    Ω̄* is the largest |Ω̄_0j| = |M_0j|/(λ_j - λ_0) and comm_norm is
    ‖offdiag(M)‖_F = ‖[Ω̄, Λ]‖_F. The gap guard runs before the drive is
    divided by a gap. A finite shift whose drive -E·κ overflows any of these
    diagnostics, or AdiabaticReport's bound_rhs = hdot_norm / gap, is refused
    with ConfigError.
    """
    from .central_equation import _GAP_MIN, _coupling_block, _eigensystems, _phase_fix

    with np.errstate(over="ignore"):   # _eigensystems refuses an infinite shift
        shifts = -E * np.asarray(ts, dtype=np.float64)
    blocks = []
    for cut, w, theta, kappa in _eigensystems(k, shifts, _coupling_block(pot, n), pot.a):
        gap = w[:, 1] - w[:, 0]
        closed = np.flatnonzero(gap <= _GAP_MIN)
        if closed.size:
            i = closed[0]
            raise DegeneratePointError(
                f"ground-state gap {gap[i]:.3e} closed at A={float(shifts[cut][i])!r}")
        theta = _phase_fix(theta)
        # a finite E and shift can still overflow the drive -E·κ; refused below
        with np.errstate(over="ignore", invalid="ignore"):
            m = (theta.conj().transpose(0, 2, 1) * (-E * kappa)[:, None, :]) @ theta
            m = 0.5 * (m + m.conj().transpose(0, 2, 1))
            omega_star = np.max(np.abs(m[:, 0, 1:] / (w[:, 1:] - w[:, :1])), axis=1)
            hdot_norm = abs(E) * np.sqrt(np.sum(kappa ** 2, axis=-1))
            diag = np.arange(m.shape[1])
            m[:, diag, diag] = 0.0     # [Ω̄, Λ]_ij = Ω̄_ij (λ_j - λ_i) = M_ij, i≠j
            comm_norm = np.array([np.linalg.norm(c) for c in m])
            columns = (hdot_norm, omega_star, comm_norm)
            finite = np.isfinite((*columns, hdot_norm / gap)).all(axis=0)
        overflow = np.flatnonzero(~finite)
        if overflow.size:
            i = overflow[0]
            raise ConfigError(f"field E={E!r} at gauge shift A={float(shifts[cut][i])!r} "
                              f"overflows the drive: |E|·‖κ‖ = {float(hdot_norm[i])!r}")
        blocks.append((theta[:, :, 0], gap, *columns))
    return tuple(np.concatenate(c) for c in zip(*blocks))


def adiabatic_diagnostics(k: float, pot: FourierPotential, n: int, E: float,
                          t: float) -> AdiabaticReport:
    """Single-sample eigenframe diagnostics; no state is propagated (fidelity NaN)."""
    _, gap, hdot, om_star, comm = _eigenframes(k, pot, n, E, [t])
    return AdiabaticReport(np.array([t], dtype=np.float64), gap, hdot, om_star,
                           np.array([np.nan]), comm)


def integrate_basis(k: float, pot: FourierPotential, n: int, E: float,
                    T: float, dt: float, report_stride: int = 1):
    """Advance X through Ẋ = -iH(t)X with per-step midpoint exponentials.

    X starts as the band-0 state at k, and H(t) carries the gauge shift
    A(t) = -E t. Each step applies Θ exp(-iΛ dt) Θ† of the midpoint
    Hamiltonian, so the update is unitary to roundoff and integrator drift
    cannot masquerade as nonadiabaticity. The midpoint shifts A = -E(j + ½)dt
    are formed one _K_BLOCK block of 32 steps at a time, so memory follows the
    block and the samples, not nsteps: at n = 10 a block's U and Θ† work
    arrays hold 2·32·21² complex, 452 KB. Each block is one _eigensystems
    call on the coupling block that the run forms once, before its block
    loop, with no phase fix, which the product does not need. Per block, U = Θ·diag(e^{-iλh})
    is formed once into a reused work array and Θ† is the transposed view of
    one complex copy of Θ, conjugated in place only when eigh returns complex
    vectors (on a real lattice Θ is real and Θ† = Θᵀ), so step j is
    X -> U[j] (Θ†[j] X).
    Diagnostics are sampled every report_stride steps plus the final instant
    (report_stride an integer >= 1, else ConfigError), from one _eigenframes
    pass at those times only; the step loop takes the fidelity when j reaches
    the next sampled step, a Python int.
    Returns (X, AdiabaticReport): X is the coefficient vector over the
    plane-wave index l at T.
    """
    from .central_equation import _K_BLOCK, _coupling_block, _eigensystems

    samples, h = _sample_steps(T, dt, report_stride, "report_stride")
    nsteps = int(samples[-1])
    ts = samples * h
    grounds, gap, hdot, om_star, comm = _eigenframes(k, pot, n, E, ts)
    X = grounds[0].astype(np.complex128)
    fidelity = [float(np.abs(np.vdot(grounds[0], X)) ** 2)]
    marks = iter(samples.tolist()[1:])     # Python ints: the loop compares no numpy scalar
    mark = next(marks)
    coupling = _coupling_block(pot, n)
    steps = None    # one block's U and Θ†, reused: a fresh pair costs more than its steps
    for lo in range(0, nsteps, _K_BLOCK):
        hi = min(lo + _K_BLOCK, nsteps)
        shifts = np.arange(lo + 0.5, hi)    # -E(j + ½)h for this block's steps only
        with np.errstate(over="ignore"):
            shifts *= -E
            shifts *= h
        (_, ws, vs, _), = _eigensystems(k, shifts, coupling, pot.a)
        if steps is None:   # the first block is the largest
            steps, frames = np.empty((2, *vs.shape), dtype=np.complex128)
        v = frames[:len(ws)]
        v[...] = vs     # complex before the product, which then runs no casting loop
        u = np.multiply(v, np.exp(-1j * ws * h)[:, None, :], out=steps[:len(ws)])
        if np.iscomplexobj(vs):     # on a real lattice Θ† is Θᵀ
            np.conjugate(v, out=v)
        v_h = v.transpose(0, 2, 1)
        for j, u_j, v_h_j in zip(range(lo + 1, hi + 1), u, v_h):
            X = u_j.dot(v_h_j.dot(X))     # the bound dot dispatches faster than @ here
            if j == mark:
                fidelity.append(float(np.abs(np.vdot(grounds[len(fidelity)], X)) ** 2))
                mark = next(marks, None)

    report = AdiabaticReport(ts, gap, hdot, om_star, np.array(fidelity), comm)
    return X, report


# --------------------------------------------------------------------------
# real-space grid states and split-step propagation


@dataclass
class GridState:
    """Normalized complex amplitudes psi on a uniform periodic grid of length Ldom;
    the step is dx = Ldom / psi.size and the points are x = -Ldom/2 + j·dx."""

    Ldom: float
    psi: np.ndarray

    def __post_init__(self):
        if self.psi.ndim != 1:
            raise ConfigError(f"psi must be one-dimensional, got shape {self.psi.shape}")
        if not abs(self.norm - 1.0) <= 1e-8:
            raise ConfigError(f"state not normalized: ∫|ψ|²dx = {self.norm!r}")

    @property
    def dx(self) -> float:
        return self.Ldom / self.psi.size

    @property
    def x(self) -> np.ndarray:     # gaussian_packet's grid, bitwise
        return -0.5 * self.Ldom + self.dx * np.arange(self.psi.size)

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.dx)


def gaussian_packet(Ldom: float, N: int, x0: float, k0: float, sigma: float) -> GridState:
    """Normalized Gaussian wavepacket exp(-(x-x0)²/(4σ²) + ik0 x).

    The grid holds only |k| < π/dx; a k0 outside that window would alias to
    k0 - 2πm/dx, so it is refused with ConfigError.
    """
    if sigma <= 0.0:
        raise ConfigError("sigma must be positive")
    if not Ldom > 0.0 or N < 1:
        raise ConfigError(f"need Ldom > 0 and N >= 1, got Ldom={Ldom!r}, N={N!r}")
    dx = Ldom / N
    if not 0.0 < np.pi / dx < np.inf:
        raise ConfigError(f"grid step {dx!r} puts the k window π/dx outside float range")
    if not abs(k0) < np.pi / dx:
        raise ConfigError(f"k0={k0!r} lies outside the grid's k window π/dx = {np.pi / dx:.6g}")
    if not 4.0 * sigma * sigma < np.inf:
        raise ConfigError(f"sigma={sigma!r} puts the packet's 4σ² outside float range")
    x = -0.5 * Ldom + dx * np.arange(N)
    # a sigma too small for the grid gives 0, inf or NaN here; the norm check rejects it
    with np.errstate(all="ignore"):
        psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * x)
    norm = float(np.sum(np.abs(psi) ** 2) * dx)
    if not 0.0 < norm < np.inf:
        raise ConfigError(f"packet grid norm is {norm!r}: no weight on the grid at this x0, sigma")
    psi /= np.sqrt(norm)
    return GridState(Ldom=float(Ldom), psi=psi)


@dataclass
class SplitStepResult:
    times: np.ndarray
    x_mean: np.ndarray
    k_mean: np.ndarray
    sigma_x: np.ndarray
    norms: np.ndarray
    final: GridState


def split_step_free(psi0: GridState, E: float, T: float, dt: float,
                    potential=None, sample_stride: int = 1) -> SplitStepResult:
    """Strang propagation of iψ̇ = -½ψ'' + U(x)ψ with U = E·x (+ optional extra).

    With an extra potential every step has the length h = T/round(T/dt). With
    U = E·x alone one Strang step spans each sample interval: τ = sample_stride·h,
    and the last interval, when off-stride, is one shorter step. For V = E·x and
    K = p²/2, [V,[V,K]] = -E² is a c-number and every higher commutator
    vanishes, so e^{-iVτ/2}e^{-iKτ}e^{-iVτ/2} = e^{-iHτ}·e^{iE²τ³/24} exactly
    and dt sets only the sample grid and the global phase. The final ψ is
    multiplied by exp(iE²(h²T - Στ³)/24), so it is the h-step loop's state.

    moments(ψ) gives the sample (norm, ⟨x⟩, ⟨k⟩, σ_x) and the power spectrum
    ⟨k⟩ is taken from. ψ₀'s are the t = 0 sample, and its spectrum gives σ_k₀,
    which nothing later reads. They bound the kick: the field moves ⟨k⟩ from
    ⟨k⟩₀ to ⟨k⟩₀ - E·T, and if either end plus _GUARD_SIGMAS·σ_k₀ (5 widths)
    reaches the grid's k window π/dx the run is refused with ConfigError before
    the first step (an extra potential's kick is not bounded). So is a grid
    step whose moment bound (N/dx)·(2π/dx)² overflows, before any moment is
    taken, and a largest step τ whose phase τ·(π/dx)²/2 or τ·max|U|/2, or the
    phase correction, overflows. Later samples come every sample_stride steps
    and after the last (sample_stride an integer >= 1, else ConfigError); the
    run walks those sampled steps and holds only their times. Every step runs
    in place on one copy of ψ₀, with out= products and FFTs, so ψ₀ is left as
    it was and the final state is a new array. E·x is unbounded, so at each
    sample a centroid within _GUARD_SIGMAS·σ_x of either boundary aborts with
    BoundaryProximityError.
    """
    samples, h = _sample_steps(T, dt, sample_stride, "sample_stride")
    nsteps = int(samples[-1])
    x, dx = psi0.x, psi0.dx
    # |k - ⟨k⟩| < 2π/dx and, ψ being normalised, Σ|FFT ψ|² = N/dx: (N/dx)·(2π/dx)²
    # bounds every k², power and power-weighted k sum that moments and the steps form
    k_span = TWO_PI / float(dx)
    if not x.size / float(dx) * k_span * k_span < np.inf:
        raise ConfigError(f"grid step {dx!r} on {x.size} points puts the k moments' "
                          "bound (N/dx)·(2π/dx)² outside float range")
    x_lo, x_hi = x[0], x[-1] + dx
    kgrid = TWO_PI * np.fft.fftfreq(x.size, d=dx)

    def moments(p):
        w = np.abs(p) ** 2
        tot = float(np.sum(w) * dx)
        mx = float(np.sum(w * x) * dx / tot)
        mx2 = float(np.sum(w * x * x) * dx / tot)
        power = np.abs(np.fft.fft(p)) ** 2
        mk = float(np.sum(power * kgrid) / np.sum(power))
        return (tot, mx, mk, np.sqrt(max(mx2 - mx * mx, 0.0))), power

    psi = psi0.psi.astype(np.complex128)     # a copy, the work array of every step
    sample, power = moments(psi)
    k_mean = sample[2]
    k_sigma = float(np.sqrt(np.sum(power * (kgrid - k_mean) ** 2) / np.sum(power)))
    k_reach = max(abs(k_mean), abs(k_mean - E * T)) + _GUARD_SIGMAS * k_sigma
    if not k_reach < np.pi / dx:
        raise ConfigError(
            f"<k> runs from {k_mean:.6g} to {k_mean - E * T:.6g}; with {_GUARD_SIGMAS}σ_k "
            f"it reaches {k_reach:.6g}, past the grid's k window π/dx = {np.pi / dx:.6g}")
    U = E * x if potential is None else E * x + np.asarray(potential(x), dtype=np.float64)
    # a sample interval of m steps is one Strang step of m·h when U = E·x alone, else
    # m steps of h; every interval but the last spans the first one's steps
    first, last = int(samples[1]), nsteps - int(samples[-2])
    lengths = {first, last} if potential is None else {1}
    tau = max(lengths) * h
    # a step of m·h carries the phase E²(mh)³/24, so h steps carry nsteps·E²h³/24 in
    # all; the cubes are Python ints, where numpy's would wrap
    cubes = (samples.size - 2) * first ** 3 + last ** 3 if potential is None else nsteps
    with np.errstate(over="ignore", invalid="ignore"):
        correction = (E * h) * (E * h) * h * (nsteps - cubes) / 24.0
        phases = (0.5 * tau * (np.pi / dx) ** 2, 0.5 * tau * np.max(np.abs(U)), correction)
    if not np.isfinite(phases).all():
        raise ConfigError(f"step τ={tau!r} puts a Strang phase (τ·(π/dx)²/2, τ·max|U|/2 "
                          "or E²(h²T - Στ³)/24) outside float range")
    factors = {m: (np.exp(-0.5j * (m * h) * U), np.exp(-0.5j * (m * h) * kgrid ** 2))
               for m in lengths}
    rows = []
    start = 0
    for stop in samples.tolist():
        if stop:
            length, count = (stop - start, 1) if potential is None else (1, stop - start)
            half_kick, kinetic = factors[length]
            for _ in range(count):
                # half_kick·ifft(kinetic·fft(half_kick·ψ)) in place, each product in
                # that operand order: numpy's complex multiply is not bitwise commutative
                np.multiply(half_kick, psi, out=psi)
                np.fft.fft(psi, out=psi)
                np.multiply(kinetic, psi, out=psi)
                np.fft.ifft(psi, out=psi)
                np.multiply(half_kick, psi, out=psi)
            sample, _ = moments(psi)
        tot, mx, mk, sig = sample
        t = stop * h
        if min(mx - x_lo, x_hi - mx) < _GUARD_SIGMAS * sig:
            raise BoundaryProximityError(
                f"centroid {mx:.3f} within {_GUARD_SIGMAS}σ (σ={sig:.3f}) of the "
                f"domain boundary [{x_lo:.3f}, {x_hi:.3f}] at t={t:.6g}")
        rows.append((t, mx, mk, sig, tot))
        start = stop

    psi *= np.exp(1j * correction)
    times, x_mean, k_mean, sigma_x, norms = map(np.array, zip(*rows))
    final = GridState(Ldom=psi0.Ldom, psi=psi / np.sqrt(norms[-1]))
    return SplitStepResult(times, x_mean, k_mean, sigma_x, norms, final)


# --------------------------------------------------------------------------
# real-space grid diagonalization, Bloch-folded by the lattice translation


@dataclass
class GridBands:
    """The Bloch-folded oracle's levels, one row per block: k (M,) ascending and
    energies (M, N/M), so band b at crystal momentum k[m] is energies[m, b]."""

    k: np.ndarray
    energies: np.ndarray


def grid_ground_state(pot: FourierPotential, M: int = 16, N: int = 2048) -> GridBands:
    """Diagonalize -½∂² + V on M periods with N points, periodic boundary.

    The kinetic operator is the exact spectral circulant, so plane waves up
    to the grid Nyquist are represented without dispersion error. H commutes
    with translation by one period (s = N/M points), so Bloch's theorem on the
    grid splits it exactly into M blocks of size s, one per commensurate
    k_m = 2πm/(Ma), m = 1 - M/2 … M/2:
    H_m[i, j] = Σ_r circ[(i - j - r·s) mod N]·e^{ik_m·ra} + δ_ij V(x_i).
    Summed over r, the circulant keeps only the grid's plane waves p ≡ m
    (mod M), so the blocks are folded from the spectral symbol instead. Wave
    p sits at slot ((p - m)/M) mod s of block m, one inverse FFT over the
    slots gives c_m[d] = (1/s)·Σ (κ_p²/2)·e^{2πi·slot·d/s}, and
    H_m[i, j] = e^{ik_m(x_i - x_j)}·c_m[(i - j) mod s] + δ_ij V(x_i).
    It is the same matrix, to roundoff, with no (s, s, M) real-space gather.
    The blocks are built and diagonalized one at a time in one reused (s, s)
    array, so memory holds one block, never the (M, s, s) stack; eigvalsh
    factors each matrix on its own either way, so the levels are the stacked
    call's, bitwise. Every level carries its block's k by construction, so the
    blocks are returned as computed: GridBands(k, energies) with energies[m]
    the s levels of block m.
    """
    if N & (N - 1) or N <= 0:
        raise ConfigError(f"N must be a power of two, got {N}")
    if M < 8:
        raise ConfigError(f"need at least 8 periods, got M={M}")
    if N % M:
        raise ConfigError(f"N={N} must be divisible by M={M}")
    a = pot.a
    dx = M * a / N
    s = N // M
    m = np.arange(1 - M // 2, M // 2 + 1)
    # p[m, slot] = m + M·slot (mod N): the grid's plane waves that fold into block m
    p = (m[:, None] + M * np.arange(s)) % N
    symbol = 0.5 * (TWO_PI * np.fft.fftfreq(N, d=dx))[p] ** 2
    c = np.fft.ifft(symbol, axis=1)     # c[m, d] = (1/s)·Σ_slot symbol·e^{2πi·slot·d/s}
    i = np.arange(s)
    lag = (i[:, None] - i) % s
    phase = np.exp(TWO_PI * 1j * np.outer(m, i) / N)     # e^{i k_m x_i}
    v = pot.evaluate(dx * i)
    energies = np.empty((M, s))
    h = np.empty((s, s), dtype=np.complex128)     # one block, rebuilt in place for each k
    for levels, c_m, phase_m in zip(energies, c, phase):
        np.take(c_m, lag, out=h)
        h *= phase_m[:, None]
        h *= phase_m.conj()
        h[i, i] += v
        levels[:] = np.linalg.eigvalsh(h)
    return GridBands(k=TWO_PI * m / (M * a), energies=energies)
