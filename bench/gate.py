"""Correctness gate: each task's outputs against stored references or an oracle.

* ``bands.csv`` is checked against an independent batched oracle built here:
  exact eigenvalues, Hellmann-Feynman velocities and k·p curvatures of the
  truncated Hamiltonian. The program's finite-difference columns carry a
  truncation error that the exact values do not, so each point's allowance
  is the unit-test tolerance plus the distance between the exact value and a
  central difference with the program's own step (``_fd_allowance``). Output
  equal to the finite difference passes, and so does output equal to the
  exact derivative; anything further from both fails.
* ``conduction.json`` from generated scenarios is checked against
  Hellmann-Feynman velocity sums computed here.
* Every other file of the shipped scenarios is compared with the reference
  output stored under ``reference/``, column by column, with ``CSV_TOL`` and
  ``JSON_TOL`` below.
* ``validate.json`` must list criteria 1..10, each passed.

Tolerances are (rtol, atol): |got - want| <= atol + rtol·|want|. Each is no
looser than a unit test's tolerance for the same quantity (named in the
reason) and at least 100x the roundoff an equivalent algorithm (reordered
sums, batched or differently blocked LAPACK calls) produces.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
TWO_PI = 2.0 * np.pi

# CODATA 2018, as the scenario unit system defines them
HBAR_SI = 1.054571817e-34
M_E_SI = 9.1093837015e-31
E_CHARGE_SI = 1.602176634e-19

# finite-difference steps of the program's reference band derivatives, in
# units of the zone width 2π/a (central_equation._DELTA_K_VELOCITY / _MASS)
FD_STEP_VELOCITY = 1e-5
FD_STEP_MASS = 1e-4

EXACT = (0.0, 0.0)

CSV_TOL = {
    "wavepacket.csv": {
        "t": (0.0, 1e-12, "sample times j·T/n; test_semiclassical pins times to 1e-12"),
        "x_mean": (1e-10, 1e-10, "FFT-based moments; test_quantum pins k_mean to 1e-10"),
        "k_mean": (0.0, 1e-10, "test_quantum free-packet drift atol 1e-10"),
        "sigma_x": (1e-10, 0.0, "test_quantum free-spread rtol 1e-10"),
        "norm": (0.0, 1e-10, "criterion 10 norm-drift bound 1e-10"),
    },
    "trajectory.csv": {
        "*": (1e-10, 1e-10, "RK4 states; test_semiclassical compares RK4 paths at 1e-10"),
    },
    "compare.csv": {
        "*": (1e-10, 1e-10, "RK4 states; test_semiclassical compares RK4 paths at 1e-10"),
    },
}

JSON_TOL = {
    "compare.json": {
        "*": (1e-9, 0.0, "test_cli pins both divergences at rel 1e-9"),
    },
    "adiabatic.json": {
        "*": (1e-9, 0.0, "test_cli / test_quantum pin the probe numbers at rel 1e-9"),
        "t_internal": EXACT + ("echo of the scenario input",),
    },
    "conduction.json": {
        "*": EXACT + ("scenario echoes and fractions",),
        "velocity_sum_unshifted": (1e-9, 1e-9, "test_conduction zero-sum bound 1e-9"),
        "velocity_sum_shifted": (1e-9, 1e-9, "test_conduction zero-sum bound 1e-9"),
    },
    "solenoid.json": {
        "*": (1e-12, 0.0, "test_cli / test_conduction pin the kick at rel 1e-12"),
    },
}

# bands.csv against the oracle, in internal units; these combine as
# max(atol, rtol·|want|), the pytest.approx form of the tests they come from
BAND_TOL = {
    "k": (0.0, 1e-12, "test_central_equation sweep grid atol 1e-12"),
    "energy": (0.0, 1e-10, "test_central_equation empty-lattice energies atol 1e-10"),
    "velocity": (1e-6, 1e-8, "test_central_equation: FD vs Hellmann-Feynman atol 1e-8, "
                 "free-electron rel 1e-6"),
    "curvature": (1e-4, 1e-4, "test_central_equation free mass atol 1e-4, "
                  "test_conduction inverse-mass rel 1e-4"),
}

# velocity sums of generated conduction scenarios against the oracle
SUM_TOL = (1e-9, 1e-9, "test_conduction zero-sum bound 1e-9")


def _close(got, want, rtol, atol):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    same_inf = np.isinf(want) & (got == want)
    return same_inf | (np.abs(got - want) <= atol + rtol * np.abs(want))


def read_csv(path: Path):
    """(comment, columns, float rows) of a CLI CSV file."""
    with open(path) as fh:
        comment = fh.readline().rstrip("\n")
        columns = fh.readline().rstrip("\n").split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return comment, columns, rows


# --------------------------------------------------------------------------
# stored references


def reference_rows(n_rows: int) -> list[int]:
    """Row indices kept in a stored reference: about 500, always the last."""
    stride = max(1, n_rows // 500)
    return sorted(set(range(0, n_rows, stride)) | {n_rows - 1})


def _check_csv(path: Path, ref_path: Path, tols: dict) -> list[str]:
    ref = json.loads(ref_path.read_text())
    comment, columns, rows = read_csv(path)
    if [comment, columns] != [ref["comment"], ref["columns"]]:
        return [f"{path.name}: header {comment!r} {columns} != reference"]
    if rows.shape[0] != ref["rows"]:
        return [f"{path.name}: {rows.shape[0]} rows, reference has {ref['rows']}"]
    got = rows[ref["index"]]
    want = np.array(ref["data"], dtype=np.float64)
    errs = []
    for j, col in enumerate(columns):
        rtol, atol, _ = tols.get(col, tols.get("*"))
        bad = ~_close(got[:, j], want[:, j], rtol, atol)
        if bad.any():
            i = int(np.argmax(bad))
            errs.append(f"{path.name}:{col}: {int(bad.sum())} rows out of tolerance, "
                        f"first {float(got[i, j])!r} vs {float(want[i, j])!r}")
    return errs


def _walk_json(got, want, tols, key, where, errs):
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            errs.append(f"{where}: keys differ")
            return
        for k in want:
            _walk_json(got[k], want[k], tols, k, f"{where}.{k}", errs)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errs.append(f"{where}: list length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _walk_json(g, w, tols, key, f"{where}[{i}]", errs)
    elif isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        rtol, atol, _ = tols.get(key, tols["*"])
        if not _close(got, want, rtol, atol):
            errs.append(f"{where}: {got!r} vs reference {want!r}")
    elif type(got) is not type(want) or got != want:
        errs.append(f"{where}: {got!r} vs reference {want!r}")


def check_against_reference(out: Path, stem: str) -> list[str]:
    """Compare every stored reference file of scenario ``stem`` with ``out``."""
    ref_dir = REFERENCE / stem
    errs = []
    for ref_path in sorted(ref_dir.iterdir()):
        name = ref_path.name.removesuffix(".ref.json")
        path = out / name
        if not path.is_file():
            errs.append(f"{name}: missing")
        elif name.endswith(".csv"):
            errs += _check_csv(path, ref_path, CSV_TOL[name])
        else:
            _walk_json(json.loads(path.read_text()), json.loads(ref_path.read_text()),
                       JSON_TOL[name], "*", name, errs)
    return errs


# --------------------------------------------------------------------------
# band oracle


class _Model:
    """The truncated plane-wave Hamiltonian of one scenario, built batched.

    Built with the same floating-point operations as the program's ``build``,
    so eigenvalues at identical (k, shift) agree to the last bit and the
    finite-difference allowance below measures truncation, not noise.
    """

    def __init__(self, scn: dict, n: int):
        a_ref = scn["units"]["a_ref_m"]
        self.energy_eV = HBAR_SI * HBAR_SI / (M_E_SI * a_ref * a_ref) / E_CHARGE_SI
        self.velocity_si = HBAR_SI / (M_E_SI * a_ref)
        pot = scn["potential"]
        self.a = float(pot["a_internal"])
        if "coefficients_eV" in pot:
            triples, scale = pot["coefficients_eV"], 1.0 / self.energy_eV
        else:
            triples, scale = pot["coefficients_internal"], 1.0
        self.coeffs = {int(l): complex(re, im) * scale for l, re, im in triples}
        if any(abs(v.imag) > 1e-12 for v in self.coeffs.values()):
            raise ValueError("oracle handles real (mirror-symmetric) potentials only")
        self.n = n
        self.ls = np.arange(-n, n + 1)

    def hamiltonian(self, ks: np.ndarray, shift: float) -> np.ndarray:
        size = 2 * self.n + 1
        kap = ks[:, None] + TWO_PI * self.ls / self.a + shift
        H = np.zeros((ks.size, size, size))
        H[:, np.arange(size), np.arange(size)] = kap ** 2 / 2.0 + self.coeffs.get(0, 0j).real
        for l, v in self.coeffs.items():
            if l == 0:
                continue
            idx = np.arange(size - abs(l))
            if l > 0:
                H[:, idx + l, idx] = v.real
            else:
                H[:, idx, idx - l] = v.real
        return H

    def kappa(self, ks: np.ndarray) -> np.ndarray:
        return ks[:, None] + TWO_PI * self.ls / self.a

    def exact(self, ks: np.ndarray, n_bands: int):
        """Energies, Hellmann-Feynman velocities and k·p curvatures of the low bands."""
        energies, vecs = np.linalg.eigh(self.hamiltonian(ks, 0.0))
        kap = self.kappa(ks)
        p = np.einsum("kia,ki,kib->kab", vecs, kap, vecs)     # <a|κ|b>
        velocity = np.einsum("kbb->kb", p)[:, :n_bands]
        low = energies[:, :n_bands]
        gaps = low[:, None, :] - energies[:, :, None]         # E_b - E_j
        terms = np.divide(p[:, :, :n_bands] ** 2, gaps,
                          out=np.zeros_like(gaps), where=gaps != 0.0)
        curvature = 1.0 + 2.0 * terms.sum(axis=1)
        return energies, vecs, low, velocity, curvature

    def tracked_energies(self, ks, vecs, n_bands, shift):
        """Energies at gauge shift ``shift``, each band followed by max overlap."""
        e_side, v_side = np.linalg.eigh(self.hamiltonian(ks, shift))
        overlap = np.abs(np.einsum("kia,kib->kab", v_side, vecs[:, :, :n_bands]))
        pick = np.argmax(overlap, axis=1)
        return np.take_along_axis(e_side, pick, axis=1)


def _fd_allowance(model, ks, vecs, low, velocity, curvature, n_bands):
    """|central difference - exact| for velocity and curvature at each point."""
    dv = FD_STEP_VELOCITY * TWO_PI / model.a
    dm = FD_STEP_MASS * TWO_PI / model.a
    em, ep = (model.tracked_energies(ks, vecs, n_bands, s) for s in (-dv, dv))
    v_fd = (ep - em) / (2.0 * dv)
    em, ep = (model.tracked_energies(ks, vecs, n_bands, s) for s in (-dm, dm))
    c_fd = (ep - 2.0 * low + em) / dm ** 2
    return np.abs(v_fd - velocity), np.abs(c_fd - curvature)


def check_bands(path: Path, scn: dict) -> list[str]:
    sweep = scn["sweep"]
    n, k_points, n_bands = sweep["n_waves"], sweep["k_points"], sweep["n_bands"]
    model = _Model(scn, n)
    comment, columns, rows = read_csv(path)
    if columns != ["k", "band", "energy_eV", "v_g_SI", "m_star_ratio"]:
        return [f"bands.csv: columns {columns}"]
    if rows.shape != (k_points * n_bands, 5):
        return [f"bands.csv: shape {rows.shape}, expected {(k_points * n_bands, 5)}"]
    edge = np.pi / model.a
    ks = np.linspace(-edge, edge, k_points)
    _, vecs, low, velocity, curvature = model.exact(ks, n_bands)
    v_allow, c_allow = _fd_allowance(model, ks, vecs, low, velocity, curvature, n_bands)

    got = rows.reshape(k_points, n_bands, 5)
    mass = got[:, :, 4]
    with np.errstate(divide="ignore"):
        got_curv = np.where(np.isinf(mass), 0.0, 1.0 / mass)
    checks = {
        "k": (got[:, :, 0], np.repeat(ks[:, None], n_bands, axis=1), 0.0),
        "energy": (got[:, :, 2] / model.energy_eV, low, 0.0),
        "velocity": (got[:, :, 3] / model.velocity_si, velocity, v_allow),
        "curvature": (got_curv, curvature, c_allow),
    }
    errs = []
    if not np.array_equal(got[:, :, 1], np.broadcast_to(np.arange(n_bands), (k_points, n_bands))):
        errs.append("bands.csv: band column is not 0..n_bands-1 per k")
    for label, (g, want, allow) in checks.items():
        rtol, atol, _ = BAND_TOL[label]
        bad = np.abs(g - want) > np.maximum(atol, rtol * np.abs(want)) + allow
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            errs.append(f"bands.csv:{label}: {int(bad.sum())} points out of tolerance, "
                        f"first k={ks[i[0]]:.6f} band {i[1]}: {float(g[i])!r} vs {float(want[i])!r}")
    return errs


# --------------------------------------------------------------------------
# conduction oracle


def _velocity_sum(model, band, n_k, fraction, shift):
    dk = TWO_PI / (model.a * n_k)
    grid = -np.pi / model.a + (np.arange(n_k) + 0.5) * dk
    occupied = grid[np.lexsort((grid, np.abs(grid)))[: int(round(fraction * n_k))]]
    if occupied.size == 0:
        return 0.0
    k = occupied + shift
    k = k - TWO_PI * np.ceil(k * model.a / TWO_PI - 0.5) / model.a
    _, vecs = np.linalg.eigh(model.hamiltonian(k, 0.0))
    v = np.einsum("ki,ki->k", vecs[:, :, band] ** 2, model.kappa(k))
    return math.fsum(v)


def check_conduction(path: Path, scn: dict) -> list[str]:
    dyn = scn["dynamics"]
    band, n_k, shift = dyn["band"], dyn["n_k"], dyn["shift_internal"]
    model = _Model(scn, dyn["n_waves"])
    got = json.loads(path.read_text())
    fillings = got.get("fillings", [])
    if len(fillings) != len(dyn["fractions"]):
        return [f"conduction.json: {len(fillings)} fillings, expected {len(dyn['fractions'])}"]
    probe = 1e-4 * TWO_PI / model.a
    rtol, atol, _ = SUM_TOL
    errs = []
    for entry, frac in zip(fillings, dyn["fractions"]):
        base = _velocity_sum(model, band, n_k, frac, 0.0)
        want = {
            "velocity_sum_unshifted": base,
            "velocity_sum_shifted": _velocity_sum(model, band, n_k, frac, shift),
        }
        for key, value in want.items():
            if not _close(entry[key], value, rtol, atol):
                errs.append(f"conduction.json: fraction {frac} {key} {entry[key]!r} vs {value!r}")
        moved = abs(_velocity_sum(model, band, n_k, frac, probe) - base) > 1e-8 * n_k
        label = "conductor" if moved else "insulator"
        if entry["classification"] != label or entry["fraction"] != frac:
            errs.append(f"conduction.json: fraction {frac} labelled "
                        f"{entry['classification']!r}, oracle says {label!r}")
    return errs


# --------------------------------------------------------------------------
# acceptance suite


def check_validate(path: Path, seed: int) -> int:
    """Number of failed criteria out of 10 (all 10 if the file is unusable)."""
    try:
        got = json.loads(path.read_text())
    except (OSError, ValueError):
        return 10
    passed = {r.get("cid") for r in got.get("results", []) if r.get("passed") is True}
    if got.get("seed") != seed:
        return 10
    return sum(1 for cid in range(1, 11) if cid not in passed)
