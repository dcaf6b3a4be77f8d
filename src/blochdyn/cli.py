"""Scenario-driven command line: runs named experiments from strict JSON
scenario files and writes plot-ready CSV/JSON into an output directory.

Exit codes: 0 success, 2 configuration error, 3 physics error during a run,
4 validation failure. Outputs are deterministic: floats use %.17g in CSV and
repr round-tripping in JSON, so identical scenarios give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import CRITERIA, run_all
from .central_equation import band_sweep
from .conduction import (
    BandFilling,
    classify,
    fractional_displacement,
    solenoid_shift,
    velocity_sum,
)
from .errors import ConfigError, PhysicsError
from .potential import FourierPotential
from .quantum import adiabatic_diagnostics, gaussian_packet, integrate_basis, split_step_free
from .semiclassical import compare_fundamental_lorentz, evolve_fundamental, evolve_lorentz
from .units import UnitSystem

_FLOAT = "%.17g"


# --------------------------------------------------------------------------
# strict scenario parsing


def _reject_constant(token: str):
    raise ConfigError(f"non-finite number {token!r} not allowed in scenarios")


def load_scenario(path: str | Path) -> dict:
    """Parse a scenario file; any syntax error is reported with line/column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario must be a JSON object")
    if data.get("version") != 1:
        raise ConfigError(f"{path}: scenario must declare \"version\": 1")
    return data


def _take(block: dict, key: str, kind: str, path: str, required: bool = True,
          default=None):
    if key not in block:
        if required:
            raise ConfigError(f"missing key {path}.{key}")
        return default
    val = block.pop(key)
    if kind == "num":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{path}.{key} must be a number, got {val!r}")
        return float(val)
    if kind == "int":
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key} must be an integer, got {val!r}")
        return val
    if kind == "str":
        if not isinstance(val, str):
            raise ConfigError(f"{path}.{key} must be a string, got {val!r}")
        return val
    if kind == "bool":
        if not isinstance(val, bool):
            raise ConfigError(f"{path}.{key} must be a boolean, got {val!r}")
        return val
    if kind == "vec2":
        if (not isinstance(val, list) or len(val) != 2
                or any(isinstance(c, bool) or not isinstance(c, (int, float))
                       for c in val)):
            raise ConfigError(f"{path}.{key} must be a list of two numbers, got {val!r}")
        return [float(c) for c in val]
    if kind == "list":
        if not isinstance(val, list):
            raise ConfigError(f"{path}.{key} must be a list, got {val!r}")
        return val
    raise AssertionError(kind)


def _close(block: dict, path: str):
    if block:
        raise ConfigError(f"unknown key {path}.{sorted(block)[0]}")


def _block(scn: dict, name: str, required: bool = True) -> dict:
    if name not in scn:
        if required:
            raise ConfigError(f"missing block \"{name}\"")
        return {}
    val = scn.pop(name)
    if not isinstance(val, dict):
        raise ConfigError(f"block \"{name}\" must be a JSON object")
    return val


def _parse_header(scn: dict) -> str:
    scn.pop("version")
    name = _take(scn, "name", "str", "scenario")
    return name


def _parse_units(scn: dict) -> UnitSystem:
    block = _block(scn, "units")
    a_ref = _take(block, "a_ref_m", "num", "units")
    _close(block, "units")
    return UnitSystem(a_ref)


def _parse_potential(scn: dict, units: UnitSystem) -> FourierPotential:
    block = _block(scn, "potential")
    a = _take(block, "a_internal", "num", "potential")
    triples_ev = _take(block, "coefficients_eV", "list", "potential", required=False)
    triples_int = _take(block, "coefficients_internal", "list", "potential",
                        required=False)
    _close(block, "potential")
    if (triples_ev is None) == (triples_int is None):
        raise ConfigError(
            "potential needs exactly one of coefficients_eV / coefficients_internal")
    triples = triples_ev if triples_ev is not None else triples_int
    scale = 1.0 / units.energy_eV if triples_ev is not None else 1.0
    coeffs = {}
    for i, item in enumerate(triples):
        if (not isinstance(item, list) or len(item) != 3
                or isinstance(item[0], bool) or not isinstance(item[0], int)
                or any(isinstance(c, bool) or not isinstance(c, (int, float))
                       for c in item[1:])):
            raise ConfigError(
                f"potential coefficient {i} must be [l, re, im] with integer l")
        l, re, im = item
        if l in coeffs:
            raise ConfigError(f"duplicate potential coefficient l={l}")
        coeffs[l] = complex(re, im) * scale
    return FourierPotential(a, coeffs)


def _parse_E_scalar(block: dict, units: UnitSystem, path: str,
                    required: bool = True) -> float | None:
    e_int = _take(block, "E_internal", "num", path, required=False)
    e_si = _take(block, "E_V_per_m", "num", path, required=False)
    if e_int is not None and e_si is not None:
        raise ConfigError(f"{path}: give E_internal or E_V_per_m, not both")
    if e_int is None and e_si is None:
        if required:
            raise ConfigError(f"{path}: one of E_internal / E_V_per_m is required")
        return None
    return e_int if e_int is not None else units.to_internal(e_si, "electric_field")


def _parse_B(block: dict, units: UnitSystem, path: str) -> float:
    b_int = _take(block, "B_internal", "num", path, required=False)
    b_si = _take(block, "B_tesla", "num", path, required=False)
    if (b_int is None) == (b_si is None):
        raise ConfigError(f"{path}: give exactly one of B_internal / B_tesla")
    return b_int if b_int is not None else units.to_internal(b_si, "magnetic_field")


# --------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header_comment: str, columns: list[str],
               rows) -> None:
    lines = [f"# {header_comment}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_FLOAT % v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


# --------------------------------------------------------------------------
# subcommands


def _run_bands(scn: dict, units: UnitSystem, out: Path) -> int:
    pot = _parse_potential(scn, units)
    block = _block(scn, "sweep")
    n = _take(block, "n_waves", "int", "sweep")
    k_points = _take(block, "k_points", "int", "sweep")
    n_bands = _take(block, "n_bands", "int", "sweep")
    _close(block, "sweep")
    _close(scn, "scenario")

    rows = band_sweep(pot, n, k_points, n_bands, units.energy_eV,
                      units.factor("velocity"))
    _write_csv(out / "bands.csv", "band sweep over the reduced zone",
               ["k", "band", "energy_eV", "v_g_SI", "m_star_ratio"], rows)
    return 0


def _run_wavepacket(scn: dict, units: UnitSystem, out: Path) -> int:
    block = _block(scn, "field")
    e_field = _parse_E_scalar(block, units, "field")
    _close(block, "field")
    dyn = _block(scn, "dynamics")
    domain = _take(dyn, "domain_internal", "num", "dynamics")
    n_grid = _take(dyn, "grid_points", "int", "dynamics")
    x0 = _take(dyn, "x0_internal", "num", "dynamics")
    k0 = _take(dyn, "k0_internal", "num", "dynamics")
    sigma = _take(dyn, "sigma_internal", "num", "dynamics")
    horizon = _take(dyn, "T_internal", "num", "dynamics")
    dt = _take(dyn, "dt_internal", "num", "dynamics")
    _close(dyn, "dynamics")
    outb = _block(scn, "output", required=False)
    stride = _take(outb, "sample_stride", "int", "output", required=False, default=1)
    _close(outb, "output")
    _close(scn, "scenario")

    psi0 = gaussian_packet(domain, n_grid, x0=x0, k0=k0, sigma=sigma)
    res = split_step_free(psi0, e_field, horizon, dt, sample_stride=stride)
    rows = zip(res.times, res.x_mean, res.k_mean, res.sigma_x, res.norms)
    _write_csv(out / "wavepacket.csv", "split-step packet moments",
               ["t", "x_mean", "k_mean", "sigma_x", "norm"], rows)
    return 0


def _parse_planar(scn: dict, units: UnitSystem):
    block = _block(scn, "field")
    ex_ey = _take(block, "E_internal", "vec2", "field", required=False,
                  default=[0.0, 0.0])
    b_field = _parse_B(block, units, "field")
    _close(block, "field")
    dyn = _block(scn, "dynamics")
    k0 = _take(dyn, "k0_internal", "vec2", "dynamics")
    x0 = _take(dyn, "x0_internal", "vec2", "dynamics")
    horizon = _take(dyn, "T_internal", "num", "dynamics")
    dt = _take(dyn, "dt_internal", "num", "dynamics")
    tag = _take(dyn, "equation", "str", "dynamics", required=False, default=None)
    _close(dyn, "dynamics")
    return ex_ey, b_field, k0, x0, horizon, dt, tag


def _trajectory_rows(traj):
    radius = np.linalg.norm(traj.x, axis=1)
    return zip(traj.times, traj.k[:, 0], traj.k[:, 1], traj.x[:, 0],
               traj.x[:, 1], traj.v_g[:, 0], traj.v_g[:, 1], radius)


def _run_cyclotron(scn: dict, units: UnitSystem, out: Path) -> int:
    e_vec, b_field, k0, x0, horizon, dt, tag = _parse_planar(scn, units)
    _close(scn, "scenario")
    if tag is None:
        raise ConfigError("dynamics.equation is required (fundamental or lorentz)")
    if tag == "fundamental":
        traj = evolve_fundamental(k0, x0, e_vec, b_field, horizon, dt)
    elif tag == "lorentz":
        traj = evolve_lorentz(k0, x0, e_vec, b_field, horizon, dt)
    else:
        raise ConfigError(f"unknown dynamics.equation {tag!r}")
    _write_csv(out / "trajectory.csv", f"equation: {traj.equation_tag}",
               ["t", "kx", "ky", "x", "y", "vx", "vy", "radius"],
               _trajectory_rows(traj))
    return 0


def _run_compare_eom(scn: dict, units: UnitSystem, out: Path) -> int:
    e_vec, b_field, k0, x0, horizon, dt, tag = _parse_planar(scn, units)
    _close(scn, "scenario")
    if tag is not None:
        raise ConfigError("compare-eom runs both equations; drop dynamics.equation")
    rep = compare_fundamental_lorentz(k0, x0, e_vec, b_field, horizon, dt)
    f, lz = rep.fundamental, rep.lorentz
    dx = np.linalg.norm(f.x - lz.x, axis=1)
    dv = np.linalg.norm(f.v_g - lz.v_g, axis=1)
    rows = zip(f.times, f.x[:, 0], f.x[:, 1], lz.x[:, 0], lz.x[:, 1],
               f.v_g[:, 0], f.v_g[:, 1], lz.v_g[:, 0], lz.v_g[:, 1], dx, dv)
    _write_csv(out / "compare.csv", "equations: FUNDAMENTAL vs LORENTZ",
               ["t", "x_fund", "y_fund", "x_lor", "y_lor", "vx_fund", "vy_fund",
                "vx_lor", "vy_lor", "dx_norm", "dv_norm"], rows)
    _write_json(out / "compare.json", {
        "version": 1,
        "max_position_divergence": rep.max_position_divergence,
        "max_velocity_divergence": rep.max_velocity_divergence,
    })
    return 0


def _run_adiabatic(scn: dict, units: UnitSystem, out: Path) -> int:
    pot = _parse_potential(scn, units)
    block = _block(scn, "field")
    e_field = _parse_E_scalar(block, units, "field")
    _close(block, "field")
    dyn = _block(scn, "dynamics")
    mode = _take(dyn, "mode", "str", "dynamics")
    k0 = _take(dyn, "k0_internal", "num", "dynamics")
    n = _take(dyn, "n_waves", "int", "dynamics")
    ev = units.energy_eV

    if mode == "probe":
        t_probe = _take(dyn, "t_probe_internal", "num", "dynamics")
        _close(dyn, "dynamics")
        _close(scn, "scenario")
        rep = adiabatic_diagnostics(k0, pot, n, e_field, t_probe)
        _write_json(out / "adiabatic.json", {
            "version": 1,
            "t_internal": t_probe,
            "gap_eV": rep.gap[0] * ev,
            "hdot_norm_eV": rep.hdot_norm[0] * ev,
            "omega_bar_star_eV": rep.omega_bar_star[0] * ev,
            "bound_rhs_eV": rep.bound_rhs[0] * ev,
            "comm_norm_eV": rep.comm_norm[0] * ev,
            "chain_holds": rep.chain_holds(),
        })
        return 0
    if mode == "sweep":
        horizon = _take(dyn, "T_internal", "num", "dynamics")
        dt = _take(dyn, "dt_internal", "num", "dynamics")
        _close(dyn, "dynamics")
        outb = _block(scn, "output", required=False)
        stride = _take(outb, "sample_stride", "int", "output", required=False,
                       default=1)
        _close(outb, "output")
        _close(scn, "scenario")
        state, rep = integrate_basis(k0, pot, n, e_field, horizon, dt,
                                     report_stride=stride)
        rows = zip(rep.t, rep.gap * ev, rep.hdot_norm * ev,
                   rep.omega_bar_star * ev, rep.bound_rhs * ev, rep.fidelity,
                   rep.comm_norm * ev)
        _write_csv(out / "adiabatic.csv", "eigenframe diagnostics along the sweep",
                   ["t", "gap_eV", "hdot_norm_eV", "omega_bar_star_eV",
                    "bound_rhs_eV", "fidelity", "comm_norm_eV"], rows)
        return 0
    raise ConfigError(f"dynamics.mode must be \"sweep\" or \"probe\", got {mode!r}")


def _run_conduction(scn: dict, units: UnitSystem, out: Path) -> int:
    pot = _parse_potential(scn, units)
    dyn = _block(scn, "dynamics")
    band = _take(dyn, "band", "int", "dynamics")
    n_k = _take(dyn, "n_k", "int", "dynamics")
    n = _take(dyn, "n_waves", "int", "dynamics")
    shift = _take(dyn, "shift_internal", "num", "dynamics")
    fractions = _take(dyn, "fractions", "list", "dynamics")
    _close(dyn, "dynamics")
    _close(scn, "scenario")
    if not fractions or any(isinstance(f, bool) or not isinstance(f, (int, float))
                            for f in fractions):
        raise ConfigError("dynamics.fractions must be a non-empty list of numbers")

    entries = []
    for frac in fractions:
        base = BandFilling(band=band, n_k=n_k, fraction=float(frac))
        shifted = BandFilling(band=band, n_k=n_k, fraction=float(frac), shift=shift)
        entries.append({
            "fraction": float(frac),
            "velocity_sum_unshifted": velocity_sum(base, pot, n),
            "velocity_sum_shifted": velocity_sum(shifted, pot, n),
            "classification": classify(base, pot, n),
        })
    _write_json(out / "conduction.json", {
        "version": 1,
        "band": band,
        "n_k": n_k,
        "shift_internal": shift,
        "fillings": entries,
    })
    return 0


def _run_solenoid(scn: dict, units: UnitSystem, out: Path) -> int:
    block = _block(scn, "solenoid")
    turns = _take(block, "turns_per_m", "num", "solenoid")
    current = _take(block, "current_A", "num", "solenoid")
    area = _take(block, "area_m2", "num", "solenoid")
    radius = _take(block, "radius_m", "num", "solenoid")
    k0 = _take(block, "k0_per_m", "num", "solenoid")
    reference = _take(block, "reference_shift_per_m", "num", "solenoid",
                      required=False)
    _close(block, "solenoid")
    _close(scn, "scenario")

    shift = solenoid_shift(turns, current, area, radius)
    payload = {
        "version": 1,
        "shift_per_m": shift,
        "k0_per_m": k0,
        "fractional_displacement": fractional_displacement(k0, shift),
    }
    if reference is not None:
        payload["reference_shift_per_m"] = reference
        payload["reference_fractional_displacement"] = fractional_displacement(
            k0, reference)
    _write_json(out / "solenoid.json", payload)
    return 0


def _run_validate(out: Path, seed: int, only: list[int] | None) -> int:
    results = run_all(seed=seed, only=only)
    if not results:
        raise ConfigError(f"--only selected no known criterion (valid: 1..{len(CRITERIA)})")
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.cid}: {r.name}")
        print(f"       {r.detail}")
    _write_json(out / "validate.json", {
        "version": 1,
        "seed": seed,
        "results": [{"cid": r.cid, "name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results],
    })
    return 0 if all(r.passed for r in results) else 4


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochdyn",
        description="Band-structure and field-driven electron dynamics toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    needs_scenario = ("bands", "wavepacket", "cyclotron", "compare-eom",
                      "adiabatic", "conduction", "solenoid")
    helps = {
        "bands": "band energies, velocities and mass ratios over the zone",
        "wavepacket": "split-step packet moments under a uniform field",
        "cyclotron": "planar orbit under E and B (fundamental or lorentz)",
        "compare-eom": "run both planar equations and report their divergence",
        "adiabatic": "eigenframe diagnostics: single probe or full sweep",
        "conduction": "velocity sums and classification for band fillings",
        "solenoid": "vector-potential momentum kick of a threaded loop",
    }
    for name in needs_scenario:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("validate", help="run the acceptance suite")
    v.add_argument("--out", required=True, help="output directory")
    v.add_argument("--seed", type=int, default=12345,
                   help="seed for the randomized-property criteria")
    v.add_argument("--only", default=None,
                   help="comma-separated criterion ids to run (default: all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "validate":
            only = None
            if args.only is not None:
                try:
                    only = [int(tok) for tok in args.only.split(",") if tok.strip()]
                except ValueError:
                    raise ConfigError(f"--only must be comma-separated integers, "
                                      f"got {args.only!r}") from None
            return _run_validate(out, args.seed, only)

        scn = load_scenario(args.scenario)
        _parse_header(scn)
        units = _parse_units(scn)
        if args.command == "bands":
            return _run_bands(scn, units, out)
        if args.command == "wavepacket":
            return _run_wavepacket(scn, units, out)
        if args.command == "cyclotron":
            return _run_cyclotron(scn, units, out)
        if args.command == "compare-eom":
            return _run_compare_eom(scn, units, out)
        if args.command == "adiabatic":
            return _run_adiabatic(scn, units, out)
        if args.command == "conduction":
            return _run_conduction(scn, units, out)
        if args.command == "solenoid":
            return _run_solenoid(scn, units, out)
        raise AssertionError(args.command)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
