"""Scenario-driven command line: runs named experiments from strict JSON
scenario files and writes plot-ready CSV/JSON into an output directory.

Exit codes: 0 success, 2 bad input (ConfigError, or OSError on a file), 3
physics error during a run, 4 validation failure. Outputs are deterministic: floats use %.17g in CSV and
repr round-tripping in JSON, so identical scenarios give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import CRITERIA, run_all
from .central_equation import band_sweep
from .conduction import BandFilling, _sums_and_labels, fractional_displacement, solenoid_shift
from .errors import ConfigError, PhysicsError
from .potential import FourierPotential
from .quantum import adiabatic_diagnostics, gaussian_packet, integrate_basis, split_step_free
from .semiclassical import compare_fundamental_lorentz, evolve_fundamental, evolve_lorentz
from .units import UnitSystem

_FLOAT = "%.17g"


# --------------------------------------------------------------------------
# scenario schema
#
# A schema maps each key of a block to its kind; a kind that is a dict is a
# nested block. A trailing "?" marks an optional block or key. A key written
# as a tuple is a unit choice: exactly one of its names must appear, and the
# value, converted to internal units, is returned under the first name.


def _is_num(v) -> bool:
    # the bound also rejects 1e400, which JSON reads as inf, and ints past float range
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# kind -> (test, what a value of that kind is)
_KINDS = {
    "num": (_is_num, "a finite number"),
    "int": (_is_int, "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "vec2": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_num, v)),
             "a list of two numbers"),
    "nums": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_num, v)),
             "a non-empty list of numbers"),
    "triples": (lambda v: isinstance(v, list) and all(
                    isinstance(t, list) and len(t) == 3 and _is_int(t[0])
                    and all(map(_is_num, t[1:])) for t in v),
                "a list of [l, re, im] with integer l"),
}

# SI name of a scalar unit choice -> the dimension tag it converts from
_SI_TAGS = {"E_V_per_m": "electric_field", "B_tesla": "magnetic_field"}

# keys every scenario carries; "version" is checked by load_scenario
HEADER = {"version": "int", "name": "str", "units": {"a_ref_m": "num"}}

_POTENTIAL = {"a_internal": "num", ("coefficients_internal", "coefficients_eV"): "triples"}
_SCALAR_FIELD = {("E_internal", "E_V_per_m"): "num"}
_PLANAR_FIELD = {"E_internal?": "vec2", ("B_internal", "B_tesla"): "num"}
_PLANAR_DYNAMICS = {"k0_internal": "vec2", "x0_internal": "vec2",
                    "T_internal": "num", "dt_internal": "num"}
_OUTPUT = {"sample_stride?": "int"}
_MODES = ("probe", "sweep")
_ADIABATIC = {"mode": _MODES, "k0_internal": "num", "n_waves": "int"}

# subcommand, or (subcommand, dynamics.mode) for adiabatic -> block -> key -> kind
SCHEMAS = {
    "bands": {
        "potential": _POTENTIAL,
        "sweep": {"n_waves": "int", "k_points": "int", "n_bands": "int"},
    },
    "wavepacket": {
        "field": _SCALAR_FIELD,
        "dynamics": {"domain_internal": "num", "grid_points": "int",
                     "x0_internal": "num", "k0_internal": "num",
                     "sigma_internal": "num", "T_internal": "num",
                     "dt_internal": "num"},
        "output?": _OUTPUT,
    },
    "cyclotron": {
        "field": _PLANAR_FIELD,
        "dynamics": {"equation": ("fundamental", "lorentz"), **_PLANAR_DYNAMICS},
    },
    "compare-eom": {"field": _PLANAR_FIELD, "dynamics": _PLANAR_DYNAMICS},
    ("adiabatic", "probe"): {
        "potential": _POTENTIAL,
        "field": _SCALAR_FIELD,
        "dynamics": {**_ADIABATIC, "t_probe_internal": "num"},
    },
    ("adiabatic", "sweep"): {
        "potential": _POTENTIAL,
        "field": _SCALAR_FIELD,
        "dynamics": {**_ADIABATIC, "T_internal": "num", "dt_internal": "num"},
        "output?": _OUTPUT,
    },
    "conduction": {
        "potential": _POTENTIAL,
        "dynamics": {"band": "int", "n_k": "int", "n_waves": "int",
                     "shift_internal": "num", "fractions": "nums"},
    },
    "solenoid": {
        "solenoid": {"turns_per_m": "num", "current_A": "num", "area_m2": "num",
                     "radius_m": "num", "k0_per_m": "num",
                     "reference_shift_per_m?": "num"},
    },
}


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


def _value(val, kind, path: str, si_name: str | None, units: UnitSystem | None):
    """One checked value; an enumeration kind is a tuple of allowed strings."""
    if isinstance(kind, tuple):
        test, what = (lambda v: isinstance(v, str) and v in kind), f"one of {kind}"
    else:
        test, what = _KINDS[kind]
    if not test(val):
        raise ConfigError(f"{path} must be {what}, got {val!r}")
    if kind == "num":
        return float(val) if si_name is None else units.to_internal(float(val),
                                                                   _SI_TAGS[si_name])
    if kind in ("vec2", "nums"):
        return [float(c) for c in val]
    if kind == "triples":
        # eV coefficients take the reciprocal factor, internal ones a factor 1.0
        scale = 1.0 if si_name is None else 1.0 / units.energy_eV
        coeffs = {}
        for l, re, im in val:
            if l in coeffs:
                raise ConfigError(f"{path} repeats l={l}")
            coeffs[l] = complex(re, im) * scale
        return coeffs
    return val


def parse_scenario(scn: dict, schema: dict, units: UnitSystem | None) -> dict:
    """Values of ``scn`` checked against ``schema``, in internal units.

    Rejects unknown and missing keys, wrong kinds and incomplete unit
    choices with ConfigError. An absent optional key is left out of the
    result; an absent optional block reads as empty.
    """
    return _parse(scn, schema, units, "")


def _parse(scn, schema: dict, units: UnitSystem | None, path: str) -> dict:
    if not isinstance(scn, dict):
        raise ConfigError(f"block {path} must be a JSON object, got {scn!r}")
    at = lambda name: f"{path}.{name}" if path else name
    choices = {key: tuple(n.rstrip("?") for n in (key if isinstance(key, tuple) else (key,)))
               for key in schema}
    unknown = sorted(set(scn) - {name for names in choices.values() for name in names})
    if unknown:
        raise ConfigError(f"unknown key {at(unknown[0])}")
    out = {}
    for key, kind in schema.items():
        names = choices[key]
        given = [name for name in names if name in scn]
        if isinstance(key, tuple) and len(given) != 1:
            raise ConfigError(f"{path}: give exactly one of {' / '.join(names)}")
        if not given:
            if not key.endswith("?"):
                raise ConfigError(f"missing key {at(names[0])}")
            if isinstance(kind, dict):
                out[names[0]] = {}
            continue
        name = given[0]
        if isinstance(kind, dict):
            out[name] = _parse(scn[name], kind, units, at(name))
        else:
            out[names[0]] = _value(scn[name], kind, at(name),
                                   None if name == names[0] else name, units)
    return out


def _schema(command: str, scn: dict) -> dict:
    """The SCHEMAS entry of a run; adiabatic's is picked by dynamics.mode."""
    if command in SCHEMAS:
        return SCHEMAS[command]
    dyn = scn.get("dynamics")
    mode = dyn.get("mode") if isinstance(dyn, dict) else None
    # a missing or unknown mode fails the enumeration in the first entry
    return SCHEMAS[command, mode if mode in _MODES else _MODES[0]]


# --------------------------------------------------------------------------
# output helpers: --out is created on the first write, so a run rejected
# before any output leaves no directory behind


def _write_csv(path: Path, header_comment: str, columns: list[str], rows) -> None:
    lines = [f"# {header_comment}", ",".join(columns)]
    fmt = ",".join([_FLOAT] * len(columns))
    for row in rows:
        lines.append(fmt % tuple(row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


# --------------------------------------------------------------------------
# subcommands: each takes the parsed scenario, the unit system and --out


def _potential(scn: dict) -> FourierPotential:
    return FourierPotential(scn["potential"]["a_internal"],
                            scn["potential"]["coefficients_internal"])


def _run_bands(scn: dict, units: UnitSystem, out: Path) -> int:
    sweep = scn["sweep"]
    rows = band_sweep(_potential(scn), sweep["n_waves"], sweep["k_points"],
                      sweep["n_bands"], units.energy_eV, units.factor("velocity"))
    _write_csv(out / "bands.csv", "band sweep over the reduced zone",
               ["k", "band", "energy_eV", "v_g_SI", "m_star_ratio"], rows)
    return 0


def _run_wavepacket(scn: dict, units: UnitSystem, out: Path) -> int:
    dyn = scn["dynamics"]
    psi0 = gaussian_packet(dyn["domain_internal"], dyn["grid_points"],
                           x0=dyn["x0_internal"], k0=dyn["k0_internal"],
                           sigma=dyn["sigma_internal"])
    res = split_step_free(psi0, scn["field"]["E_internal"], dyn["T_internal"],
                          dyn["dt_internal"],
                          sample_stride=scn["output"].get("sample_stride", 1))
    rows = zip(res.times, res.x_mean, res.k_mean, res.sigma_x, res.norms)
    _write_csv(out / "wavepacket.csv", "split-step packet moments",
               ["t", "x_mean", "k_mean", "sigma_x", "norm"], rows)
    return 0


def _planar(scn: dict, evolve):
    field, dyn = scn["field"], scn["dynamics"]
    return evolve(dyn["k0_internal"], dyn["x0_internal"],
                  field.get("E_internal", [0.0, 0.0]), field["B_internal"],
                  dyn["T_internal"], dyn["dt_internal"])


def _run_cyclotron(scn: dict, units: UnitSystem, out: Path) -> int:
    evolve = {"fundamental": evolve_fundamental,
              "lorentz": evolve_lorentz}[scn["dynamics"]["equation"]]
    traj = _planar(scn, evolve)
    rows = zip(traj.times, traj.k[:, 0], traj.k[:, 1], traj.x[:, 0], traj.x[:, 1],
               traj.v_g[:, 0], traj.v_g[:, 1], np.linalg.norm(traj.x, axis=1))
    _write_csv(out / "trajectory.csv", f"equation: {traj.equation_tag}",
               ["t", "kx", "ky", "x", "y", "vx", "vy", "radius"], rows)
    return 0


def _run_compare_eom(scn: dict, units: UnitSystem, out: Path) -> int:
    rep = _planar(scn, compare_fundamental_lorentz)
    f, lz = rep.fundamental, rep.lorentz
    dx = np.linalg.norm(f.x - lz.x, axis=1)
    dv = np.linalg.norm(f.v_g - lz.v_g, axis=1)
    rows = zip(f.times, f.x[:, 0], f.x[:, 1], lz.x[:, 0], lz.x[:, 1],
               f.v_g[:, 0], f.v_g[:, 1], lz.v_g[:, 0], lz.v_g[:, 1], dx, dv)
    _write_csv(out / "compare.csv", "equations: FUNDAMENTAL vs LORENTZ",
               ["t", "x_fund", "y_fund", "x_lor", "y_lor", "vx_fund", "vy_fund",
                "vx_lor", "vy_lor", "dx_norm", "dv_norm"], rows)
    _write_json(out / "compare.json", {
        "version": 1, "max_position_divergence": rep.max_position_divergence,
        "max_velocity_divergence": rep.max_velocity_divergence})
    return 0


def _run_adiabatic(scn: dict, units: UnitSystem, out: Path) -> int:
    pot, e_field, dyn = _potential(scn), scn["field"]["E_internal"], scn["dynamics"]
    ev = units.energy_eV
    if dyn["mode"] == "probe":
        t_probe = dyn["t_probe_internal"]
        rep = adiabatic_diagnostics(dyn["k0_internal"], pot, dyn["n_waves"], e_field,
                                    t_probe)
        _write_json(out / "adiabatic.json", {
            "version": 1, "t_internal": t_probe,
            **{f"{name}_eV": getattr(rep, name)[0] * ev for name in
               ("gap", "hdot_norm", "omega_bar_star", "bound_rhs", "comm_norm")},
            "chain_holds": rep.chain_holds(),
        })
        return 0
    _, rep = integrate_basis(dyn["k0_internal"], pot, dyn["n_waves"], e_field,
                             dyn["T_internal"], dyn["dt_internal"],
                             report_stride=scn["output"].get("sample_stride", 1))
    rows = zip(rep.t, rep.gap * ev, rep.hdot_norm * ev,
               rep.omega_bar_star * ev, rep.bound_rhs * ev, rep.fidelity,
               rep.comm_norm * ev)
    _write_csv(out / "adiabatic.csv", "eigenframe diagnostics along the sweep",
               ["t", "gap_eV", "hdot_norm_eV", "omega_bar_star_eV",
                "bound_rhs_eV", "fidelity", "comm_norm_eV"], rows)
    return 0


def _run_conduction(scn: dict, units: UnitSystem, out: Path) -> int:
    pot, dyn = _potential(scn), scn["dynamics"]
    band, n_k, n, shift = dyn["band"], dyn["n_k"], dyn["n_waves"], dyn["shift_internal"]
    fractions = dyn["fractions"]
    grid = BandFilling(band=band, n_k=n_k, fraction=0.0, a=pot.a)
    unshifted = _sums_and_labels(grid, pot, n, fractions)
    shifted = _sums_and_labels(replace(grid, shift=shift), pot, n, fractions)
    entries = [{"fraction": frac, "velocity_sum_unshifted": base,
                "velocity_sum_shifted": moved, "classification": label}
               for frac, (base, label, _), (moved, _, _) in zip(fractions, unshifted, shifted)]
    _write_json(out / "conduction.json", {"version": 1, "band": band, "n_k": n_k,
                                          "shift_internal": shift, "fillings": entries})
    return 0


def _run_solenoid(scn: dict, units: UnitSystem, out: Path) -> int:
    block = scn["solenoid"]
    k0, reference = block["k0_per_m"], block.get("reference_shift_per_m")
    shift = solenoid_shift(block["turns_per_m"], block["current_A"],
                           block["area_m2"], block["radius_m"])
    payload = {"version": 1, "shift_per_m": shift, "k0_per_m": k0,
               "fractional_displacement": fractional_displacement(k0, shift)}
    if reference is not None:
        payload.update(reference_shift_per_m=reference,
                       reference_fractional_displacement=fractional_displacement(k0, reference))
    _write_json(out / "solenoid.json", payload)
    return 0


def _run_validate(out: Path, seed: int, only: str | None) -> int:
    if seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {seed}")
    try:
        ids = None if only is None else [int(tok) for tok in only.split(",")
                                         if tok.strip()]
    except ValueError:
        raise ConfigError(f"--only must be comma-separated integers, got {only!r}") from None
    unknown = sorted(set(ids or ()) - {cid for cid, _, _ in CRITERIA})
    if unknown:
        raise ConfigError(f"--only names unknown criteria {unknown} (valid: 1..{len(CRITERIA)})")
    results = run_all(seed=seed, only=ids)
    if not results:
        raise ConfigError(f"--only selected no criterion (valid: 1..{len(CRITERIA)})")
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

# scenario subcommand -> (help, runner); the runner reads what SCHEMAS admits
COMMANDS = {
    "bands": ("band energies, velocities and mass ratios over the zone", _run_bands),
    "wavepacket": ("split-step packet moments under a uniform field", _run_wavepacket),
    "cyclotron": ("planar orbit under E and B (fundamental or lorentz)", _run_cyclotron),
    "compare-eom": ("run both planar equations and report their divergence",
                    _run_compare_eom),
    "adiabatic": ("eigenframe diagnostics: single probe or full sweep", _run_adiabatic),
    "conduction": ("velocity sums and classification for band fillings",
                   _run_conduction),
    "solenoid": ("vector-potential momentum kick of a threaded loop", _run_solenoid),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochdyn",
        description="Band-structure and field-driven electron dynamics toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("validate", help="run the acceptance suite")
    v.add_argument("--out", required=True, help="output directory")
    v.add_argument("--seed", type=int, default=12345,
                   help="nonnegative seed for the randomized-property criteria")
    v.add_argument("--only", default=None,
                   help="comma-separated criterion ids to run (default: all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        if args.command == "validate":
            return _run_validate(out, args.seed, args.only)
        scn = load_scenario(args.scenario)
        units = UnitSystem(_parse(scn.get("units"), HEADER["units"], None, "units")["a_ref_m"])
        values = parse_scenario(scn, {**HEADER, **_schema(args.command, scn)}, units)
        return COMMANDS[args.command][1](values, units, out)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
