"""Check the behaviour contract against a git revision: byte-identical outputs.

Usage: python tools/contract.py <rev>

Checks <rev> out into a temporary git worktree (local git only) and runs that
tree and this working tree on the same inputs, each run a fresh
``python -W error -m blochdyn`` process with one BLAS thread:

- the 8 shipped scenarios, from this tree's scenarios/;
- ``validate`` at --seed 12345, 1 and 7;
- the bands and conduction scenarios of band-sweep seeds 1-5, drawn by
  bench/workloads.py, which is imported and only read;
- a ragged sweep: adiabatic_sweep.json at 5003 steps and sample_stride 997,
  so the last eigensolve block is partial and no sample falls on a block
  edge, which no shipped run (65 536 steps, stride 1024) reaches.

It then compares every output file, stdout and the exit code. Where bytes
differ, it prints each changed CSV column, JSON key or stdout line with its
largest absolute and relative difference; numbers inside text (validate's
details, stdout) are compared token by token. Exit status: 0 when every byte
matches and every run exits 0, 1 otherwise, 2 when <rev> is not a commit.
``python tools/contract.py HEAD`` runs one tree twice, a determinism check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHIPPED = (
    ("adiabatic", "adiabatic_si_probe"), ("adiabatic", "adiabatic_sweep"),
    ("bands", "bands_weak_cosine"), ("compare-eom", "compare_eom"),
    ("conduction", "conduction_fillings"), ("cyclotron", "cyclotron"),
    ("solenoid", "solenoid_reference"), ("wavepacket", "wavepacket_free"),
)
VALIDATE_SEEDS = (12345, 1, 7)
BAND_SWEEP_SEEDS = (1, 2, 3, 4, 5)
RAGGED_STEPS, RAGGED_STRIDE = 5003, 997

# a decimal number as the CLI prints it, inside text
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def runs(inputs: Path) -> list[tuple[str, list[str]]]:
    """(name, blochdyn argv without --out) of every run; generated scenarios go to inputs."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True      # bench/ is read, never written
    import workloads

    out = [(stem, [cmd, "--scenario", str(ROOT / "scenarios" / f"{stem}.json")])
           for cmd, stem in SHIPPED]
    out += [(f"validate-{seed}", ["validate", "--seed", str(seed)]) for seed in VALIDATE_SEEDS]
    for seed in BAND_SWEEP_SEEDS:
        for file, text in workloads.band_sweep_scenarios(seed).items():
            path = inputs / f"band-sweep-{seed}-{file}"
            path.write_text(text)
            out.append((path.stem, [Path(file).stem, "--scenario", str(path)]))
    ragged = json.loads((ROOT / "scenarios" / "adiabatic_sweep.json").read_text())
    ragged["dynamics"]["dt_internal"] = ragged["dynamics"]["T_internal"] / RAGGED_STEPS
    ragged["output"]["sample_stride"] = RAGGED_STRIDE
    path = inputs / "adiabatic-sweep-ragged.json"
    path.write_text(json.dumps(ragged, indent=2))
    out.append((path.stem, ["adiabatic", "--scenario", str(path)]))
    return out


def run_tree(tree: Path, side: Path, plan) -> dict[str, tuple[int, str, str]]:
    """Run every planned argv on tree's src/, outputs under side/<name>/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    side.mkdir()
    done = {}
    for name, argv in plan:
        # the same relative --out on both sides, so stdout that names it matches
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "blochdyn", *argv,
                               "--out", name], cwd=side, env=env, capture_output=True, text=True)
        done[name] = (proc.returncode, proc.stdout, proc.stderr)
    return done


def _number(value) -> float | None:
    """value as a float when it is a number or a numeric string, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _spread(pairs) -> str:
    """Largest absolute and relative difference over (old, new) float pairs."""
    diffs = [(abs(new - old), abs(new - old) / abs(old) if old else math.inf)
             for old, new in pairs if not (old == new or (math.isnan(old) and math.isnan(new)))]
    if not diffs:
        return f"0 of {len(pairs)} values differ (formatting only)"
    return (f"{len(diffs)} of {len(pairs)} values differ, max abs {max(d for d, _ in diffs):.3e}, "
            f"max rel {max(r for _, r in diffs):.3e}")


def _text_pairs(old: str, new: str):
    """The number pairs of two texts that differ in numbers only, else None."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    return list(zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))))


def _compare_values(label: str, pairs) -> list[str]:
    """One line for a column or key: its (old, new) values, as text or numbers."""
    changed = [(o, n) for o, n in pairs if o != n]
    if not changed:
        return []
    numbers = [(_number(o), _number(n)) for o, n in pairs]
    if all(o is not None and n is not None for o, n in numbers):
        return [f"  {label}: {_spread(numbers)}"]
    if all(isinstance(o, str) and isinstance(n, str) for o, n in changed):
        tokens = [_text_pairs(o, n) for o, n in changed]
        if all(t is not None for t in tokens):
            moved = [(a, b) for t in tokens for a, b in t if a != b]
            shown = ", ".join(f"{a:.6g} -> {b:.6g}" for a, b in moved[:6])
            return [f"  {label}: {len(changed)} of {len(pairs)} texts differ in numbers only, "
                    f"{_spread([p for t in tokens for p in t])} ({shown})"]
    old, new = changed[0]
    return [f"  {label}: {len(changed)} of {len(pairs)} differ, first {old!r} -> {new!r}"]


def _leaves(value, path: str, out: dict):
    """Flatten JSON into {path with list indices as []: [leaf, ...]}, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _leaves(item, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(value)
    return out


def compare_json(old: str, new: str) -> list[str]:
    a, b = _leaves(json.loads(old), "", {}), _leaves(json.loads(new), "", {})
    if list(a) != list(b) or any(len(a[k]) != len(b[k]) for k in a):
        return ["  structure differs (keys or list lengths)"]
    return [line for key in a for line in _compare_values(key, list(zip(a[key], b[key])))]


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    """The '#' comment lines of a CSV text, and its rows, header first."""
    lines = text.splitlines(True)
    return ([l for l in lines if l.startswith("#")],
            list(csv.reader(l for l in lines if not l.startswith("#"))))


def compare_csv(old: str, new: str) -> list[str]:
    (notes_a, rows_a), (notes_b, rows_b) = _csv(old), _csv(new)
    lines = [] if notes_a == notes_b else ["  comment lines differ"]
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return lines + ["  structure differs (header or row count)"]
    for j, column in enumerate(rows_a[0]):
        lines += _compare_values(column, [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])])
    return lines


def compare_text(old: str, new: str) -> list[str]:
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return [f"  {len(a)} lines -> {len(b)} lines"]
    return [line for i, pair in enumerate(zip(a, b), 1)
            for line in _compare_values(f"line {i}", [pair])]


def compare(name: str, base: tuple, head: tuple, base_dir: Path, head_dir: Path) -> list[str]:
    """Report lines for one run; empty when every byte and both exit codes are clean."""
    report = []
    for label, (code, _, err) in (("rev", base), ("tree", head)):
        if code:
            tail = err.strip().splitlines()[-1:] or [""]
            report.append(f"{name}: exit {code} on {label}: {tail[0]}")
    if base[1] != head[1]:
        report += [f"{name}: stdout differs"] + compare_text(base[1], head[1])
    files = sorted({p.relative_to(d) for d in (base_dir, head_dir) if d.is_dir()
                    for p in d.rglob("*") if p.is_file()})
    for rel in files:
        a, b = base_dir / rel, head_dir / rel
        if not (a.is_file() and b.is_file()):
            report.append(f"{name}/{rel}: only on {'tree' if b.is_file() else 'rev'}")
            continue
        old, new = a.read_bytes(), b.read_bytes()
        if old == new:
            continue
        kind = {".json": compare_json, ".csv": compare_csv}.get(rel.suffix, compare_text)
        detail = kind(old.decode(), new.decode())
        report += [f"{name}/{rel}: bytes differ"] + (detail or ["  differs in layout only"])
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                          f"{argv[0]}^{{commit}}"], capture_output=True, text=True)
    if rev.returncode:
        print(f"contract: {argv[0]!r} is not a commit", file=sys.stderr)
        return 2
    sha = rev.stdout.strip()
    with tempfile.TemporaryDirectory(prefix="blochdyn-contract-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(tree), sha], check=True)
        try:
            (tmp / "inputs").mkdir()
            plan = runs(tmp / "inputs")
            base = run_tree(tree, tmp / "base", plan)
            head = run_tree(ROOT, tmp / "head", plan)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        report = [line for name, _ in plan
                  for line in compare(name, base[name], head[name],
                                      tmp / "base" / name, tmp / "head" / name)]
        files = sum(1 for p in (tmp / "head").rglob("*") if p.is_file())
    print(f"contract: {argv[0]} ({sha[:12]}) against the working tree: {len(plan)} runs, "
          f"{files} output files and {len(plan)} stdouts")
    print("\n".join(report) if report else "every output file and stdout byte-identical, "
          "every run exit 0")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
