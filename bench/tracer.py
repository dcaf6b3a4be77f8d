"""In-memory span tracer that wraps blochdyn's public functions from outside.

Every public module-level function of every loaded ``blochdyn`` module is
replaced by a timing wrapper in *every* module namespace that binds it, so a
call is caught whichever name it goes through (``quantum`` and ``conduction``
import ``solve_at`` by name; ``acceptance.CRITERIA`` holds the criterion
functions in a tuple). ``patch`` returns an undo list; ``unpatch`` restores
the original bindings, so untraced runs in the same process pay nothing.

A span is (name, start, end, parent, task id); spans live in flat arrays
until ``save`` writes them out. A span's descendants are exactly the spans
appended while it was open, which makes self time and "calls made inside
span X" two vectorised reductions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

_PACKAGE = "blochdyn"


def _work_band_points(bound, result):
    return bound.arguments["k_points"] * bound.arguments["n_bands"]


def _work_occupied_k(bound, result):
    return bound.arguments["filling"].occupied_count


def _work_basis_steps(bound, result):
    # integrate_basis takes max(1, round(T / dt)) steps
    return max(1, int(round(bound.arguments["T"] / bound.arguments["dt"])))


def _work_rk4_steps(bound, result):
    return len(result.times) - 1


# work counted per call, read from the arguments or the returned value
_WORK = {
    "central_equation.band_sweep": _work_band_points,
    "conduction.velocity_sum": _work_occupied_k,
    "quantum.integrate_basis": _work_basis_steps,
    "semiclassical.evolve_fundamental": _work_rk4_steps,
    "semiclassical.evolve_lorentz": _work_rk4_steps,
    "semiclassical.evolve_general_V": _work_rk4_steps,
    "semiclassical.evolve_periodic_B": _work_rk4_steps,
}

# per-function metrics reported as <name>.calls / .total_s / .self_s
REPORTED = (
    "cli.main", "cli.load_scenario",
    "central_equation.solve_at", "central_equation.build", "central_equation.solve",
    "central_equation.group_velocity", "central_equation.effective_mass",
    "central_equation.band_sweep",
    "conduction.velocity_sum", "conduction.classify",
    "quantum.integrate_basis", "quantum.frame_generator",
    "quantum.adiabatic_diagnostics", "quantum.split_step_free",
    "quantum.grid_ground_state",
    "semiclassical.evolve_fundamental", "semiclassical.evolve_lorentz",
    "semiclassical.evolve_general_V", "semiclassical.evolve_periodic_E",
    "semiclassical.compare_fundamental_lorentz",
)

# (metric, numerator span, enclosing span, base metric)
RATIOS = (
    ("central_equation.solves_per_band_point", "central_equation.solve_at",
     "central_equation.band_sweep", "central_equation.band_points"),
    ("conduction.solves_per_occupied_k", "central_equation.solve_at",
     "conduction.velocity_sum", "conduction.occupied_k"),
    ("quantum.solves_per_basis_step", "central_equation.solve_at",
     "quantum.integrate_basis", "quantum.basis_steps"),
)
_RK4 = tuple(name for name, fn in _WORK.items() if fn is _work_rk4_steps)
N_CRITERIA = 10


class Tracer:
    """Collects spans in flat arrays; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.task = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stop = array("l")      # span count when the span closed
        self.work = array("d")
        self.task_id = 0
        self._stack = [-1]

    def wrap(self, qualname: str, fn):
        nid = self._ids.setdefault(qualname, len(self._ids))
        if nid == len(self.names):
            self.names.append(qualname)
        work = _WORK.get(qualname)
        sig = inspect.signature(fn) if work else None
        clock = time.perf_counter
        stack = self._stack
        name, parent, task = self.name, self.parent, self.task
        start, end, stop, work_arr = self.start, self.end, self.stop, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            task.append(self.task_id)
            start.append(0.0)
            end.append(0.0)
            stop.append(0)
            work_arr.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stop[i] = len(start)
                stack.pop()
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work_arr[i] = work(bound, result)
            return result

        return traced

    def _arrays(self):
        return (np.asarray(self.name, dtype=np.int64), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end),
                np.asarray(self.stop, dtype=np.int64), np.asarray(self.work))

    def summary(self) -> dict[str, float]:
        """Per-function calls / total / self time, work ratios and criterion times."""
        name, parent, start, end, stop, work = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        out: dict[str, float] = {}

        def of(qualname):
            nid = self._ids.get(qualname)
            return np.zeros(0, dtype=np.int64) if nid is None else np.flatnonzero(name == nid)

        for q in REPORTED:
            idx = of(q)
            out[f"{q}.calls"] = int(idx.size)
            out[f"{q}.total_s"] = float(dur[idx].sum())
            out[f"{q}.self_s"] = float(self_t[idx].sum())
        for metric, inner, outer, base in RATIOS:
            # the enclosing spans never nest, so each covers [index, stop)
            outer_idx = of(outer)
            inner_idx = of(inner)
            inside = 0
            if outer_idx.size:
                pos = np.searchsorted(outer_idx, inner_idx, side="right") - 1
                ok = pos >= 0
                inside = int(np.sum(inner_idx[ok] < stop[outer_idx[pos[ok]]]))
            base_val = float(work[outer_idx].sum())
            out[base] = base_val
            out[metric] = inside / base_val if base_val else 0.0
        out["semiclassical.rk4_steps"] = float(sum(work[of(q)].sum() for q in _RK4))
        for n in range(1, N_CRITERIA + 1):
            prefix = f"acceptance.criterion_{n}_"
            total = sum(dur[of(q)].sum() for q in self._ids if q.startswith(prefix))
            out[f"acceptance.criterion_{n}_s"] = float(total)
        return out

    def save(self, path: Path) -> None:
        name, parent, start, end, stop, work = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 task=np.asarray(self.task, dtype=np.int64), start=start, end=end,
                 work=work)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))]


def _swap(obj, wrappers):
    if inspect.isfunction(obj):
        return wrappers.get(id(obj), obj)
    if type(obj) is tuple:
        items = tuple(_swap(o, wrappers) for o in obj)
        return items if any(a is not b for a, b in zip(items, obj)) else obj
    return obj


def patch(tracer: Tracer) -> list:
    """Wrap every public blochdyn function wherever it is bound; returns the undo list."""
    modules = _modules()
    targets = {}
    for m in modules:
        for attr, obj in vars(m).items():
            if (inspect.isfunction(obj) and obj.__module__ == m.__name__
                    and not attr.startswith("_")):
                targets[id(obj)] = obj
    wrappers = {key: tracer.wrap(f"{_short(fn.__module__)}.{fn.__name__}", fn)
                for key, fn in targets.items()}
    undo = []
    for m in modules:
        for attr, obj in list(vars(m).items()):
            new = _swap(obj, wrappers)
            if new is not obj:
                undo.append((m, attr, obj))
                setattr(m, attr, new)
    return undo


def unpatch(undo: list) -> None:
    for m, attr, obj in reversed(undo):
        setattr(m, attr, obj)
