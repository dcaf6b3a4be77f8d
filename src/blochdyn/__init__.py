"""Electron wavepacket dynamics in electric and magnetic fields.

Semiclassical trajectories driven by time-varying wavevectors, a plane-wave
band-structure solver, quantum oracles (basis integration with adiabatic
diagnostics, split-step propagation, grid diagonalization) and band-filling
conduction bookkeeping, all in natural units tied to the lattice constant.

Each public name is imported from its submodule on first use (PEP 562), so
``import blochdyn`` loads neither numpy nor a compute module.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "central_equation": ("BandSolution", "band_derivatives", "band_sweep", "bloch_psi",
                         "build", "effective_mass", "group_velocity", "reduce_to_zone",
                         "solve_at"),
    "conduction": ("BandFilling", "classify", "fillings", "velocity_sum"),
    "errors": ("BoundaryProximityError", "ConfigError", "DegeneratePointError",
               "EnergyDriftError", "InfiniteMassError", "PhysicsError"),
    "potential": ("FourierPotential", "random_symmetric", "single_cosine"),
    "quantum": ("AdiabaticReport", "GridBands", "GridState", "SplitStepResult",
                "adiabatic_diagnostics", "frame_generator", "gaussian_packet",
                "grid_ground_state", "integrate_basis", "split_step_free"),
    "semiclassical": ("DivergenceReport", "Trajectory", "compare_fundamental_lorentz",
                      "evolve_free_E", "evolve_fundamental", "evolve_general_V",
                      "evolve_lorentz", "evolve_periodic_B", "evolve_periodic_E"),
    "units": ("DIMENSION_TAGS", "E_CHARGE_SI", "HBAR_SI", "M_E_SI", "MU0_SI", "UnitSystem",
              "fractional_displacement", "solenoid_shift"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # not cached: a copy kept here would miss a later rebinding in the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
