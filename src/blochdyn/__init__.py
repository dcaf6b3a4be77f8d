"""Electron wavepacket dynamics in electric and magnetic fields.

Semiclassical trajectories driven by time-varying wavevectors, a plane-wave
band-structure solver, quantum oracles (basis integration with adiabatic
diagnostics, split-step propagation, grid diagonalization) and band-filling
conduction bookkeeping, all in natural units tied to the lattice constant.
"""

from .central_equation import (BandSolution, band_derivatives, band_sweep, bloch_psi,
                               build, effective_mass, group_velocity,
                               hellmann_feynman_velocity, reduce_to_zone, solve_at)
from .conduction import (BandFilling, classify, fractional_displacement,
                         solenoid_shift, velocity_sum)
from .errors import (BoundaryProximityError, ConfigError, DegeneratePointError,
                     EnergyDriftError, InfiniteMassError, PhysicsError)
from .potential import FourierPotential, random_symmetric, single_cosine
from .quantum import (AdiabaticReport, BasisState, GridBands, GridState,
                      SplitStepResult, adiabatic_diagnostics, frame_generator,
                      gaussian_packet, grid_ground_state, integrate_basis,
                      split_step_free)
from .semiclassical import (DivergenceReport, Trajectory,
                            compare_fundamental_lorentz, cyclotron_center_offset,
                            evolve_free_E, evolve_fundamental, evolve_general_V,
                            evolve_lorentz, evolve_periodic_B, evolve_periodic_E)
from .units import (DIMENSION_TAGS, E_CHARGE_SI, HBAR_SI, M_E_SI, MU0_SI,
                    UnitSystem)

__version__ = "0.1.0"
