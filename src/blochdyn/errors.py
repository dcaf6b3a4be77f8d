"""Exception taxonomy.

ConfigError is for bad input: malformed scenario files and every argument
check in the library (a step larger than the run, a band index outside 0..2n
for truncation n, an unknown dimension tag). It subclasses ValueError.
PhysicsError subclasses mark conditions where the requested computation is
ill-defined at the evaluation point.

The CLI maps ConfigError, an OSError on a file and a MemoryError (a size the
machine cannot allocate) to exit code 2, PhysicsError to exit code 3. Any other
exception, a bare ValueError included, is a program fault and propagates.
"""


class ConfigError(ValueError):
    """Malformed scenario or configuration input."""


class PhysicsError(RuntimeError):
    """Base class for physics-level failures."""


class DegeneratePointError(PhysicsError):
    """Band identity cannot be tracked (eigenvector overlap too small, or gap closed)."""


class InfiniteMassError(PhysicsError):
    """Band curvature vanishes at an inflection point; effective mass diverges."""


class BoundaryProximityError(PhysicsError):
    """A grid wavepacket drifted too close to the domain boundary."""


class EnergyDriftError(PhysicsError):
    """Conserved energy drifted beyond tolerance in a conservative integration."""
