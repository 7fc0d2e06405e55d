"""Cavity-vacuum spin squeezing toolkit.

Closed-form one-axis-twisting squeezing with additive decoherence,
numerically exact Dicke-ladder evolution (including rotation-assisted
two-axis twisting), optimization of squeezing time and detuning, and a
small-N Tavis-Cummings oracle validating the effective twisting model.
"""

from .core import (DerivedParams, FeasibilityParams, PhysicsError, NumericsError,
                   NormDriftError, LevelCrossingError, DegenerateMeanSpinError, NoiseModel,
                   SpinMoments, SqueezingTrace, SystemParams, TWO_PI, angular_to_hz,
                   derive_params, hz_to_angular)

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "DerivedParams", "FeasibilityParams", "NoiseModel",
    "SpinMoments", "SqueezingTrace", "derive_params", "hz_to_angular",
    "angular_to_hz", "TWO_PI", "PhysicsError", "NumericsError",
    "NormDriftError", "LevelCrossingError", "DegenerateMeanSpinError",
    "__version__",
]
