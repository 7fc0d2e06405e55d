"""Shared domain types, unit conventions, and parameter derivation.

Unit convention
---------------
Exactly two unit contexts exist in this package:

* boundary (CLI, config files, constructors ending in ``_hz``): plain
  frequencies in Hz, i.e. the "nu-style" numbers experimenters quote
  (a rate written as ``x/(2 pi)``);
* internal: angular frequencies in rad/s, so that products like
  ``omega_twist * t`` are phases in radians with no stray 2*pi factors.

All public functions in the physics modules take rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def hz_to_angular(f_hz):
    """Convert a plain frequency in Hz to an angular one in rad/s."""
    return TWO_PI * np.asarray(f_hz, dtype=float) if np.ndim(f_hz) else TWO_PI * float(f_hz)


def angular_to_hz(omega):
    """Convert an angular frequency in rad/s to a plain one in Hz."""
    return np.asarray(omega, dtype=float) / TWO_PI if np.ndim(omega) else float(omega) / TWO_PI


class PhysicsError(ValueError):
    """Physically invalid input (zero detuning, negative rate, ...)."""


class NumericsError(RuntimeError):
    """A numerical quality gate failed (norm drift, saturated bound, ...)."""


class NormDriftError(NumericsError):
    """State norm drifted beyond the allowed gate during propagation."""


class LevelCrossingError(NumericsError):
    """Adiabatic branch of a dressed state could not be identified."""


class DegenerateMeanSpinError(PhysicsError):
    """Mean spin is (numerically) zero: the transverse plane is undefined."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def resolve_tier(tier: str, protocol: str) -> tuple[str, str]:
    """Validate a (tier, protocol) choice and resolve tier "auto".

    Protocols are "oat" (one-axis twisting) and "tat" (rotation-assisted
    twisting); tiers are "analytic" (closed form, twisting only) and
    "dicke" (exact ladder).  "auto" picks analytic for twisting and dicke
    for the rotation-assisted protocol.  Every other combination raises
    :class:`ConfigError`.
    """
    if protocol not in ("oat", "tat"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    if tier == "auto":
        tier = "dicke" if protocol == "tat" else "analytic"
    if tier not in ("analytic", "dicke"):
        raise ConfigError(f"unknown tier {tier!r}")
    if tier == "analytic" and protocol == "tat":
        raise ConfigError("the rotation-assisted protocol needs tier=dicke")
    return tier, protocol


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs of the cavity-spin system, all angular (rad/s).

    ``coupling_g`` is half the single-photon Rabi frequency; ``delta`` is
    the cavity-atom detuning and must be nonzero (both signs allowed).
    ``omega0`` is the atomic transition frequency, only used in
    feasibility reporting.
    """

    n_atoms: int
    coupling_g: float
    kappa: float
    gamma: float
    delta: float
    omega0: float | None = None

    def __post_init__(self):
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 1:
            raise PhysicsError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        object.__setattr__(self, "n_atoms", int(self.n_atoms))
        for name in ("coupling_g", "kappa", "gamma", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PhysicsError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.coupling_g <= 0:
            raise PhysicsError(f"coupling_g must be > 0, got {self.coupling_g}")
        if self.kappa < 0 or self.gamma < 0:
            raise PhysicsError("kappa and gamma must be >= 0")
        if self.delta == 0:
            raise PhysicsError("delta must be nonzero (the twisting rate is g^2/delta)")
        if self.omega0 is not None:
            if not (math.isfinite(self.omega0) and self.omega0 > 0):
                raise PhysicsError(f"omega0 must be positive and finite, got {self.omega0}")
            object.__setattr__(self, "omega0", float(self.omega0))

    @classmethod
    def from_frequencies(cls, n_atoms, *, kappa_hz, gamma_hz, delta_hz,
                         g_hz=None, eta=None, omega0_hz=None):
        """Build from boundary-Hz values; give either ``g_hz`` or ``eta``.

        When only the cooperativity ``eta`` is given, the coupling is fixed
        implicitly by eta = 4 g^2/(Gamma kappa), i.e. g = sqrt(eta Gamma
        kappa)/2.  Giving both requires consistency to 1e-6 relative.
        """
        kappa = hz_to_angular(kappa_hz)
        gamma = hz_to_angular(gamma_hz)
        if g_hz is None and eta is None:
            raise PhysicsError("one of g_hz or eta is required")
        if g_hz is None:
            if eta <= 0:
                raise PhysicsError(f"eta must be > 0, got {eta}")
            if kappa <= 0 or gamma <= 0:
                raise PhysicsError("deriving g from eta requires kappa > 0 and gamma > 0")
            g = math.sqrt(eta * gamma * kappa) / 2.0
        else:
            g = hz_to_angular(g_hz)
            if eta is not None and kappa > 0 and gamma > 0:
                eta_from_g = 4.0 * g * g / (gamma * kappa)
                if abs(eta_from_g - eta) > 1e-6 * abs(eta):
                    raise PhysicsError(
                        f"inconsistent g and eta: eta(g)={eta_from_g!r} vs eta={eta!r}")
        return cls(n_atoms=n_atoms, coupling_g=g, kappa=kappa, gamma=gamma,
                   delta=hz_to_angular(delta_hz),
                   omega0=None if omega0_hz is None else hz_to_angular(omega0_hz))

    @property
    def collective_coupling(self) -> float:
        """g*sqrt(N), the relevant coupling scale of the ladder."""
        return self.coupling_g * math.sqrt(self.n_atoms)

    @property
    def regime_ok(self) -> bool:
        """Reporting heuristic for the adiabatic-elimination regime.

        True when |delta| >= 10 * max(g*sqrt(N), kappa).  Not a hard gate;
        the oracle module quantifies the actual model error.
        """
        return abs(self.delta) >= 10.0 * max(self.collective_coupling, self.kappa)


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from :class:`SystemParams`.

    spin_S = N/2 (half-integer for odd N), eta = 4 g^2/(Gamma kappa),
    omega_twist = g^2/delta (sign follows delta).  The source params are
    carried along because the decoherence formulas need kappa, gamma and
    delta next to S and omega_twist.
    """

    spin_S: float
    eta: float
    omega_twist: float
    params: SystemParams


def derive_params(p: SystemParams) -> DerivedParams:
    """Compute S, eta and the twisting rate Omega from system parameters.

    Pure function: identical inputs give bit-identical outputs.  A lossless
    system (kappa or gamma zero) has infinite cooperativity.
    """
    if p.delta == 0:
        raise PhysicsError("delta must be nonzero")
    loss = p.gamma * p.kappa
    eta = math.inf if loss == 0 else 4.0 * p.coupling_g ** 2 / loss
    return DerivedParams(
        spin_S=p.n_atoms / 2.0,
        eta=eta,
        omega_twist=p.coupling_g ** 2 / p.delta,
        params=p,
    )


@dataclass(frozen=True)
class FeasibilityParams:
    """Cavity-stability inputs for the robustness arithmetic.

    ``fsr`` and ``fsr_jitter`` are angular (rad/s); ``noise_bandwidth_hz``
    stays in plain Hz because it enters only through the dimensionless
    sample count f * t_s.
    """

    fsr: float
    fsr_jitter: float
    noise_bandwidth_hz: float
    squeeze_time: float

    def __post_init__(self):
        for name in ("fsr", "fsr_jitter", "noise_bandwidth_hz", "squeeze_time"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0):
                raise PhysicsError(f"{name} must be strictly positive, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_frequencies(cls, *, fsr_hz, fsr_jitter_hz, noise_bandwidth_hz, squeeze_time_s):
        return cls(fsr=hz_to_angular(fsr_hz), fsr_jitter=hz_to_angular(fsr_jitter_hz),
                   noise_bandwidth_hz=float(noise_bandwidth_hz),
                   squeeze_time=float(squeeze_time_s))


@dataclass(frozen=True, eq=False)
class SqueezingTrace:
    """Time series of the squeezing parameter with model provenance.

    ``xi_unitary`` is the coherent-evolution value, ``xi_total`` includes
    the active noise channels; ``var_min`` is the noise-included minimal
    transverse variance (= xi_total * S/2) and ``angle`` the quadrature
    angle of the minimum (see ``analytic.xi_unitary`` for the convention).
    """

    times: np.ndarray
    xi_unitary: np.ndarray
    xi_total: np.ndarray
    mean_x: np.ndarray
    var_min: np.ndarray
    angle: np.ndarray
    model_tier: str = "analytic"
    protocol: str = "oat"

    @property
    def xi_total_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.xi_total)
