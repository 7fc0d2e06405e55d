"""Shared domain types, unit conventions and the size rules of scans and oracle.

S, eta, the twisting rate and the leak rate are :class:`SystemParams` properties.

Unit convention
---------------
Exactly two unit contexts exist in this package:

* boundary (CLI, config files, constructors ending in ``_hz``): plain
  frequencies in Hz, i.e. the "nu-style" numbers experimenters quote
  (a rate written as ``x/(2 pi)``);
* internal: angular frequencies in rad/s, so that products like
  ``omega_twist * t`` are phases in radians with no stray 2*pi factors.

All public functions in the physics modules take rad/s.

This module is pure Python: it imports no numpy, so the config layer and
``validate`` run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi
T_BOTTOM = 1e-8  # the bottom of every time bracket over its top
ORACLE_MAX_ATOMS = 12
ORACLE_MAX_DIM = 10_000  # the oracle's largest Hilbert dimension


def hz_to_angular(f_hz) -> float:
    """Convert a plain frequency in Hz to an angular one in rad/s."""
    return TWO_PI * float(f_hz)


def angular_to_hz(omega) -> float:
    """Convert an angular frequency in rad/s to a plain one in Hz."""
    return float(omega) / TWO_PI


def valid_t_max(t_max) -> bool:
    """Whether ``t_max`` can top a time bracket: finite, and its bottom a normal float."""
    return math.isfinite(t_max) and t_max * T_BOTTOM >= sys.float_info.min


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

    The derived quantities are properties: ``spin_S`` = N/2, the cooperativity
    ``eta`` = 4 g^2/(Gamma kappa) (infinite without loss), ``omega_twist`` =
    g^2/delta and ``leak_rate`` = S (Omega/delta) kappa, the cavity-leak
    exposure rate before detector efficiency.
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
    def spin_S(self) -> float:
        return self.n_atoms / 2.0

    @property
    def eta(self) -> float:
        loss = self.gamma * self.kappa
        return math.inf if loss == 0 else 4.0 * self.coupling_g ** 2 / loss

    @property
    def omega_twist(self) -> float:
        return self.coupling_g ** 2 / self.delta

    @property
    def leak_rate(self) -> float:
        return self.spin_S * (self.omega_twist / self.delta) * self.kappa

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


def scaling_points(points) -> list[tuple[int, float]]:
    """The (n_atoms, eta) pairs of a scaling scan as (int, float), checked.

    Each needs n_atoms >= 1 and a finite eta > 0, and the scan at least 3
    of them spanning at least two decades of N*eta; else :class:`PhysicsError`.
    """
    pts = [(int(n), float(eta)) for n, eta in points]
    for n, eta in pts:
        if n < 1 or not (math.isfinite(eta) and eta > 0):
            raise PhysicsError(f"scan point [{n}, {eta!r}] needs n_atoms >= 1 and a finite eta > 0")
    if len(pts) < 3:
        raise PhysicsError("need at least 3 scan points")
    n_etas = [n * eta for n, eta in pts]
    if max(n_etas) / min(n_etas) < 100.0:
        raise PhysicsError("scan points must span at least two decades of N*eta")
    return pts


def check_oracle_size(n_atoms: int, photon_cutoff: int) -> None:
    """:class:`PhysicsError` unless the oracle takes N atoms at this photon cutoff."""
    if n_atoms > ORACLE_MAX_ATOMS:
        raise PhysicsError(f"oracle is limited to N <= {ORACLE_MAX_ATOMS} atoms")
    if photon_cutoff < 1:
        raise PhysicsError("photon_cutoff must be >= 1")
    dim = (n_atoms + 1) * (photon_cutoff + 1)
    if dim > ORACLE_MAX_DIM:
        raise PhysicsError(f"Hilbert dimension {dim} exceeds the cap {ORACLE_MAX_DIM}")


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


@dataclass(frozen=True)
class FeasibilityReport:
    """Robustness figures of the always-on vacuum coupling.

    ``squeeze_phase_rel_error``: relative error of the accumulated
    twisting phase from cavity frequency jitter, deltanu/(Delta
    sqrt(f t_s)) -- jitter averages over f*t_s independent samples.
    ``suppression_factor``: residual twisting when parked half a free
    spectral range away, (Delta/(nu/2)) * (deltanu/(nu/2)).
    """

    omega_twist_hz: float
    squeeze_phase_rel_error: float
    suppression_factor: float
    clock_shift_during_squeeze_rad_s: float
    fractional_accuracy: float | None = None


def feasibility_report(p: SystemParams, f: FeasibilityParams) -> FeasibilityReport:
    """Evaluate the robustness arithmetic verbatim (pure, deterministic)."""
    omega = abs(p.omega_twist)
    samples = f.noise_bandwidth_hz * f.squeeze_time
    rel_error = (f.fsr_jitter / abs(p.delta)) / math.sqrt(samples)
    half_fsr = f.fsr / 2.0
    suppression = (abs(p.delta) / half_fsr) * (f.fsr_jitter / half_fsr)
    fractional = None if p.omega0 is None else omega / p.omega0
    return FeasibilityReport(omega_twist_hz=omega / TWO_PI,
                             squeeze_phase_rel_error=rel_error,
                             suppression_factor=suppression,
                             clock_shift_during_squeeze_rad_s=omega,
                             fractional_accuracy=fractional)


@dataclass(frozen=True, eq=False)
class SpinMoments:
    """First/second moments of the collective spin (dimensionless).

    A plain record: the mean spin and the transverse (z, y) second moments,
    with ``cross_zy`` the symmetrized correlator <SzSy + SySz> - 2<Sz><Sy>.
    The moments are floats for one state, or arrays over a time grid as the
    Dicke kernels and the oracle return them.  The minimal transverse
    variance and its angle are derived from it by ``dicke.min_transverse_variance``.
    """

    spin_S: float
    mean_x: float | np.ndarray
    mean_y: float | np.ndarray
    mean_z: float | np.ndarray
    var_z: float | np.ndarray
    var_y: float | np.ndarray
    cross_zy: float | np.ndarray

    def point(self, i: int) -> SpinMoments:
        """Point ``i`` of a grid record, as a record of floats."""
        return SpinMoments(self.spin_S, float(self.mean_x[i]), float(self.mean_y[i]),
                           float(self.mean_z[i]), float(self.var_z[i]), float(self.var_y[i]),
                           float(self.cross_zy[i]))


@dataclass(frozen=True)
class NoiseModel:
    """Which decoherence channels are active, plus detector efficiency q.

    ``detector_efficiency_q`` suppresses the cavity-leak channel: detecting
    the escaped photons with efficiency q scales the leak exposure by
    (1 - q).  It is only meaningful together with ``include_cavity_leak``.
    """

    include_free_space: bool = True
    include_cavity_leak: bool = True
    detector_efficiency_q: float = 0.0

    def __post_init__(self):
        q = float(self.detector_efficiency_q)
        if not (0.0 <= q <= 1.0):
            raise PhysicsError(f"detector efficiency must lie in [0, 1], got {q}")
        object.__setattr__(self, "detector_efficiency_q", q)

    @classmethod
    def none(cls):
        return cls(include_free_space=False, include_cavity_leak=False)

    @property
    def any_active(self) -> bool:
        return self.include_free_space or self.include_cavity_leak


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
