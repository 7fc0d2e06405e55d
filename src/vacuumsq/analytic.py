"""Closed-form one-axis-twisting moments and squeezing parameters.

Starting from a coherent spin state along +x, twisting under Omega*Sz^2
gives the exact transverse moments

    <Sz> = <Sy> = 0,          <Sz^2> = S/2,
    <Sy^2> = S/2 + (S/2)(S - 1/2) * A,
    <Sz Sy + Sy Sz> = (S/2)(S - 1/2) * B,

with A = 1 - cos^(2S-2)(2 Omega t) and B = 4 sin(Omega t) cos^(2S-2)(Omega t).
The squeezing parameter (minimal transverse variance over the CSS value S/2)
follows as

    xi(t) = 1 - (1/2)(S - 1/2) (sqrt(A^2 + B^2) - A).

Decoherence enters as additive spin variances: free-space decay contributes
S p(1-p) with p = exp(-Gamma t) (binomial statistics of independently
decayed atoms), cavity photon leakage S p(1-p) with p = tanh(S Omega kappa
t / Delta).  Both are valid bookkeeping while p <= 1/2; past that point the
underlying state is decohered and the shrinking binomial variance no longer
measures anything useful (the optimizers guard against this).

Angle convention: all quadrature angles phi refer to the operator
cos(phi) Sy - sin(phi) Sz, i.e. phi is the rotation about the mean-spin
axis (+x) that maps the squeezed quadrature onto Sy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DerivedParams, PhysicsError, SqueezingTrace

__all__ = [
    "SpinMoments", "NoiseModel", "UnitarySqueezing", "cos_pow",
    "oat_moments", "xi_unitary", "xi_total", "xi_approx", "xi_bound",
    "noise_var_free_space", "noise_var_cavity_leak",
    "NoiseBudget", "noise_budget", "add_noise_to_xi", "noise_probabilities",
    "tat_variance_bosonic", "tat_xi_floor", "to_db", "squeezing_trace",
]


@dataclass(frozen=True, eq=False)
class SpinMoments:
    """First/second moments of the collective spin (dimensionless).

    ``cross_zy`` is the symmetrized correlator <SzSy + SySz> - 2<Sz><Sy>.
    ``min_transverse_var`` / ``optimal_angle`` are None when the mean spin
    does not define a transverse plane this module can handle (see
    ``dicke.min_transverse_variance``).
    """

    spin_S: float
    mean_x: float
    mean_y: float
    mean_z: float
    var_z: float
    var_y: float
    cross_zy: float
    min_transverse_var: float | None = None
    optimal_angle: float | None = None


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


class UnitarySqueezing(NamedTuple):
    xi: float | np.ndarray
    angle: float | np.ndarray


def _scalar_like(value, template):
    return float(value) if np.ndim(template) == 0 else value


def cos_pow(x, p: int):
    """sign(cos x)^(p mod 2) * |cos x|^p, computed in log space.

    Direct powering underflows/overflows for p ~ 1e4 and loses the sign of
    odd powers; the exact zero of cos maps to 0.  p must be a nonnegative
    integer (2S-2 and 2S-1 always are).
    """
    if p != int(p) or p < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {p}")
    p = int(p)
    x = np.asarray(x, dtype=float)
    c = np.cos(x)
    safe = np.where(c == 0.0, 1.0, np.abs(c))
    out = np.where(c == 0.0, 0.0, np.exp(p * np.log(safe)))
    if p % 2:
        out = out * np.sign(c)
    return out


def _ab(d: DerivedParams, t):
    """The A, B coefficients of the twisting covariance at phase Omega*t."""
    S = d.spin_S
    x = d.omega_twist * np.asarray(t, dtype=float)
    A = 1.0 - cos_pow(2.0 * x, int(2 * S - 2))
    B = 4.0 * np.sin(x) * cos_pow(x, int(2 * S - 2))
    return A, B


def _check_time(t):
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise PhysicsError("time must be >= 0")
    return t_arr


def xi_unitary(d: DerivedParams, t) -> UnitarySqueezing:
    """Coherent-twisting squeezing parameter and optimal quadrature angle.

    Returns xi = 1 - (1/2)(S-1/2)(sqrt(A^2+B^2) - A) and the angle
    (1/2) atan2(B, -A) at which the quadrature cos(phi) Sy - sin(phi) Sz
    attains the minimal variance (0 by tie-break when the transverse noise
    is still isotropic).  sqrt(A^2+B^2) - A is evaluated as B^2/(R + A)
    to stay accurate when B << A.
    """
    t_arr = _check_time(t)
    S = d.spin_S
    if S == 0.5:  # prefactor (S - 1/2) vanishes; no entanglement for one spin
        return UnitarySqueezing(_scalar_like(np.ones_like(t_arr), t),
                                _scalar_like(np.zeros_like(t_arr), t))
    A, B = _ab(d, t_arr)
    R = np.hypot(A, B)
    excess = np.divide(B * B, R + A, out=np.zeros_like(R), where=(R + A) > 0)
    xi = 1.0 - 0.5 * (S - 0.5) * excess
    angle = np.where(R == 0.0, 0.0, 0.5 * np.arctan2(B, np.negative(A)))
    return UnitarySqueezing(_scalar_like(xi, t), _scalar_like(angle, t))


def oat_moments(d: DerivedParams, t) -> SpinMoments:
    """Exact twisting moments at time t (scalar t)."""
    t = float(_check_time(t))
    S = d.spin_S
    x = d.omega_twist * t
    mean_x = S * cos_pow(x, int(2 * S - 1))
    if S == 0.5:
        var_y, cross = S / 2.0, 0.0
    else:
        A, B = _ab(d, t)
        var_y = S / 2.0 + 0.5 * S * (S - 0.5) * A
        cross = (S / 2.0) * (S - 0.5) * B
    xi, angle = xi_unitary(d, t)
    return SpinMoments(spin_S=S, mean_x=float(mean_x), mean_y=0.0, mean_z=0.0,
                       var_z=S / 2.0, var_y=float(var_y), cross_zy=float(cross),
                       min_transverse_var=(S / 2.0) * xi, optimal_angle=angle)


class NoiseBudget(NamedTuple):
    """Added transverse spin variance and binomial exposures at time t."""

    added_var: float | np.ndarray
    p_leak: float | np.ndarray
    p_decay: float | np.ndarray


def _leak_exposure(d: DerivedParams, kappa, t_arr, q):
    """p = tanh((1-q) S Omega kappa t / Delta), the cavity-leak exposure."""
    rate = d.spin_S * (d.omega_twist / d.params.delta) * kappa  # = S g^2 kappa / Delta^2
    return np.tanh((1.0 - float(q)) * rate * t_arr)


def noise_var_free_space(d: DerivedParams, gamma, t):
    """Spin variance added by free-space decay: S p(1-p), p = exp(-Gamma t).

    Each decayed atom is revealed (and removed from the coherent ladder)
    but still counted in the final spin measurement, so the transferred
    population is binomial.
    """
    t_arr = _check_time(t)
    if gamma < 0:
        raise PhysicsError("gamma must be >= 0")
    p = np.exp(-gamma * t_arr)
    return _scalar_like(d.spin_S * p * (1.0 - p), t)


def noise_var_cavity_leak(d: DerivedParams, kappa, t, detector_efficiency_q=0.0):
    """Spin variance added by cavity photon loss.

    S p(1-p) with p = tanh((1-q) S Omega kappa t / Delta); the argument is
    dimensionless since Omega/Delta = g^2/Delta^2.  Detecting leaked
    photons with efficiency q rescales the exposure by (1-q), which
    reproduces the (1-q) suppression of the small-noise expansion while
    keeping the saturated form well defined.
    """
    t_arr = _check_time(t)
    if kappa < 0:
        raise PhysicsError("kappa must be >= 0")
    p = _leak_exposure(d, kappa, t_arr, detector_efficiency_q)
    return _scalar_like(d.spin_S * p * (1.0 - p), t)


def noise_budget(d: DerivedParams, t, noise: NoiseModel) -> NoiseBudget:
    """The active noise channels at time t, evaluated once.

    Returns the summed added variance [dS2_leak + dS2_decay] and the
    exposures (p_leak, p_decay); inactive channels contribute 0.  The
    additive variance model is trustworthy while both exposures stay
    <= 1/2 (monotone regime).  This is the one place that decides which
    channels are on.
    """
    t_arr = _check_time(t)
    S, p = d.spin_S, d.params
    added = np.zeros_like(t_arr, dtype=float)
    p_leak = np.zeros_like(t_arr, dtype=float)
    p_decay = np.zeros_like(t_arr, dtype=float)
    if noise.include_cavity_leak and p.kappa > 0:
        p_leak = _leak_exposure(d, p.kappa, t_arr, noise.detector_efficiency_q)
        added = added + S * p_leak * (1.0 - p_leak)
    if noise.include_free_space and p.gamma > 0:
        survival = np.exp(-p.gamma * t_arr)
        added = added + S * survival * (1.0 - survival)
        p_decay = 1.0 - survival
    return NoiseBudget(_scalar_like(added, t), _scalar_like(p_leak, t),
                       _scalar_like(p_decay, t))


def xi_total(d: DerivedParams, t, noise: NoiseModel):
    """Squeezing parameter including the active additive noise channels.

    xi_total = xi_unitary + [dS2_leak + dS2_decay] / (S/2); disabled
    channels contribute zero, so with both off this equals xi_unitary.
    """
    return add_noise_to_xi(d, xi_unitary(d, t).xi, t, noise)


def xi_approx(d: DerivedParams, t, detector_efficiency_q=0.0):
    """Small-decoherence expansion of xi_total.

    Three-term sum 1/(2 S Omega t)^2 + 2(1-q) S g^2 kappa t / Delta^2
    + 2 Gamma t.  Valid (and useful) only in the small-noise regime;
    diverges at t = 0.
    """
    t_arr = _check_time(t)
    S = d.spin_S
    p = d.params
    q = float(detector_efficiency_q)
    with np.errstate(divide="ignore"):
        unitary = 1.0 / (2.0 * S * d.omega_twist * t_arr) ** 2
    leak = 2.0 * (1.0 - q) * S * (d.omega_twist / p.delta) * p.kappa * t_arr
    decay = 2.0 * p.gamma * t_arr
    return _scalar_like(unitary + leak + decay, t)


def xi_bound(n_atoms, eta, detector_efficiency_q=0.0) -> float:
    """Decoherence-limited optimum of the expansion: 6 [N eta/(1-q)]^(-1/3).

    This is the joint minimum of :func:`xi_approx` over both time and
    detuning.  q = 1 gives 0 (perfect photon recovery removes the leak
    channel entirely).
    """
    if n_atoms < 1 or eta <= 0:
        raise PhysicsError("need n_atoms >= 1 and eta > 0")
    q = float(detector_efficiency_q)
    if not (0.0 <= q <= 1.0):
        raise PhysicsError(f"detector efficiency must lie in [0, 1], got {q}")
    if q == 1.0:
        return 0.0
    return 6.0 * (n_atoms * eta / (1.0 - q)) ** (-1.0 / 3.0)


def tat_variance_bosonic(d: DerivedParams, t):
    """Transverse variance of rotation-assisted twisting, bosonic limit.

    The matched rotation turns shearing into exponential squeezing of one
    fixed quadrature: var = (S/2) exp(-2 S |Omega| t).  The collective
    rate S*Omega is the e-folding rate of the quadrature (the rotation
    term S*Omega*Sx and the curvature of Sz^2 combine into a pure
    squeezing generator).  Valid while depletion is small, i.e. while the
    anti-squeezed variance stays well below S^(3/2).
    """
    t_arr = _check_time(t)
    S = d.spin_S
    return _scalar_like((S / 2.0) * np.exp(-2.0 * S * abs(d.omega_twist) * t_arr), t)


def tat_xi_floor(n_atoms, eta, detector_efficiency_q=0.0) -> float:
    """Noise floor of rotation-assisted twisting: 4 sqrt(2) [N eta/(1-q)]^(-1/2).

    Balancing exp(-2 S Omega t) against the linearized leak and decay terms
    over (t, Delta) leaves this residual unitary term at the optimum; the
    decay contribution adds a slowly varying log factor on top, so the
    attainable optimum is somewhat above this floor.
    """
    if n_atoms < 1 or eta <= 0:
        raise PhysicsError("need n_atoms >= 1 and eta > 0")
    q = float(detector_efficiency_q)
    if not (0.0 <= q <= 1.0):
        raise PhysicsError(f"detector efficiency must lie in [0, 1], got {q}")
    if q == 1.0:
        return 0.0
    return 4.0 * math.sqrt(2.0) * (n_atoms * eta / (1.0 - q)) ** (-0.5)


def to_db(xi):
    """10 log10(xi); "X dB of squeezing" means a value of -X."""
    return 10.0 * np.log10(xi)


def squeezing_trace(d: DerivedParams, times, noise: NoiseModel) -> SqueezingTrace:
    """Closed-form squeezing trace over a time grid (analytic tier)."""
    t = np.asarray(times, dtype=float)
    xi_u, angle = xi_unitary(d, t)
    xi_tot = xi_total(d, t, noise)
    mean_x = d.spin_S * cos_pow(d.omega_twist * t, int(2 * d.spin_S - 1))
    return SqueezingTrace(times=t, xi_unitary=np.asarray(xi_u),
                          xi_total=np.asarray(xi_tot), mean_x=np.asarray(mean_x),
                          var_min=np.asarray(xi_tot) * (d.spin_S / 2.0),
                          angle=np.asarray(angle), model_tier="analytic",
                          protocol="oat")


def add_noise_to_xi(d: DerivedParams, xi_coherent, t, noise: NoiseModel):
    """Attach the additive noise terms to an externally computed xi(t)."""
    added = noise_budget(d, t, noise).added_var
    return _scalar_like(np.asarray(xi_coherent, dtype=float) + added / (d.spin_S / 2.0), t)


def noise_probabilities(d: DerivedParams, t, noise: NoiseModel):
    """The binomial exposures (p_leak, p_decay) of the active channels at t."""
    budget = noise_budget(d, t, noise)
    return budget.p_leak, budget.p_decay
