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
from typing import NamedTuple

import numpy as np

from .core import (DegenerateMeanSpinError, NoiseModel, NumericsError, PhysicsError, SpinMoments,
                   SqueezingTrace, SystemParams)

__all__ = [
    "SpinMoments", "NoiseModel", "UnitarySqueezing", "cos_pow",
    "xi_unitary", "xi_total", "xi_bound",
    "NoiseBudget", "noise_budget", "add_noise_to_xi", "noise_probabilities",
    "tat_xi_floor", "to_db", "squeezing_trace",
]


class UnitarySqueezing(NamedTuple):
    xi: float | np.ndarray
    angle: float | np.ndarray


def _scalar_like(value, template):
    return float(value) if np.ndim(template) == 0 else value


def _where(cond, x, y):
    """np.where, except that a scalar condition picks one of two scalars."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def cos_pow(x, p):
    """sign(cos x)^(p mod 2) * |cos x|^p, computed in log space.

    Direct powering underflows/overflows for p ~ 1e4 and loses the sign of
    odd powers; the exact zero of cos maps to 0.  p must be a nonnegative
    integer (2S-2 and 2S-1 always are).  A scalar x gives a scalar through
    the same ufuncs, so it has the bits of the array call.
    """
    if not (p >= 0 and float(p).is_integer()):
        raise ValueError(f"exponent must be a nonnegative integer, got {p}")
    c = np.cos(np.asarray(x, dtype=float))
    zero = c == 0.0
    out = _where(zero, 0.0, np.exp(p * np.log(_where(zero, 1.0, np.abs(c)))))
    return out * np.sign(c) if p % 2 == 1 else out


def _ab(p: SystemParams, t):
    """The A, B coefficients of the twisting covariance at phase Omega*t.

    ``t`` is a time that :func:`_check_time` passed, a float or an array.
    One spin (S = 1/2) takes the exponent 0 in place of 2S-2 = -1; its
    covariance prefactor S - 1/2 vanishes, so A and B are not used.
    """
    x = p.omega_twist * t
    power = max(int(2.0 * p.spin_S) - 2, 0)
    A = 1.0 - cos_pow(2.0 * x, power)
    B = 4.0 * np.sin(x) * cos_pow(x, power)
    return A, B


def _check_time(t):
    """t as a Python float if scalar, else a float array; refused like :func:`dicke.time_grid`."""
    if isinstance(t, float) or np.ndim(t) == 0:
        t = float(t)
        negative, finite = t < 0.0, math.isfinite(t)
    else:
        t = np.asarray(t, dtype=float)
        negative, finite = np.any(t < 0.0), np.isfinite(t).all()
    if negative:
        raise PhysicsError("time must be >= 0")
    if not finite:
        raise NumericsError("non-finite time")
    return t


def xi_unitary(p: SystemParams, t) -> UnitarySqueezing:
    """Coherent-twisting squeezing parameter and optimal quadrature angle.

    Returns xi = 1 - (1/2)(S-1/2)(sqrt(A^2+B^2) - A) and the angle
    (1/2) atan2(B, -A) at which the quadrature cos(phi) Sy - sin(phi) Sz
    attains the minimal variance (0 by tie-break when the transverse noise
    is still isotropic, and for one spin).  sqrt(A^2+B^2) - A is
    evaluated as B^2/(R + A) to stay accurate when B << A.  t may be a
    scalar or an array: a scalar t stays a Python float through the same
    ufuncs, so an array call gives, element by element, the bits of the
    scalar calls.  One spin (S = 1/2) gives xi = 1 exactly, because its
    prefactor S - 1/2 vanishes.
    """
    t_checked = _check_time(t)
    S = p.spin_S
    A, B = _ab(p, t_checked)
    R = np.hypot(A, B)
    if isinstance(R, np.ndarray):
        excess = np.divide(B * B, R + A, out=np.zeros_like(R), where=(R + A) > 0)
    else:
        excess = B * B / (R + A) if (R + A) > 0 else 0.0
    xi = 1.0 - 0.5 * (S - 0.5) * excess
    angle = _where((R == 0.0) | (S == 0.5), 0.0, 0.5 * np.arctan2(B, np.negative(A)))
    return UnitarySqueezing(_scalar_like(xi, t), _scalar_like(angle, t))


class NoiseBudget(NamedTuple):
    """Added transverse spin variance and binomial exposures at time t."""

    added_var: float | np.ndarray
    p_leak: float | np.ndarray
    p_decay: float | np.ndarray


def noise_budget(p: SystemParams, t, noise: NoiseModel) -> NoiseBudget:
    """The active noise channels at time t, evaluated once.

    Returns the summed added variance [dS2_leak + dS2_decay] and the
    exposures (p_leak, p_decay); inactive channels contribute 0.  Each
    channel adds the binomial variance S p(1-p):

    * free-space decay, with survival exp(-Gamma t): each decayed atom is
      revealed (and removed from the coherent ladder) but still counted in
      the final spin measurement, so the transferred population is binomial;
    * cavity photon loss, with p = tanh((1-q) S Omega kappa t / Delta),
      dimensionless since Omega/Delta = g^2/Delta^2.  Detecting leaked
      photons with efficiency q rescales the exposure by (1-q), which
      reproduces the (1-q) suppression of the small-noise expansion while
      keeping the saturated form well defined.

    The additive variance model is trustworthy while both exposures stay
    <= 1/2 (monotone regime).  The channels themselves are
    :func:`_noise_channels`, the one place that decides which are on; this
    wrapper checks t and reads S, the leak rate, kappa and Gamma off ``p``.

    A scalar t (a float or a 0-d array) gives Python floats, computed
    without array overhead; an array t gives arrays of its shape.  Both go
    through the same expressions, so an array call gives, element by
    element, the bits of the scalar calls.
    """
    return _noise_channels(p.spin_S, p.leak_rate, p.kappa, p.gamma, _check_time(t), noise)


def _noise_channels(S, leak_rate, kappa, gamma, t, noise: NoiseModel) -> NoiseBudget:
    """:func:`noise_budget` at spin S, leak exposure rate ``leak_rate`` (before
    detector efficiency), cavity and free-space decay rates kappa and Gamma.

    ``t`` is a Python float, or a float array of the shape of
    ``leak_rate`` when that is an array; it is not checked, so times must
    be finite and >= 0.
    """
    scalar = isinstance(t, float)
    added, p_leak, p_decay = (0.0, 0.0, 0.0) if scalar else np.zeros((3, *t.shape))
    if noise.include_cavity_leak and kappa > 0:
        p_leak = np.tanh((1.0 - noise.detector_efficiency_q) * leak_rate * t)
        if scalar:
            p_leak = float(p_leak)
        added = added + S * p_leak * (1.0 - p_leak)
    if noise.include_free_space and gamma > 0:
        survival = np.exp(-gamma * t)
        if scalar:
            survival = float(survival)
        added = added + S * survival * (1.0 - survival)
        p_decay = 1.0 - survival
    return NoiseBudget(added, p_leak, p_decay)


def xi_total(p: SystemParams, t, noise: NoiseModel):
    """Squeezing parameter including the active additive noise channels.

    xi_total = xi_unitary + [dS2_leak + dS2_decay] / (S/2); disabled
    channels contribute zero, so with both off this equals xi_unitary.
    """
    return add_noise_to_xi(p, xi_unitary(p, t).xi, t, noise)


def _noise_floor(prefactor, exponent, n_atoms, eta, detector_efficiency_q) -> float:
    """prefactor * [N eta/(1-q)]^exponent; 0 at q = 1, where no leak channel is left."""
    if n_atoms < 1 or eta <= 0:
        raise PhysicsError("need n_atoms >= 1 and eta > 0")
    q = float(detector_efficiency_q)
    if not (0.0 <= q <= 1.0):
        raise PhysicsError(f"detector efficiency must lie in [0, 1], got {q}")
    if q == 1.0:
        return 0.0
    return prefactor * (n_atoms * eta / (1.0 - q)) ** exponent


def xi_bound(n_atoms, eta, detector_efficiency_q=0.0) -> float:
    """Decoherence-limited optimum of twisting: 6 [N eta/(1-q)]^(-1/3).

    This is the joint minimum over time and detuning of the
    small-decoherence expansion of xi_total, the three-term sum
    1/(2 S Omega t)^2 + 2(1-q) S g^2 kappa t / Delta^2 + 2 Gamma t.
    q = 1 gives 0 (perfect photon recovery removes the leak channel
    entirely).
    """
    return _noise_floor(6.0, -1.0 / 3.0, n_atoms, eta, detector_efficiency_q)


def tat_xi_floor(n_atoms, eta, detector_efficiency_q=0.0) -> float:
    """Noise floor of rotation-assisted twisting: 4 sqrt(2) [N eta/(1-q)]^(-1/2).

    The matched rotation turns shearing into exponential squeezing of one
    quadrature, var = (S/2) exp(-2 S |Omega| t) while depletion is small.
    Balancing that against the linearized leak and decay terms over
    (t, Delta) leaves this residual unitary term at the optimum; the decay
    contribution adds a slowly varying log factor on top, so the
    attainable optimum is somewhat above this floor.
    """
    return _noise_floor(4.0 * math.sqrt(2.0), -0.5, n_atoms, eta, detector_efficiency_q)


def to_db(xi):
    """10 log10(xi); "X dB of squeezing" means a value of -X."""
    return 10.0 * np.log10(xi)


def _require_plane(degenerate, times) -> None:
    """DegenerateMeanSpinError at the first of ``times`` flagged ``degenerate``."""
    if np.any(degenerate):
        t = float(np.ravel(times)[np.argmax(degenerate)])
        raise DegenerateMeanSpinError(
            f"mean spin length ~ 0 at t={t!r}: transverse plane undefined")


def squeezing_trace(p: SystemParams, times, noise: NoiseModel) -> SqueezingTrace:
    """Closed-form squeezing trace over a time grid (analytic tier); a mean spin of at
    most 1e-9 S raises :class:`DegenerateMeanSpinError`, as on the Dicke tier."""
    t = np.asarray(times, dtype=float)
    xi_u, angle = xi_unitary(p, t)
    xi_tot = add_noise_to_xi(p, xi_u, t, noise)
    mean_x = p.spin_S * cos_pow(p.omega_twist * t, int(2 * p.spin_S - 1))
    _require_plane(np.abs(mean_x) <= 1e-9 * p.spin_S, t)
    return SqueezingTrace(times=t, xi_unitary=np.asarray(xi_u),
                          xi_total=np.asarray(xi_tot), mean_x=np.asarray(mean_x),
                          var_min=np.asarray(xi_tot) * (p.spin_S / 2.0),
                          angle=np.asarray(angle), model_tier="analytic",
                          protocol="oat")


def add_noise_to_xi(p: SystemParams, xi_coherent, t, noise: NoiseModel):
    """Attach the additive noise terms to an externally computed xi(t)."""
    added = noise_budget(p, t, noise).added_var
    return _scalar_like(np.asarray(xi_coherent, dtype=float) + added / (p.spin_S / 2.0), t)


def noise_probabilities(p: SystemParams, t, noise: NoiseModel):
    """The binomial exposures (p_leak, p_decay) of the active channels at t."""
    budget = noise_budget(p, t, noise)
    return budget.p_leak, budget.p_decay
