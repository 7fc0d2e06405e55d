"""Squeezing-time/detuning optimization, scaling scans, feasibility arithmetic.

There is one search, ``optimal_detuning``, over (t, Delta) through the
twisting angle tau = Omega t, Omega = g^2/Delta: the coherent squeezing
depends on N and tau alone, so the detuning only moves the noise.  At each
tau the least noise over Delta is solved exactly, by Newton steps on
log Delta from D* = g sqrt((1-q) S kappa/Gamma) that compete with the ends
of the valid Delta range.  Over tau the objective is smooth and unimodal in
the regime where the additive decoherence model is meaningful, so it is
read on a coarse logarithmic grid, in one array call of the noise solve and
one of the coherent kernel, and refined by golden section on log(S tau),
each step a float call of both.  ``optimal_time`` is that search on a
one-point Delta range, and ``scaling_scan`` runs it once per point.

Validity guard: each binomial noise variance S p(1-p) stops being a
faithful error measure once its exposure p passes 1/2 (the variance then
shrinks although the state keeps decohering).  Candidate optima in that
regime are treated as invalid (+inf objective) so the search stays on the
physical branch, and the coherent squeezing is computed only at points
that pass the guard; results additionally carry a sanity check against
the closed-form floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (DerivedParams, FeasibilityParams, NoiseModel, NumericsError, PhysicsError,
                   SystemParams, TWO_PI, T_BOTTOM, derive_params, resolve_tier, valid_t_max)
from . import analytic, dicke

__all__ = [
    "OptimizationResult", "FeasibilityReport", "ScalingPoint", "ScalingScan",
    "optimal_time", "optimal_detuning", "scaling_scan", "feasibility_report",
    "golden_section", "minimize_on_log_axis",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_EXPOSURE = 0.5  # binomial noise exposures beyond this are unphysical
TIME_GRID_POINTS = 240  # coarse log grid of tau in optimal_detuning, and so in optimal_time
# golden_section's tolerance in the refinement over tau, the one refinement:
# it stops once the bracket is narrower than REL_TOL * max(|lo|, |hi|).  The
# refinement runs on log(S tau), so that is an absolute width in log(S tau)
# that scales with |log(S tau)| (see minimize_on_log_axis), not a width
# relative to tau.
REL_TOL = 1e-3


@dataclass(frozen=True)
class OptimizationResult:
    """Minimizer output with bracket/tolerance provenance.

    ``flags`` collects bracket-edge conditions ("time_lower_edge", ...);
    an empty tuple means a clean interior optimum.  ``rel_tol`` is the
    tolerance of the refinement over tau; the detuning is solved exactly.
    """

    t_opt: float
    xi_min: float
    xi_min_db: float
    model_tier: str
    protocol: str
    delta_opt: float | None = None
    bracket_t: tuple[float, float] = (0.0, 0.0)
    bracket_delta: tuple[float, float] | None = None
    rel_tol: float = REL_TOL
    flags: tuple[str, ...] = ()


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
    clock_shift_during_squeeze: float
    fractional_accuracy: float | None = None


def golden_section(f, lo: float, hi: float, rel_tol: float = REL_TOL):
    """Deterministic golden-section minimum of f on [lo, hi] (linear axis).

    Stops once the bracket is narrower than ``rel_tol * max(|lo|, |hi|)``;
    the iteration count follows from the bracket alone.  Where f(c) <= f(d)
    at the two inner points it keeps [a, d], else [c, b].  Returns
    (x, f(x)) as floats.
    """
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo!r}, {hi!r}]")
    span, tol = hi - lo, rel_tol * max(abs(lo), abs(hi))
    n_iter = math.ceil(math.log(tol / span) / math.log(_INV_GOLDEN)) if span > tol else 0
    a, b = lo, hi
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = float(f(c)), float(f(d))
    for _ in range(n_iter):
        if fc <= fd:  # the minimum lies in [a, d]: drop (d, b]
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = float(f(c))
        else:  # it lies in [c, b]: drop [a, c)
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = float(f(d))
    return (c, fc) if fc <= fd else (d, fd)


def minimize_on_log_axis(f, grid, values, rel_tol: float):
    """Golden refinement of a coarse geometric grid around its argmin.

    ``grid`` is ascending, > 0 and at least 3 points long; ``values`` holds
    the objective on it, which the caller evaluates in one array call where
    the objective takes arrays.  ``f`` is called with Python scalars only,
    by the golden-section refinement on log(x) between the argmin's
    neighbors; the better of the argmin and the refined point is kept.
    Returns (x, f(x), edge) where edge is None, "lower" or "upper" -- an
    edge argmin means the objective is monotone (or invalid) across the
    bracket and is reported distinctly rather than refined.

    The refinement stops once its bracket in log(x) is narrower than
    ``rel_tol * max(|log lo|, |log hi|)``: a width in log(x) that grows
    with |log x|, so the unit of x sets how far it refines.  At
    ``REL_TOL`` it takes 11 golden steps around S tau = 2.3 and 13 around
    S tau = 1.3.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
        raise ValueError("need an ascending grid of at least 3 points > 0")
    if values.shape != grid.shape:
        raise ValueError("need one value per grid point")
    if not np.any(np.isfinite(values)):
        raise NumericsError("objective is invalid across the whole bracket")
    i = int(np.argmin(values))
    x, val = float(grid[i]), float(values[i])
    if i == 0 or i == grid.size - 1:
        return x, val, "lower" if i == 0 else "upper"
    log_x, log_val = golden_section(lambda u: f(math.exp(u)), math.log(grid[i - 1]),
                                    math.log(grid[i + 1]), rel_tol=rel_tol)
    if val < log_val:
        return x, val, None
    return math.exp(log_x), log_val, None


def _coherent_xi(d: DerivedParams, tier: str, protocol: str):
    """The coherent xi of ``d`` as a function of a float time or a one-dimensional
    ascending time array.

    The analytic tier is one ``analytic.xi_unitary`` call.  The Dicke tier
    makes one ``dicke.coherent_moments`` kernel here and reduces each grid it
    returns with ``dicke.min_transverse_variance``, where a degenerate mean
    spin (|<S>| <= 1e-9 S) is +inf, invalid and not fatal: without noise the
    time bracket can reach the collapse of the twisted mean spin.  A float
    time is a one-point grid whose record is reduced as floats.
    """
    if tier == "analytic":
        return lambda times: analytic.xi_unitary(d, times).xi
    kernel, half_S = dicke.coherent_moments(d, protocol), d.spin_S / 2.0

    def xi(times):
        if isinstance(times, float):
            return float(dicke.min_transverse_variance(kernel(np.array([times])).point(0))[0]
                         / half_S)
        return dicke.min_transverse_variance(kernel(times))[0] / half_S
    return xi


def _check_floor(d: DerivedParams, xi_min: float, noise: NoiseModel, protocol: str) -> None:
    """Raise NumericsError when xi_min is below half the closed-form floor.

    The floor is defined with both noise channels on and a finite eta.
    """
    if not (noise.include_free_space and noise.include_cavity_leak and math.isfinite(d.eta)):
        return
    floor = _closed_form_floor(d.params.n_atoms, d.eta, noise.detector_efficiency_q, protocol)
    if xi_min < 0.5 * floor:
        raise NumericsError(
            f"xi_min={float(xi_min)!r} is below half the closed-form floor {floor!r}; "
            "the optimizer left the additive-noise validity regime")


def _closed_form_floor(n_atoms, eta, q, protocol: str) -> float:
    floor = analytic.tat_xi_floor if protocol == "tat" else analytic.xi_bound
    return floor(n_atoms, eta, q)


class _DetuningNoise:
    """The noise's share of xi over Delta at fixed tau = Omega t, and its least value.

    It is 2[h(p_leak) + h(p_decay)], h(p) = p(1-p), with p_leak = tanh(a/Delta),
    a = (1-q) S kappa tau, and p_decay = 1 - exp(-b Delta), b = Gamma tau/g^2;
    ``leak`` and ``decay`` are a/tau and b/tau, 0 for a channel that is off.
    Each method takes a float tau, or works element by element over an array.
    """

    def __init__(self, S, g2, kappa, gamma, noise: NoiseModel):
        self.S, self.g2, self.kappa, self.gamma, self.noise = S, g2, kappa, gamma, noise
        self.leak = ((1.0 - noise.detector_efficiency_q) * S * kappa
                     if noise.include_cavity_leak and kappa > 0 else 0.0)
        self.decay = gamma / g2 if noise.include_free_space and gamma > 0 else 0.0

    def added_xi(self, tau, delta):
        """The noise's share of xi at (tau, Delta), +inf past the exposure guard."""
        S, g2, kappa = self.S, self.g2, self.kappa
        budget = analytic._noise_channels(S, S * (g2 / delta / delta) * kappa, kappa,
                                          self.gamma, tau * delta / g2, self.noise)
        valid = (budget.p_leak <= MAX_EXPOSURE) & (budget.p_decay <= MAX_EXPOSURE)
        return analytic._where(valid, budget.added_var / (S / 2.0), math.inf)

    def least(self, tau, d_lo, d_hi):
        """(added xi, Delta) of the least noise over [d_lo, d_hi] at tau, +inf where no
        Delta passes the guard, and the ends of that valid range.  Its guard ends sit
        1e-12 inside, so that rounding keeps them valid.  Six Newton steps on the slope
        in u = log Delta start from log D*, D* = sqrt(a/b) the first-order minimum, and
        the range's ends compete with the result: h'(1/2) = 0 makes a guard end a local
        minimum.  An end of [d_lo, d_hi] keeps its bits; the lower Delta wins a tie."""
        end_lo, end_hi = d_lo, d_hi
        if self.leak:
            end_lo = np.maximum(d_lo, (1.0 + 1e-12) * self.leak * tau / math.atanh(MAX_EXPOSURE))
        if self.decay:  # the floor keeps the end finite where tau is near the float minimum
            end_hi = np.minimum(d_hi, (1.0 - 1e-12) * -math.log1p(-MAX_EXPOSURE)
                                / np.maximum(self.decay * tau, 1e-300))
        best, delta = self.added_xi(tau, end_lo), end_lo
        candidates = []
        if self.leak and self.decay:
            a, b = self.leak * tau, self.decay * tau
            u_lo, u_hi = np.log(end_lo), np.log(end_hi)
            u = np.minimum(np.maximum(0.5 * math.log(self.leak / self.decay), u_lo), u_hi)
            for _ in range(6):
                x = np.exp(u)
                leak_x, decay_x = a / x, b * x
                p_l, s = np.tanh(leak_x), np.exp(-decay_x)  # p_leak and 1 - p_decay
                d_l, d_d = leak_x * (1.0 - p_l * p_l), decay_x * s  # -dp_leak/du, dp_decay/du
                slope = (2.0 * s - 1.0) * d_d - (1.0 - 2.0 * p_l) * d_l
                curve = (d_d * (2.0 * s - 1.0 - decay_x * (4.0 * s - 1.0))
                         + d_l * (1.0 - 2.0 * p_l - 2.0 * leak_x * (1.0 + p_l - 3.0 * p_l * p_l)))
                # where the noise is not convex the step runs to an end of the range
                u = np.minimum(np.maximum(u - slope / np.maximum(curve, 1e-300), u_lo), u_hi)
            x = np.exp(u)
            candidates.append((analytic._where((u > u_lo) & (u < u_hi), self.added_xi(tau, x),
                                               math.inf), x))
        candidates.append((self.added_xi(tau, end_hi), end_hi))
        for value, x in candidates:
            take = value < best
            best, delta = analytic._where(take, value, best), analytic._where(take, x, delta)
        return analytic._where(end_lo < end_hi, best, math.inf), delta, end_lo, end_hi


def optimal_time(d: DerivedParams, noise: NoiseModel, tier: str = "auto",
                 protocol: str = "oat", t_max: float | None = None) -> OptimizationResult:
    """Minimize xi_total over t in (0, t_max] at the detuning of ``d``.

    This is :func:`optimal_detuning` on the one-point detuning bracket
    (|Delta|, |Delta|), since xi is even in the sign of Delta, with the same
    time bracket: its top is ``t_max``, by default 10/Gamma (or a quarter
    twisting period when Gamma = 0), and its bottom t_max * 1e-8.  The
    result carries no detuning, so only ``time_*_edge`` flags can be set.
    """
    p, delta = d.params, abs(d.params.delta)
    result = optimal_detuning(p.coupling_g, p.kappa, p.gamma, p.n_atoms, noise, tier, protocol,
                              bracket=(delta, delta), t_max=t_max)
    return replace(result, delta_opt=None, bracket_delta=None)


def optimal_detuning(coupling_g: float, kappa: float, gamma: float, n_atoms: int,
                     noise: NoiseModel, tier: str = "auto", protocol: str = "oat",
                     bracket: tuple[float, float] | None = None,
                     t_max: float | None = None) -> OptimizationResult:
    """Minimize xi over (Delta, t) at fixed g, kappa, Gamma, N, as a scan over tau = Omega t.

    Scans Delta > 0 on the bracket [lo, hi], by default [kappa, 1e4 kappa]
    (xi is even in the sign of Delta), and t in (0, t_max]: by default
    t_max = 10/Gamma, or a quarter twisting period at each Delta when
    Gamma = 0, and the bottom of the time bracket is t_max * 1e-8.  With
    Omega = g^2/Delta the coherent xi depends on N and tau alone; at fixed
    tau the detuning only trades the cavity leak against free-space decay.
    So xi(tau) = xi_coh(tau) + the least added noise over Delta, on a log
    grid of tau that spans the bracket:

    * the least noise at each tau is :meth:`_DetuningNoise.least` on the
      Delta where t = tau Delta/g^2 stays inside the time bracket: one
      array call on the coarse tau grid, +inf at a tau with no valid Delta;
    * xi_coh is one ``analytic.xi_unitary`` call or one call of a single
      ``dicke.coherent_moments`` kernel, at the valid tau of that grid only;
    * the sum is refined on log(S tau), each step a float call of both.

    A one-point bracket, lo = hi, fixes the detuning (this is
    :func:`optimal_time`): each tau has that one Delta, with no search
    over Delta, and the tau grid keeps every t inside the time bracket.
    A ``t_max`` that is not finite, or whose bracket bottom t_max * 1e-8 is
    not a normal float, raises ``ValueError``.

    Flags: ``delta_*_edge`` when the best detuning at the optimal tau sits
    on the Delta bracket; ``time_*_edge`` when it sits on an end of the
    time bracket, or the optimal tau on an end of its grid.  A best
    detuning on a guard end whose valid range has pinched to within the
    tau refinement's resolution counts as the range's other end.
    ``t_opt`` = tau Delta/g^2 is clamped into ``bracket_t``, which its
    rounding can leave by an ulp or so at an edge; an interior optimum
    keeps its bits.
    """
    tier, protocol = resolve_tier(tier, protocol)
    if bracket is None:
        if kappa <= 0:
            raise PhysicsError("default detuning bracket needs kappa > 0; pass bracket=")
        bracket = (kappa, 1e4 * kappa)
    if not (0 < bracket[0] <= bracket[1]):
        raise ValueError(f"need a detuning bracket with 0 < lo <= hi, got {bracket!r}")
    if t_max is not None and not valid_t_max(t_max):
        raise ValueError(f"need a finite t_max with t_max * {T_BOTTOM!r} a normal float, "
                         f"got {t_max!r}")
    lo, hi = bracket
    d = derive_params(SystemParams(n_atoms=n_atoms, coupling_g=coupling_g, kappa=kappa,
                                   gamma=gamma, delta=lo))
    g2, S = coupling_g ** 2, d.spin_S
    if t_max is None and gamma <= 0:  # the top pi/(2|Omega|) is tau = pi/2 at every Delta
        t_top = reach = None
        xs = np.geomspace(S * math.pi / 2.0 * T_BOTTOM, S * math.pi / 2.0, TIME_GRID_POINTS)
    else:
        t_top = 10.0 / gamma if t_max is None else float(t_max)
        reach = g2 * t_top  # tau Delta at the top of the time bracket
        xs = np.geomspace(S * T_BOTTOM * reach / hi, S * reach / lo, TIME_GRID_POINTS)

    solver = _DetuningNoise(S, g2, d.params.kappa, d.params.gamma, noise)

    def detuning_range(tau):  # the Delta of the bracket at which t = tau Delta/g^2 is in its own
        if reach is None:
            return lo, hi
        return np.maximum(lo, T_BOTTOM * reach / tau), np.minimum(hi, reach / tau)

    def least_noise(tau):  # a one-point bracket has nothing to search
        return solver.least(tau, *detuning_range(tau))[0] if hi > lo else solver.added_xi(tau, lo)

    coherent = _coherent_xi(replace(d, omega_twist=1.0), tier, protocol)  # a function of tau

    def total(x):  # xi at tau = x/S with its least-noise detuning, +inf if none is valid
        tau = x / S
        noise_xi = least_noise(tau)
        return noise_xi if noise_xi == math.inf else coherent(tau) + noise_xi

    taus = xs / S
    noise_xi = least_noise(taus)
    coarse, valid = np.full(taus.shape, math.inf), np.isfinite(noise_xi)
    if np.any(valid):
        coarse[valid] = coherent(taus[valid]) + noise_xi[valid]
    x_opt, xi_min, tau_edge = minimize_on_log_axis(total, xs, coarse, REL_TOL)
    flags = () if tau_edge is None else (f"time_{tau_edge}_edge",)
    delta_opt = lo
    if hi > lo:
        d_lo, d_hi = detuning_range(x_opt / S)
        _, delta, end_lo, end_hi = solver.least(x_opt / S, d_lo, d_hi)
        delta_opt = float(delta)
        # a guard end within twice the refinement's final width, at most
        # REL_TOL (|log(S tau)| + 1), of a bracket end sits at the corner they make
        pinched = end_hi <= end_lo * math.exp(2.0 * REL_TOL * (abs(math.log(x_opt)) + 1.0))
        if delta_opt == d_lo or pinched and delta_opt == end_hi < d_hi and end_lo == d_lo:
            flags += ("delta_lower_edge" if d_lo == lo else "time_lower_edge",)
        elif delta_opt == d_hi or pinched and delta_opt == end_lo > d_lo and end_hi == d_hi:
            flags += ("delta_upper_edge" if d_hi == hi else "time_upper_edge",)
    _check_floor(d, xi_min, noise, protocol)
    top = t_top if t_top is not None else math.pi / (2.0 * abs(g2 / delta_opt))
    # tau Delta/g^2 can round just past an end of the time bracket
    t_opt = min(max(x_opt / S * delta_opt / g2, top * T_BOTTOM), top)
    return OptimizationResult(t_opt=t_opt, xi_min=xi_min,
                              xi_min_db=float(analytic.to_db(xi_min)), model_tier=tier,
                              protocol=protocol, delta_opt=delta_opt,
                              bracket_t=(top * T_BOTTOM, top), bracket_delta=bracket,
                              flags=tuple(dict.fromkeys(flags)))


@dataclass(frozen=True)
class ScalingPoint:
    n_atoms: int
    eta: float
    n_eta: float
    xi_min: float
    xi_min_db: float
    floor: float
    t_opt: float
    delta_opt: float | None


@dataclass(frozen=True)
class ScalingScan:
    points: tuple[ScalingPoint, ...]
    slope: float
    intercept: float
    protocol: str

    def rows(self) -> list[dict]:
        return [vars(p).copy() for p in self.points]


def scaling_scan(points, protocol: str = "oat",
                 kappa: float = TWO_PI * 1e5, gamma: float = TWO_PI * 7e-3,
                 noise: NoiseModel | None = None) -> ScalingScan:
    """Optimum xi versus N*eta, with the matching closed-form floor.

    ``points`` is a list of (n_atoms, eta) pairs, each with n_atoms >= 1
    and a finite eta > 0; it must hold at least 3 of them spanning at least
    two decades of N*eta.  g is derived from eta
    at fixed (kappa, gamma), and a log-log slope of xi_min against N*eta
    is fitted.  Each point is one :func:`optimal_detuning` solve.
    Noiseless rotation-assisted rows, where xi does not depend on the
    detuning, take one ``optimal_time`` each at Delta = 100 kappa.
    """
    tier, protocol = resolve_tier("auto", protocol)
    pts = [(int(n), float(eta)) for n, eta in points]
    for n, eta in pts:
        if n < 1 or not (math.isfinite(eta) and eta > 0):
            raise PhysicsError(f"scan point [{n}, {eta!r}] needs n_atoms >= 1 and a finite eta > 0")
    if len(pts) < 3:
        raise PhysicsError("need at least 3 scan points")
    n_etas = [n * eta for n, eta in pts]
    if max(n_etas) / min(n_etas) < 100.0:
        raise PhysicsError("scan points must span at least two decades of N*eta")
    if noise is None:
        noise = NoiseModel()
    atoms_g = [(n, math.sqrt(eta * gamma * kappa) / 2.0) for n, eta in pts]
    if protocol == "tat" and not noise.any_active:  # xi does not depend on the detuning here
        results = [optimal_time(derive_params(SystemParams(n_atoms=n, coupling_g=g, kappa=kappa,
                                                           gamma=gamma, delta=100.0 * kappa)),
                                noise, protocol="tat") for n, g in atoms_g]
    else:
        results = [optimal_detuning(g, kappa, gamma, n, noise, tier, protocol) for n, g in atoms_g]
    rows = [ScalingPoint(n_atoms=n, eta=eta, n_eta=n * eta, xi_min=result.xi_min,
                         xi_min_db=result.xi_min_db,
                         floor=_closed_form_floor(n, eta, noise.detector_efficiency_q, protocol),
                         t_opt=result.t_opt, delta_opt=result.delta_opt)
            for (n, eta), result in zip(pts, results)]
    slope, intercept = np.polyfit(np.log([r.n_eta for r in rows]),
                                  np.log([r.xi_min for r in rows]), 1)
    return ScalingScan(points=tuple(rows), slope=float(slope),
                       intercept=float(intercept), protocol=protocol)


def feasibility_report(p: SystemParams, f: FeasibilityParams) -> FeasibilityReport:
    """Evaluate the robustness arithmetic verbatim (pure, deterministic)."""
    d = derive_params(p)
    omega = abs(d.omega_twist)
    samples = f.noise_bandwidth_hz * f.squeeze_time
    rel_error = (f.fsr_jitter / abs(p.delta)) / math.sqrt(samples)
    half_fsr = f.fsr / 2.0
    suppression = (abs(p.delta) / half_fsr) * (f.fsr_jitter / half_fsr)
    fractional = None if p.omega0 is None else omega / p.omega0
    return FeasibilityReport(omega_twist_hz=omega / TWO_PI,
                             squeeze_phase_rel_error=rel_error,
                             suppression_factor=suppression,
                             clock_shift_during_squeeze=omega,
                             fractional_accuracy=fractional)
