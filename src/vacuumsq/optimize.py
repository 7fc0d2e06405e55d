"""Squeezing-time/detuning optimization, scaling scans, feasibility arithmetic.

Objectives are smooth and unimodal in the regime where the additive
decoherence model is meaningful, so minimization is a coarse logarithmic
grid followed by golden-section refinement on the log axis.  There is one
search, ``optimal_detuning``, over (t, Delta) through the twisting angle
tau = Omega t, Omega = g^2/Delta: the coherent squeezing depends on N and
tau alone, so the detuning only moves the noise.  Its coarse tau grid
takes one coherent kernel call and one call of the noise on a Delta grid
per tau; the refinement over tau runs on plain floats, each step a scalar
search over Delta and one scalar coherent point.  Every tau whose Delta
range is the whole bracket shares one Delta grid.  ``optimal_time`` is
that search on a one-point Delta range, and ``scaling_scan`` runs it once
per point.

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
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import (DerivedParams, FeasibilityParams, NumericsError, PhysicsError, SystemParams,
                   TWO_PI, derive_params, resolve_tier)
from .analytic import NoiseModel
from . import analytic, dicke

__all__ = [
    "OptimizationResult", "FeasibilityReport", "ScalingPoint", "ScalingScan",
    "optimal_time", "optimal_detuning", "scaling_scan", "feasibility_report",
    "golden_section", "minimize_on_log_axis",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_EXPOSURE = 0.5  # binomial noise exposures beyond this are unphysical
TIME_GRID_POINTS = 240      # coarse log grid of tau in optimal_detuning, and so in optimal_time
DETUNING_GRID_POINTS = 96   # coarse log grid of Delta at each tau of optimal_detuning
# golden_section's tolerance in every refinement, over tau and Delta: it
# stops once the bracket is narrower than REL_TOL * max(|lo|, |hi|).  The
# refinements run on log(x), so that is an absolute width in log(x) that
# scales with |log x| and depends on the unit of x (see minimize_on_log_axis),
# not a width relative to x.
REL_TOL = 1e-3
T_BOTTOM = 1e-8  # the bottom of every time bracket over its top


def valid_t_max(t_max) -> bool:
    """Whether ``t_max`` can top a time bracket: finite, and its bottom a normal float."""
    return math.isfinite(t_max) and t_max * T_BOTTOM >= sys.float_info.min


@dataclass(frozen=True)
class OptimizationResult:
    """Minimizer output with bracket/tolerance provenance.

    ``flags`` collects bracket-edge conditions ("time_lower_edge", ...);
    an empty tuple means a clean interior optimum.
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
    ``REL_TOL`` it takes 5 golden steps around Delta = 7e7 rad/s (a final
    width of 1.7 % in Delta), 11 around S tau = 2.3 and 13 around S tau = 1.3.
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


def _edge_flags(edge, label):
    return () if edge is None else (f"{label}_{edge}_edge",)


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

    * the noise at each tau is read on a log grid of the Delta where
      t = tau Delta/g^2 stays inside the time bracket, all taus in one
      call; a tau with no Delta there, or none that passes the exposure
      guard, is invalid (+inf).  Each distinct Delta range gets its grid
      once per solve, so every tau whose range is the whole bracket shares
      one grid;
    * the coarse tau grid takes each tau's least noise on its Delta grid
      as it stands, except at its argmin, where the noise is refined;
    * xi_coh is one ``analytic.xi_unitary`` call or one call of a single
      ``dicke.coherent_moments`` kernel, at the valid tau only;
    * the sum is refined on log(S tau) with calls on Python floats, each a
      noise call on the tau's Delta grid, a scalar golden search over
      Delta and one scalar coherent point; the noise goes through
      ``analytic._noise_channels`` with no ``DerivedParams`` per call;
    * each tau's Delta solve is kept, so the detuning at the optimal tau is
      the one found when the search reached that tau, not solved again.

    A one-point bracket, lo = hi, fixes the detuning (this is
    :func:`optimal_time`): each tau has that one Delta, with no Delta grid
    and no search over Delta, and the tau grid keeps every t inside the
    time bracket.  A ``t_max`` that is not finite, or whose bracket bottom
    t_max * 1e-8 is not a normal float, raises ``ValueError``.

    Flags: ``delta_*_edge`` when the best detuning at the optimal tau sits
    on the Delta bracket; ``time_*_edge`` when it sits on an end of the
    time bracket, or the optimal tau on an end of its grid.  ``t_opt`` =
    tau Delta/g^2 is clamped into ``bracket_t``, which its rounding can
    leave by an ulp or so at an edge; an interior optimum keeps its bits.
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

    p = d.params

    def added_xi(tau, delta):  # the noise's share of xi at (tau, Delta), +inf past the guard
        omega = g2 / delta
        budget = analytic._noise_channels(S, S * (omega / delta) * p.kappa, p.kappa, p.gamma,
                                          tau * delta / g2, noise)
        added = budget.added_var / (S / 2.0)
        if isinstance(added, float):
            valid = budget.p_leak <= MAX_EXPOSURE and budget.p_decay <= MAX_EXPOSURE
            return added if valid else math.inf
        valid = (budget.p_leak <= MAX_EXPOSURE) & (budget.p_decay <= MAX_EXPOSURE)
        return np.where(valid, added, math.inf)

    grids = {}  # (d_lo, d_hi) -> its Delta grid, and whether float rounding left it ascending

    def detuning_grid(d_lo, d_hi):
        if (d_lo, d_hi) not in grids:
            grid = np.geomspace(d_lo, d_hi, DETUNING_GRID_POINTS)
            grids[d_lo, d_hi] = grid, bool(np.all(np.diff(grid) > 0))
        return grids[d_lo, d_hi]

    def detuning_grids(tau):
        """The rows of the taus with a valid detuning on an ascending Delta grid, and the
        added xi on their grids; one Delta per tau if hi == lo.  Every row whose Delta
        range is the whole bracket takes the bracket's one grid."""
        if reach is None or hi == lo:  # the tau grid keeps every t inside the time bracket
            d_lo, d_hi = np.full(tau.shape, lo), np.full(tau.shape, hi)
        else:
            d_lo, d_hi = np.maximum(lo, T_BOTTOM * reach / tau), np.minimum(hi, reach / tau)
        rows = np.flatnonzero(d_lo <= d_hi)
        if hi == lo:
            grid, ascending = d_lo[rows, None], True
        else:
            whole = (d_lo[rows] == lo) & (d_hi[rows] == hi)
            grid = np.empty((rows.size, DETUNING_GRID_POINTS))
            ascending = np.empty(rows.size, dtype=bool)
            clipped = rows[~whole]
            grid[~whole] = np.geomspace(d_lo[clipped], d_hi[clipped], DETUNING_GRID_POINTS,
                                        axis=1)
            ascending[~whole] = np.all(np.diff(grid[~whole]) > 0, axis=1)
            if np.any(whole):
                grid[whole], ascending[whole] = detuning_grid(lo, hi)
        values = added_xi(tau[rows, None], grid)
        keep = np.any(np.isfinite(values), axis=1) & ascending
        return rows[keep], values[keep]

    solved = {}  # tau -> best_detuning(tau), so that no tau is solved twice

    def best_detuning(tau):
        """(added xi, Delta, edge, Delta range) of the refined least-noise detuning at one tau."""
        tau = float(tau)
        if tau in solved:
            return solved[tau]
        if hi == lo:  # one detuning: nothing to search
            solved[tau] = added_xi(tau, lo), lo, None, lo, hi
            return solved[tau]
        if reach is None:
            d_lo, d_hi = lo, hi
        else:
            d_lo, d_hi = max(lo, T_BOTTOM * reach / tau), min(hi, reach / tau)
        grid, ascending = detuning_grid(d_lo, d_hi) if d_lo <= d_hi else (None, False)
        values = added_xi(tau, grid) if ascending else None
        if values is None or not np.any(np.isfinite(values)):
            solved[tau] = math.inf, math.nan, None, d_lo, d_hi
        else:
            delta, value, edge = minimize_on_log_axis(lambda delta: added_xi(tau, delta),
                                                      grid, values, REL_TOL)
            solved[tau] = value, delta, edge, d_lo, d_hi
        return solved[tau]

    coherent = _coherent_xi(replace(d, omega_twist=1.0), tier, protocol)  # a function of tau

    def total(x):  # xi at tau = x/S with its refined least-noise detuning, +inf if none is valid
        tau = x / S
        noise_xi = best_detuning(tau)[0]
        return noise_xi if noise_xi == math.inf else coherent(tau) + noise_xi

    taus = xs / S
    rows, values = detuning_grids(taus)
    coarse = np.full(taus.shape, math.inf)
    if rows.size:
        coherent_xi, noise_xi = coherent(taus[rows]), values.min(axis=1)
        # refine the noise at the argmin, whose xi the tau refinement's result competes with
        k = int(np.argmin(coherent_xi + noise_xi))
        noise_xi[k] = best_detuning(taus[rows[k]])[0]
        coarse[rows] = coherent_xi + noise_xi
    x_opt, xi_min, tau_edge = minimize_on_log_axis(total, xs, coarse, REL_TOL)
    _, delta_opt, edge, d_lo, d_hi = best_detuning(x_opt / S)
    flags = _edge_flags(tau_edge, "time")
    if edge is not None:
        on_bracket = d_lo == lo if edge == "lower" else d_hi == hi
        flags += _edge_flags(edge, "delta" if on_bracket else "time")
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
