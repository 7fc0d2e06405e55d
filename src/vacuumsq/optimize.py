"""Squeezing-time/detuning optimization, scaling scans, feasibility arithmetic.

Objectives are smooth and unimodal in the regime where the additive
decoherence model is meaningful, so minimization is a coarse logarithmic
grid followed by golden-section refinement, on log(t) and log(Delta).

Validity guard: each binomial noise variance S p(1-p) stops being a
faithful error measure once its exposure p passes 1/2 (the variance then
shrinks although the state keeps decohering).  Candidate optima in that
regime are treated as invalid (+inf objective) so the search stays on the
physical branch; results additionally carry a sanity check against the
closed-form floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DerivedParams, FeasibilityParams, NumericsError, PhysicsError,
                   SystemParams, TWO_PI, derive_params, resolve_tier)
from .analytic import NoiseModel
from . import analytic, dicke

__all__ = [
    "OptimizationResult", "FeasibilityReport", "ScalingPoint", "ScalingScan",
    "optimal_time", "optimal_detuning", "scaling_scan", "feasibility_report",
    "golden_section", "minimize_on_log_axis",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_EXPOSURE = 0.5  # binomial noise exposures beyond this are unphysical


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
    rel_tol: float = 1e-3
    flags: tuple[str, ...] = ()

    @property
    def interior(self) -> bool:
        return not self.flags


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


def golden_section(f, lo: float, hi: float, rel_tol: float = 1e-3):
    """Deterministic golden-section minimum of f on [lo, hi] (linear axis)."""
    if not (hi > lo):
        raise ValueError("need hi > lo")
    span = hi - lo
    scale = max(abs(lo), abs(hi))
    n_iter = max(0, math.ceil(math.log(rel_tol * scale / span) / math.log(_INV_GOLDEN))) \
        if span > rel_tol * scale else 0
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(n_iter):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return (x, fc) if fc <= fd else (x, fd)


def minimize_on_log_axis(f, lo: float, hi: float, n_grid: int, rel_tol: float):
    """Coarse geometric grid, then golden refinement between the neighbors.

    Returns (x, f(x), edge) where edge is None, "lower" or "upper" --
    an edge argmin means the objective is monotone (or invalid) across the
    bracket and is reported distinctly rather than refined.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    grid = np.geomspace(lo, hi, n_grid)
    values = np.array([f(x) for x in grid])
    if not np.any(np.isfinite(values)):
        raise NumericsError("objective is invalid across the whole bracket")
    i = int(np.argmin(values))
    if i == 0:
        return float(grid[0]), float(values[0]), "lower"
    if i == n_grid - 1:
        return float(grid[-1]), float(values[-1]), "upper"
    log_x, log_val = golden_section(lambda u: f(math.exp(u)),
                                    math.log(grid[i - 1]), math.log(grid[i + 1]),
                                    rel_tol=rel_tol)
    x, val = math.exp(log_x), log_val
    if values[i] < val:  # keep the better of grid point and refinement
        x, val = float(grid[i]), float(values[i])
    return x, val, None


def _xi_objective(d: DerivedParams, noise: NoiseModel, tier: str, protocol: str):
    """xi_total(t) callable for a resolved tier/protocol, +inf when invalid.

    The noise budget is evaluated once per point: its exposures guard the
    validity regime and its variance is added to the coherent xi.
    """
    if tier == "analytic":
        def coherent_xi(t):
            return analytic.xi_unitary(d, t).xi
    else:
        state0 = dicke.css(d.params.n_atoms)
        if protocol == "tat":
            propagator = dicke.TatPropagator(state0.spin_S, d.omega_twist)

            def coherent_xi(t):
                return dicke.xi_numeric(propagator.evolve(state0, t))
        else:
            def coherent_xi(t):
                return dicke.xi_numeric(dicke.evolve_oat(state0, d.omega_twist, t))

    def objective(t):
        budget = analytic.noise_budget(d, t, noise)
        if not (budget.p_leak <= MAX_EXPOSURE and budget.p_decay <= MAX_EXPOSURE):
            return math.inf
        return float(coherent_xi(t) + budget.added_var / (d.spin_S / 2.0))
    return objective


def _closed_form_floor(n_atoms, eta, q, protocol: str) -> float:
    floor = analytic.tat_xi_floor if protocol == "tat" else analytic.xi_bound
    return floor(n_atoms, eta, q)


def _floor_value(d: DerivedParams, noise: NoiseModel, protocol: str):
    """Closed-form optimum floor, when defined for the active noise set."""
    if not (noise.include_free_space and noise.include_cavity_leak and math.isfinite(d.eta)):
        return None
    return _closed_form_floor(d.params.n_atoms, d.eta, noise.detector_efficiency_q, protocol)


def _edge_flags(edge, label):
    return () if edge is None else (f"{label}_{edge}_edge",)


def optimal_time(d: DerivedParams, noise: NoiseModel, tier: str = "auto",
                 protocol: str = "oat", t_max: float | None = None,
                 n_grid: int = 240, rel_tol: float = 1e-3) -> OptimizationResult:
    """Minimize xi_total over t in (0, t_max].

    Default bracket top is 10/Gamma (or a quarter twisting period when
    Gamma = 0); the bottom is t_max * 1e-8.  Deterministic: identical
    inputs give bit-identical results.  ``tier``/``protocol`` are checked
    by :func:`core.resolve_tier`.  A result more than 2x below the
    closed-form floor signals the optimizer escaped the model's validity
    regime.
    """
    tier, protocol = resolve_tier(tier, protocol)
    if t_max is None:
        gamma = d.params.gamma
        t_max = 10.0 / gamma if gamma > 0 else math.pi / (2.0 * abs(d.omega_twist))
    objective = _xi_objective(d, noise, tier, protocol)
    t_opt, xi_min, edge = minimize_on_log_axis(objective, t_max * 1e-8, t_max,
                                               n_grid, rel_tol)
    floor = _floor_value(d, noise, protocol)
    if floor is not None and xi_min < 0.5 * floor:
        raise NumericsError(
            f"xi_min={xi_min!r} is below half the closed-form floor {floor!r}; "
            "the optimizer left the additive-noise validity regime")
    return OptimizationResult(t_opt=t_opt, xi_min=xi_min,
                              xi_min_db=float(analytic.to_db(xi_min)),
                              model_tier=tier, protocol=protocol,
                              bracket_t=(t_max * 1e-8, t_max), rel_tol=rel_tol,
                              flags=_edge_flags(edge, "time"))


def optimal_detuning(coupling_g: float, kappa: float, gamma: float, n_atoms: int,
                     noise: NoiseModel, tier: str = "auto", protocol: str = "oat",
                     bracket: tuple[float, float] | None = None,
                     n_grid: int = 96, rel_tol: float = 1e-3,
                     t_max: float | None = None) -> OptimizationResult:
    """Nested minimization of xi over (Delta, t) at fixed g, kappa, Gamma, N.

    Scans Delta > 0 on [kappa, 1e4 kappa] by default (xi is even in the
    sign of Delta).  Each candidate detuning is solved for its optimal
    time; the outer golden section then refines the detuning.
    """
    tier, protocol = resolve_tier(tier, protocol)
    if bracket is None:
        if kappa <= 0:
            raise PhysicsError("default detuning bracket needs kappa > 0; pass bracket=")
        bracket = (kappa, 1e4 * kappa)

    def solve_at(delta):
        params = SystemParams(n_atoms=n_atoms, coupling_g=coupling_g, kappa=kappa,
                              gamma=gamma, delta=delta)
        return optimal_time(derive_params(params), noise, tier=tier, protocol=protocol,
                            t_max=t_max, rel_tol=rel_tol)

    def outer(delta):
        return solve_at(delta).xi_min

    delta_opt, _, edge = minimize_on_log_axis(outer, bracket[0], bracket[1],
                                              n_grid, rel_tol)
    inner = solve_at(delta_opt)
    return OptimizationResult(t_opt=inner.t_opt, xi_min=inner.xi_min,
                              xi_min_db=inner.xi_min_db, model_tier=inner.model_tier,
                              protocol=protocol, delta_opt=delta_opt,
                              bracket_t=inner.bracket_t, bracket_delta=bracket,
                              rel_tol=rel_tol,
                              flags=inner.flags + _edge_flags(edge, "delta"))


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


def scaling_scan(points, q: float = 0.0, protocol: str = "oat",
                 kappa: float = TWO_PI * 1e5, gamma: float = TWO_PI * 7e-3,
                 noise: NoiseModel | None = None) -> ScalingScan:
    """Optimum xi versus N*eta, with the matching closed-form floor.

    ``points`` is a list of (n_atoms, eta) pairs; it must hold at least 3
    of them spanning at least two decades of N*eta.  g is derived from eta
    at fixed (kappa, gamma), the detuning is optimized per point (except
    for noiseless rotation-assisted rows, where xi does not depend on it),
    and a log-log slope of xi_min against N*eta is fitted.
    """
    resolve_tier("auto", protocol)
    pts = [(int(n), float(eta)) for n, eta in points]
    if len(pts) < 3:
        raise PhysicsError("need at least 3 scan points")
    n_etas = [n * eta for n, eta in pts]
    if max(n_etas) / min(n_etas) < 100.0:
        raise PhysicsError("scan points must span at least two decades of N*eta")
    if noise is None:
        noise = NoiseModel(detector_efficiency_q=q)

    def solve(point):
        n, eta = point
        g = math.sqrt(eta * gamma * kappa) / 2.0
        if protocol == "tat" and not noise.any_active:
            params = SystemParams(n_atoms=n, coupling_g=g, kappa=kappa, gamma=gamma,
                                  delta=100.0 * kappa)  # xi independent of delta here
            result = optimal_time(derive_params(params), noise, protocol="tat")
        else:
            result = optimal_detuning(g, kappa, gamma, n, noise, protocol=protocol)
        floor = _closed_form_floor(n, eta, noise.detector_efficiency_q, protocol)
        return ScalingPoint(n_atoms=n, eta=eta, n_eta=n * eta, xi_min=result.xi_min,
                            xi_min_db=result.xi_min_db, floor=floor,
                            t_opt=result.t_opt, delta_opt=result.delta_opt)

    rows = [solve(p) for p in pts]
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
