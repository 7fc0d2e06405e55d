"""Squeezing-time/detuning optimization, scaling scans, feasibility arithmetic.

Objectives are smooth and unimodal in the regime where the additive
decoherence model is meaningful, so minimization is a coarse logarithmic
grid followed by golden-section refinement, on log(t) and log(Delta).
The time optimizer works on lanes, one per (N, g, detuning): the
squeezing objective takes every lane's coarse time grid as one (lanes x
points) array call, and the golden-section refinement steps all lanes in
lockstep, one call per step.  ``optimal_time`` is the one-lane case,
which calls the objective with scalars.  The detuning optimizer works on
lanes too, one per point: each point solves its whole coarse detuning
grid as one lane batch (lane by lane on the Dicke tier), and the outer
golden section then refines the detunings of all points in lockstep,
solving every point's candidate in one lane solve per step.
``optimal_detuning`` is its one-point case, and ``scaling_scan`` runs all
of its points through it at once.

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

from .core import (DegenerateMeanSpinError, DerivedParams, FeasibilityParams, NumericsError,
                   PhysicsError, SystemParams, TWO_PI, derive_params, resolve_tier)
from .analytic import NoiseModel
from . import analytic, dicke

__all__ = [
    "OptimizationResult", "FeasibilityReport", "ScalingPoint", "ScalingScan",
    "optimal_time", "optimal_detuning", "scaling_scan", "feasibility_report",
    "golden_section", "minimize_on_log_axis",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The refinement maps between x and log(x) with libm's exp and log, element
# by element: numpy's vectorized exp and log differ from them in the last
# bit for some inputs, which would move refined optima by an ulp.  The
# arrays are lane columns, short enough that a Python loop beats
# np.vectorize's set-up.


def _libm(fn):
    return lambda x: np.fromiter(map(fn, np.ravel(x)), float, np.size(x)).reshape(np.shape(x))


_exp, _log = _libm(math.exp), _libm(math.log)
MAX_EXPOSURE = 0.5  # binomial noise exposures beyond this are unphysical
TIME_GRID_POINTS = 240      # coarse log grid of optimal_time
DETUNING_GRID_POINTS = 96   # coarse log grid of optimal_detuning
REL_TOL = 1e-3              # golden-section tolerance of both, relative


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


def golden_section(f, lo, hi, rel_tol: float = REL_TOL):
    """Deterministic golden-section minima of f on [lo, hi] (linear axis), lane-wise.

    ``lo`` and ``hi`` are scalars or arrays of one shape, one lane per
    element, and ``f`` maps an array of that shape to the values there.
    Each lane takes its own number of iterations, set by its bracket and
    ``rel_tol``, and its own fc <= fd choice.  The lanes step in lockstep,
    one call of ``f`` per step; a lane whose iterations are spent is passed
    NaN and keeps its result.  Every lane equals the one-lane search
    bitwise.  Returns (x, f(x)), as floats for scalar brackets.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not np.all(hi > lo):
        raise ValueError("need hi > lo in every lane")
    span = hi - lo
    tol = rel_tol * np.maximum(np.abs(lo), np.abs(hi))
    n_iter = np.where(span > tol, np.ceil(_log(tol / span) / math.log(_INV_GOLDEN)), 0)
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = np.asarray(f(c), dtype=float), np.asarray(f(d), dtype=float)
    for k in range(int(n_iter.max(initial=0))):
        step = k < n_iter
        left = step & (fc <= fd)  # the minimum lies in [a, d]: drop (d, b]
        right = step & ~(fc <= fd)  # it lies in [c, b]: drop [a, c)
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        x = np.where(left, b - _INV_GOLDEN * (b - a),
                     np.where(right, a + _INV_GOLDEN * (b - a), math.nan))
        fx = np.asarray(f(x), dtype=float)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
    better = fc <= fd
    x, fx = np.where(better, c, d), np.where(better, fc, fd)
    return (float(x), float(fx)) if x.ndim == 0 else (x, fx)


def _minimize_lanes(f, grid, values, rel_tol: float):
    """:func:`minimize_on_log_axis` on L lanes at once.

    ``grid`` and ``values`` are (L, K), one lane per row; ``f`` maps an
    (L, 1) column of x to the (L, 1) values there, and is passed NaN in
    the rows that take no step: edge lanes, and lanes whose golden-section
    iterations are spent.  Each lane is bracketed, refined and flagged on
    its own, and equals the one-lane search bitwise.  Returns the (L,)
    arrays x and f(x) and the list of the L edges.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 2 or grid.shape[1] < 3 or not (np.all(grid[:, 0] > 0)
                                                   and np.all(np.diff(grid) > 0)):
        raise ValueError("need an ascending grid of at least 3 points > 0")
    if values.shape != grid.shape:
        raise ValueError("need one value per grid point")
    if not np.all(np.any(np.isfinite(values), axis=1)):
        raise NumericsError("objective is invalid across the whole bracket")
    rows, last = np.arange(grid.shape[0]), grid.shape[1] - 1
    i = np.argmin(values, axis=1)
    x, val = grid[rows, i], values[rows, i]
    interior = np.flatnonzero((i > 0) & (i < last))
    if interior.size:
        def f_interior(u):  # only the interior lanes are refined; the rest are passed NaN
            column = np.full((grid.shape[0], 1), math.nan)
            column[interior] = _exp(u)
            return f(column)[interior]

        j = i[interior]
        log_x, log_val = golden_section(f_interior, _log(grid[interior, j - 1])[:, None],
                                        _log(grid[interior, j + 1])[:, None], rel_tol=rel_tol)
        refined = ~(val[interior] < log_val[:, 0])  # keep the better of grid point and refinement
        x[interior] = np.where(refined, _exp(log_x[:, 0]), x[interior])
        val[interior] = np.where(refined, log_val[:, 0], val[interior])
    edges = ["lower" if k == 0 else "upper" if k == last else None for k in i]
    return x, val, edges


def minimize_on_log_axis(f, grid, values, rel_tol: float):
    """Golden refinement of a coarse geometric grid around its argmin.

    ``grid`` is ascending, > 0 and at least 3 points long; ``values`` holds
    the objective on it, which the caller evaluates in one array call where
    the objective takes arrays.  ``f`` is called with Python scalars only,
    by the golden-section refinement on log(x) between the argmin's
    neighbors.  Returns (x, f(x), edge) where edge is None, "lower" or
    "upper" -- an edge argmin means the objective is monotone (or invalid)
    across the bracket and is reported distinctly rather than refined.
    This is the one-lane case of the lane solver that ``optimal_detuning``
    runs on its detuning grid.
    """
    x, val, (edge,) = _minimize_lanes(lambda x: np.full(x.shape, f(x.item())),
                                      np.asarray(grid, dtype=float)[None],
                                      np.asarray(values, dtype=float)[None], rel_tol)
    return float(x[0]), float(val[0]), edge


def _xi_objective(lanes, noise: NoiseModel, tier: str, protocol: str):
    """xi_total(t) on a list of lanes, +inf where invalid.

    ``lanes`` holds one DerivedParams per lane.  The lanes may differ in N,
    g and the detuning, but must share kappa, Gamma and the noise model.
    One lane takes a scalar t (giving a float) or a time array; L lanes
    take an (L, k) array, one row per lane.  The noise budget is evaluated
    on all of t at once, with the L lanes as one DerivedParams whose
    spin_S, omega_twist and leak_rate are (L, 1) columns, or scalars
    where the lanes share them (spin_S on a detuning grid).  Its exposures
    guard the validity regime point by point, and its variance is added to
    the coherent xi, which is computed only where the guard passes.  A NaN
    time, which the lane solver passes to lanes that take no step, is
    invalid whether or not a noise channel is on.  Both exposures grow with
    t, so in an ascending row those points are an ascending prefix, which
    the Dicke tier reduces in one call of the lane's own
    ``dicke.coherent_moments`` kernel, the path of
    ``dicke.squeezing_trace``.  A Dicke point whose mean spin is degenerate
    (|<S>| <= 1e-9 S, where ``dicke.min_transverse_variance`` raises) is
    invalid too: without noise the time bracket can reach the collapse of
    the twisted mean spin.
    """
    def lane_values(name):  # a value all lanes share stays a scalar
        values = [getattr(lane, name) for lane in lanes]
        return values[0] if values.count(values[0]) == len(values) else np.array(values)[:, None]

    d = replace(lanes[0], **{name: lane_values(name)
                             for name in ("spin_S", "omega_twist", "leak_rate")})
    half_S = d.spin_S / 2.0
    if tier == "analytic":
        def coherent_xi(times, valid):
            at_valid = replace(d, **{name: np.broadcast_to(getattr(d, name), times.shape)[valid]
                                     for name in ("spin_S", "omega_twist")
                                     if np.ndim(getattr(d, name))})
            return analytic.xi_unitary(at_valid, times[valid]).xi
    else:
        kernels = [dicke.coherent_moments(lane, protocol) for lane in lanes]

        def point_xi(mom):
            try:
                return dicke.min_transverse_variance(mom)[0] / (mom.spin_S / 2.0)
            except DegenerateMeanSpinError:  # no transverse plane: invalid, not fatal
                return math.inf

        def coherent_xi(times, valid):
            rows = zip(kernels, times.reshape(len(lanes), -1), valid.reshape(len(lanes), -1))
            return [point_xi(mom)
                    for kernel, row, ok in rows if ok.any() for mom in kernel(row[ok])]

    def objective(t):
        t = np.asarray(t, dtype=float)
        budget = analytic.noise_budget(d, t, noise)
        valid = np.asarray(~np.isnan(t) & (budget.p_leak <= MAX_EXPOSURE)
                           & (budget.p_decay <= MAX_EXPOSURE))
        xi = np.full(t.shape, math.inf)
        xi[valid] = coherent_xi(t, valid) + np.asarray(budget.added_var / half_S)[valid]
        return xi if xi.ndim else float(xi)
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


def _optimal_times(lanes, noise: NoiseModel, tier: str, protocol: str, t_max):
    """The optimal time of every lane in one solve: (t_opt, xi_min, edges, t_max).

    Each lane's coarse time grid spans [t_max * 1e-8, t_max], all of them
    in one array call of the objective.  One lane is refined by
    :func:`minimize_on_log_axis` with scalar calls, several by
    :func:`_minimize_lanes`.  The half-floor check applies per lane, against
    the lane's own floor (its own N and eta), and raises on the first lane
    that falls below half of it.
    """
    objective = _xi_objective(lanes, noise, tier, protocol)
    if t_max is None:
        gamma = lanes[0].params.gamma
        tops = np.array([10.0 / gamma if gamma > 0 else math.pi / (2.0 * abs(d.omega_twist))
                         for d in lanes])
    else:
        tops = np.full(len(lanes), float(t_max))
    grid = np.geomspace(tops * 1e-8, tops, TIME_GRID_POINTS, axis=1)
    if len(lanes) == 1:
        t_opt, xi_min, edge = minimize_on_log_axis(objective, grid[0], objective(grid[0]),
                                                   REL_TOL)
        t_opt, xi_min, edges = [t_opt], [xi_min], [edge]
    else:
        t_opt, xi_min, edges = _minimize_lanes(objective, grid, objective(grid), REL_TOL)
    for d, xi in zip(lanes, xi_min):
        floor = _floor_value(d, noise, protocol)
        if floor is not None and xi < 0.5 * floor:
            raise NumericsError(
                f"xi_min={float(xi)!r} is below half the closed-form floor {floor!r}; "
                "the optimizer left the additive-noise validity regime")
    return t_opt, xi_min, edges, tops


def _time_result(tier: str, protocol: str, t_opt, xi_min, edge, top) -> OptimizationResult:
    """The result of one lane of :func:`_optimal_times`."""
    return OptimizationResult(t_opt=float(t_opt), xi_min=float(xi_min),
                              xi_min_db=float(analytic.to_db(float(xi_min))),
                              model_tier=tier, protocol=protocol,
                              bracket_t=(float(top * 1e-8), float(top)),
                              flags=_edge_flags(edge, "time"))


def optimal_time(d: DerivedParams, noise: NoiseModel, tier: str = "auto",
                 protocol: str = "oat", t_max: float | None = None) -> OptimizationResult:
    """Minimize xi_total over t in (0, t_max].

    Default bracket top is 10/Gamma (or a quarter twisting period when
    Gamma = 0); the bottom is t_max * 1e-8.  Deterministic: identical
    inputs give bit-identical results.  ``tier``/``protocol`` are checked
    by :func:`core.resolve_tier`.  A result more than 2x below the
    closed-form floor signals the optimizer escaped the model's validity
    regime.  This is the one-lane solve of ``optimal_detuning``'s grid,
    refined with scalar calls of the objective.
    """
    tier, protocol = resolve_tier(tier, protocol)
    (t_opt,), (xi_min,), (edge,), (top,) = _optimal_times([d], noise, tier, protocol, t_max)
    return _time_result(tier, protocol, t_opt, xi_min, edge, top)


def optimal_detuning(coupling_g: float, kappa: float, gamma: float, n_atoms: int,
                     noise: NoiseModel, tier: str = "auto", protocol: str = "oat",
                     bracket: tuple[float, float] | None = None,
                     t_max: float | None = None) -> OptimizationResult:
    """Nested minimization of xi over (Delta, t) at fixed g, kappa, Gamma, N.

    Scans Delta > 0 on [kappa, 1e4 kappa] by default (xi is even in the
    sign of Delta).  This is the one-point case of the lockstep solver
    that ``scaling_scan`` runs on all of its points: the optimal times of
    the coarse detuning grid are one lane-batched solve, one lane per
    detuning (the Dicke tier solves its lanes one at a time, so that one
    lane's kernel is alive at once), and the golden section then refines
    the detuning, solving each candidate's optimal time as it goes.  Each
    detuning is solved once, so the result at the optimum is the solve of
    its coarse lane or of its refinement step.
    """
    tier, protocol = resolve_tier(tier, protocol)
    (result,) = _optimal_detunings([(n_atoms, coupling_g)], kappa, gamma, noise, tier,
                                   protocol, bracket, t_max)
    return result


def _optimal_detunings(points, kappa: float, gamma: float, noise: NoiseModel, tier: str,
                       protocol: str, bracket, t_max) -> list[OptimizationResult]:
    """:func:`optimal_detuning` at every (n_atoms, coupling_g) of ``points``, in lockstep.

    The points share kappa, Gamma, the noise model and the detuning
    bracket.  Each point first solves its own coarse detuning grid, one
    lane per detuning.  The detuning refinement then runs on all points
    at once, as one :func:`_minimize_lanes` over Delta: every step solves
    the candidate of each point that takes one in a single
    :func:`_optimal_times` call, one lane per point (one call per lane on
    the Dicke tier).  A (point, Delta) pair is solved once, coarse lanes
    included.  Every point equals its one-point solve bitwise.
    """
    if bracket is None:
        if kappa <= 0:
            raise PhysicsError("default detuning bracket needs kappa > 0; pass bracket=")
        bracket = (kappa, 1e4 * kappa)
    if not (0 < bracket[0] < bracket[1]):
        raise ValueError(f"need a detuning bracket with 0 < lo < hi, got {bracket!r}")

    def lane(point, delta):
        n_atoms, coupling_g = points[point]
        return derive_params(SystemParams(n_atoms=n_atoms, coupling_g=coupling_g,
                                          kappa=kappa, gamma=gamma, delta=delta))

    solved = {}  # (t_opt, xi_min, edge, top) of each (point, detuning) solved

    def solve(keys):
        batch = 1 if tier == "dicke" else max(len(keys), 1)
        for k in range(0, len(keys), batch):
            chunk = keys[k:k + batch]
            solved.update(zip(chunk, zip(*_optimal_times([lane(*key) for key in chunk],
                                                         noise, tier, protocol, t_max))))

    grid = np.geomspace(bracket[0], bracket[1], DETUNING_GRID_POINTS)
    deltas = grid.tolist()
    for point in range(len(points)):  # a call per point: all at once would raise the peak memory
        solve([(point, delta) for delta in deltas])

    def refine(column):  # one candidate per point; NaN where a point takes no step
        keys = [(point, delta) for point, delta in enumerate(column[:, 0].tolist())
                if not math.isnan(delta)]
        solve([key for key in keys if key not in solved])
        xi = np.full(column.shape, math.nan)
        for point, delta in keys:
            xi[point] = solved[point, delta][1]
        return xi

    values = [[solved[point, delta][1] for delta in deltas] for point in range(len(points))]
    delta_opt, _, edges = _minimize_lanes(refine, np.tile(grid, (len(points), 1)), values,
                                          REL_TOL)
    results = []
    for point, (delta, edge) in enumerate(zip(delta_opt.tolist(), edges)):
        inner = _time_result(tier, protocol, *solved[point, delta])
        results.append(replace(inner, delta_opt=delta, bracket_delta=bracket,
                               flags=inner.flags + _edge_flags(edge, "delta")))
    return results


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

    ``points`` is a list of (n_atoms, eta) pairs; it must hold at least 3
    of them spanning at least two decades of N*eta.  g is derived from eta
    at fixed (kappa, gamma), and a log-log slope of xi_min against N*eta
    is fitted.  The detuning of every point is optimized in one lockstep
    solve: each point solves its own coarse detuning grid, and the points
    then refine their detunings together, one lane per point (see
    :func:`_optimal_detunings`).  Noiseless rotation-assisted rows, where
    xi does not depend on the detuning, take one ``optimal_time`` each.
    """
    tier, protocol = resolve_tier("auto", protocol)
    pts = [(int(n), float(eta)) for n, eta in points]
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
        results = _optimal_detunings(atoms_g, kappa, gamma, noise, tier, protocol, None, None)
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
