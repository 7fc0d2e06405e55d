import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vacuumsq import NoiseModel, NumericsError, PhysicsError, SystemParams, derive_params
from vacuumsq import analytic, cli, dicke, optimize
from vacuumsq.core import ConfigError, FeasibilityParams

from conftest import small_params, xi_numeric

# Deterministic example sequences and no example database on disk, so that
# tier-1 runs are repeatable.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestGoldenSection:
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-9])
    def test_converges_to_rel_tol_on_parabola(self, rel_tol):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 3.0) ** 2

        x, fx = optimize.golden_section(f, 1.0, 5.0, rel_tol=rel_tol)
        assert abs(x - 3.0) <= rel_tol * 5.0
        assert fx == f(x)
        assert all(1.0 <= c <= 5.0 for c in calls)

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            optimize.golden_section(lambda x: x, 2.0, 2.0)

    # brackets of different widths and scales take different iteration counts
    LO = np.array([1.0, 100.0, -3.0, 1e-3, 0.5])
    HI = np.array([5.0, 100.5, 7.0, 2.0, 0.5 + 1e-4])
    CENTER = np.array([3.0, 100.2, 6.5, 1e-3, 0.5])

    def test_lanes_equal_one_lane_calls_bitwise(self):
        shapes, steps = [], []

        def lanes_f(x):
            shapes.append(np.shape(x))
            return np.cos(x - self.CENTER) * -1.0 + (x - self.CENTER) ** 2

        x, fx = optimize.golden_section(lanes_f, self.LO, self.HI, rel_tol=1e-6)
        for k, (lo, hi, center) in enumerate(zip(self.LO, self.HI, self.CENTER)):
            calls = []

            def f(u):
                calls.append(u)
                return math.cos(u - center) * -1.0 + (u - center) ** 2

            x1, fx1 = optimize.golden_section(f, lo, hi, rel_tol=1e-6)
            assert (x[k], fx[k]) == (x1, fx1), k
            steps.append(len(calls))
        assert len(set(steps)) > 2
        assert shapes == [self.LO.shape] * max(steps)

    def test_spent_lanes_are_passed_nan(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return (x - 0.5) ** 2

        optimize.golden_section(f, self.LO, self.HI, rel_tol=1e-6)
        steps = np.sum(~np.isnan(np.array(seen)), axis=0)
        assert len(set(steps)) > 1
        for k, n in enumerate(steps):  # a lane steps until its count is spent, then idles
            assert not np.any(np.isnan(np.array(seen)[:n, k]))
            assert np.all(np.isnan(np.array(seen)[n:, k]))

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan),
                                        (np.array([0.0, math.nan]), np.array([1.0, 1.0]))],
                             ids=["scalar-lo", "scalar-hi", "one-lane-of-two"])
    def test_rejects_nan_bracket(self, lo, hi):
        calls = []
        with pytest.raises(ValueError):
            optimize.golden_section(calls.append, lo, hi)
        assert calls == []


def _scalar_only(f):
    def wrapped(x):
        assert np.ndim(x) == 0, "minimize_on_log_axis passed an array to its objective"
        return f(x)
    return wrapped


def _minimize_on_log_axis(f, lo, hi, n_grid, rel_tol):
    grid = np.geomspace(lo, hi, n_grid)
    return optimize.minimize_on_log_axis(_scalar_only(f), grid, [f(x) for x in grid], rel_tol)


class TestMinimizeOnLogAxis:
    def test_interior_minimum_is_refined(self):
        x, fx, edge = _minimize_on_log_axis(
            lambda x: (math.log(x) - math.log(7.0)) ** 2, 1e-2, 1e3, 40, 1e-6)
        assert edge is None
        assert x == pytest.approx(7.0, rel=1e-5)

    def test_increasing_objective_reports_lower_edge(self):
        x, fx, edge = _minimize_on_log_axis(lambda x: x, 1e-3, 1e3, 25, 1e-3)
        assert (x, fx, edge) == (pytest.approx(1e-3), pytest.approx(1e-3), "lower")

    def test_decreasing_objective_reports_upper_edge(self):
        x, fx, edge = _minimize_on_log_axis(lambda x: -x, 1e-3, 1e3, 25, 1e-3)
        assert (x, edge) == (pytest.approx(1e3), "upper")

    def test_all_invalid_raises(self):
        with pytest.raises(NumericsError):
            _minimize_on_log_axis(lambda x: math.inf, 1.0, 10.0, 12, 1e-3)

    @pytest.mark.parametrize("grid", [[1.0, 3.0, 2.0], [1.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                                      [-1.0, 1.0, 2.0], [1.0, 2.0]],
                             ids=["descending", "repeated", "zero", "negative", "two-points"])
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError):
            optimize.minimize_on_log_axis(lambda x: x, grid, grid, 1e-3)


def _lossy(n_atoms, gamma=0.5, kappa=0.0):
    base = small_params(n_atoms)
    return derive_params(SystemParams(n_atoms=n_atoms, coupling_g=base.coupling_g,
                                      kappa=kappa, gamma=gamma, delta=base.delta))


class TestExposureGuard:
    def test_inf_past_half_exposure(self):
        d = _lossy(100)
        objective = optimize._xi_objective([d], NoiseModel(), "analytic", "oat")
        t_half = math.log(2.0) / 0.5  # p_decay = 1 - exp(-Gamma t) = 1/2
        assert objective(0.9 * t_half) == analytic.xi_total(d, 0.9 * t_half, NoiseModel())
        assert objective(1.1 * t_half) == math.inf

    def test_leak_exposure_guarded_too(self):
        d = _lossy(100, gamma=0.0, kappa=0.3)
        noise = NoiseModel()
        objective = optimize._xi_objective([d], noise, "dicke", "oat")
        times = np.geomspace(1e-2, 1e4, 30)
        p_leak, _ = analytic.noise_probabilities(d, times, noise)
        values = np.array([objective(t) for t in times])
        assert np.all(np.isinf(values[p_leak > 0.5]))
        assert np.all(np.isfinite(values[p_leak <= 0.5]))


class TestArrayObjective:
    # N=100 with Gamma = 20/s: the decay exposure crosses 1/2 at t = 35 ms,
    # while the twisted mean spin is still well defined
    GRID = np.geomspace(1e-5, 1.0, 240)

    @pytest.mark.parametrize("tier, protocol, rel", [("analytic", "oat", 0.0),
                                                     ("dicke", "oat", 1e-12),
                                                     ("dicke", "tat", 1e-12)])
    def test_array_call_equals_scalar_calls(self, tier, protocol, rel):
        d = _lossy(100, gamma=20.0, kappa=0.3)
        objective = optimize._xi_objective([d], NoiseModel(), tier, protocol)
        values = objective(self.GRID)
        scalars = np.array([objective(t) for t in self.GRID])
        assert 0 < np.sum(np.isfinite(values)) < self.GRID.size
        assert np.array_equal(np.isinf(values), np.isinf(scalars))
        if rel == 0.0:
            assert values.tobytes() == scalars.tobytes()
        else:
            np.testing.assert_allclose(values, scalars, rtol=rel, atol=0.0)

    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_guard_rejected_points_skip_the_coherent_kernel(self, monkeypatch, protocol):
        # records every time point the coherent kernel reduces, for both protocols
        calls = []
        coherent_moments = dicke.coherent_moments

        def counted(d, protocol):
            moments_at = coherent_moments(d, protocol)

            def counting(times):
                for t, mom in zip(times, moments_at(times), strict=True):
                    calls.append(t)
                    yield mom
            return counting

        monkeypatch.setattr(dicke, "coherent_moments", counted)
        d = _lossy(100, gamma=20.0, kappa=0.3)
        objective = optimize._xi_objective([d], NoiseModel(), "dicke", protocol)
        values = objective(self.GRID)
        budget = analytic.noise_budget(d, self.GRID, NoiseModel())
        valid = (budget.p_leak <= 0.5) & (budget.p_decay <= 0.5)
        assert 0 < np.sum(valid) < self.GRID.size
        assert np.sum(valid) == np.sum(np.isfinite(values))
        assert calls == list(self.GRID[valid])
        calls.clear()
        assert objective(self.GRID[-1]) == math.inf
        assert calls == []

    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_dicke_trace_equals_the_objective_where_the_guard_passes(self, protocol):
        # squeezing_trace and the optimizer share the coherent kernel; only
        # the order of adding the noise variance differs
        d = _lossy(100, gamma=20.0, kappa=0.3)
        values = optimize._xi_objective([d], NoiseModel(), "dicke", protocol)(self.GRID)
        valid = np.isfinite(values)
        assert 0 < np.sum(valid) < self.GRID.size
        trace = dicke.squeezing_trace(d, self.GRID[valid], NoiseModel(), protocol=protocol)
        np.testing.assert_allclose(trace.xi_total, values[valid], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("tier, protocol, atoms", [
        ("analytic", "oat", (1, 2, 3, 1_000, 10_001, 100_000)),
        ("dicke", "oat", (1, 2, 5, 20)), ("dicke", "tat", (1, 2, 5, 20))])
    def test_lanes_of_different_n_equal_one_lane_calls_bitwise(self, tier, protocol, atoms):
        # the lanes differ in N, g and the detuning, and share kappa and Gamma
        kappa, gamma = 2 * math.pi * 1e5, 20.0
        lanes = [derive_params(SystemParams(n_atoms=n, coupling_g=300.0 * (1 + k),
                                            kappa=kappa, gamma=gamma, delta=(10 + 7 * k) * kappa))
                 for k, n in enumerate(atoms)]
        times = np.geomspace(1e-6, 1.0, 60) * np.linspace(1.0, 2.0, len(lanes))[:, None]
        noise = NoiseModel()
        objective = optimize._xi_objective(lanes, noise, tier, protocol)
        values = objective(times)
        assert 0 < np.sum(np.isfinite(values)) < values.size
        ones = [optimize._xi_objective([d], noise, tier, protocol) for d in lanes]
        assert values.tobytes() == np.array([f(row) for f, row in zip(ones, times)]).tobytes()
        column = objective(times[:, 40:41])
        assert column.tobytes() == np.array([[f(row[40])] for f, row in zip(ones, times)]).tobytes()
        # a column past the exposure limit in every lane reaches no coherent kernel
        assert np.all(objective(np.full((len(lanes), 1), 10.0)) == math.inf)

    def test_one_array_call_per_coarse_grid(self, monkeypatch, fig3a_params, fig3a_derived,
                                            full_noise):
        objectives = []  # (lanes, the shapes each objective was called with)
        xi_objective = optimize._xi_objective

        def recording(lanes, *args):
            objective, shapes = xi_objective(lanes, *args), []
            objectives.append((lanes, shapes))

            def wrapped(t):
                shapes.append(np.shape(t))
                return objective(t)
            return wrapped

        monkeypatch.setattr(optimize, "_xi_objective", recording)
        p = fig3a_params
        optimize.optimal_detuning(p.coupling_g, p.kappa, p.gamma, p.n_atoms, full_noise)
        (lanes, shapes), outer = objectives[0], objectives[1:]
        # the coarse detuning grid: all its time grids in one (L, 240) call,
        # then one (L, 1) call per golden step
        n_lanes = optimize.DETUNING_GRID_POINTS
        assert len(lanes) == n_lanes
        assert shapes[0] == (n_lanes, optimize.TIME_GRID_POINTS)
        assert set(shapes[1:]) == {(n_lanes, 1)}
        # the outer refinement: one-lane solves, a 240-point call and then scalars
        assert outer and all(len(lanes) == 1 and shapes[0] == (optimize.TIME_GRID_POINTS,)
                             and set(shapes[1:]) == {()} for lanes, shapes in outer)
        # as many lockstep steps as the longest one-lane refinement of a lane
        objectives.clear()
        for lane in lanes:
            optimize.optimal_time(lane, full_noise)
        assert len(shapes) == max(len(one_lane) for _, one_lane in objectives)
        # optimal_time alone: its 240-point grid, then the scalar golden refinement
        objectives.clear()
        optimize.optimal_time(fig3a_derived, full_noise)
        assert objectives[0][1] == [(optimize.TIME_GRID_POINTS,)] + [()] * 13


class TestDetuningBracket:
    @pytest.mark.parametrize("bracket", [(1e9, 1e6), (0.0, 1e6), (-1e6, 1e6)],
                             ids=["reversed", "zero", "negative"])
    def test_bad_bracket_is_rejected_before_any_inner_solve(self, monkeypatch, bracket):
        calls = []
        monkeypatch.setattr(optimize, "optimal_time", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(optimize, "_optimal_times", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError):
            optimize.optimal_detuning(1e3, 1e5, 1e-2, 100, NoiseModel(), bracket=bracket)
        assert calls == []


def _record_optimal_times(monkeypatch):
    """Hooks optimize._optimal_times; returns the list of each call's lanes."""
    calls = []
    optimal_times = optimize._optimal_times

    def recorded(lanes, *args):
        calls.append(list(lanes))
        return optimal_times(lanes, *args)

    monkeypatch.setattr(optimize, "_optimal_times", recorded)
    return calls


class TestDetuningRefinement:
    def test_no_inner_solve_is_repeated(self, monkeypatch, fig3a_params, full_noise):
        # the result at the optimal detuning is the refinement's own solve there
        calls = _record_optimal_times(monkeypatch)
        p = fig3a_params
        result = optimize.optimal_detuning(p.coupling_g, p.kappa, p.gamma, p.n_atoms, full_noise)
        (coarse, *steps) = [[d.params.delta for d in lanes] for lanes in calls]
        deltas = [delta for step in steps for delta in step]
        assert len(coarse) == optimize.DETUNING_GRID_POINTS
        assert result.flags == () and result.delta_opt in deltas
        assert len(coarse + deltas) == len(set(coarse + deltas))

    def test_a_coarse_optimum_reuses_its_lane(self, monkeypatch, full_noise):
        # N=1000 at the fig3a kappa, Gamma and eta, as in the fig3a scaling
        # scan: the refinement does not beat coarse lane 37, whose solve the
        # lane batch has already run
        kappa, gamma = 2 * math.pi * 1e5, 2 * math.pi * 7e-3
        g = math.sqrt(10.0 * gamma * kappa) / 2.0
        calls = _record_optimal_times(monkeypatch)
        result = optimize.optimal_detuning(g, kappa, gamma, 1000, full_noise)
        (coarse, *steps) = [[d.params.delta for d in lanes] for lanes in calls]
        deltas = [delta for step in steps for delta in step]
        grid = np.geomspace(kappa, 1e4 * kappa, optimize.DETUNING_GRID_POINTS)
        assert coarse == list(grid)
        assert result.flags == () and result.delta_opt == grid[37]
        assert deltas and not set(deltas) & set(grid)
        lane = derive_params(SystemParams(n_atoms=1000, coupling_g=g, kappa=kappa,
                                          gamma=gamma, delta=result.delta_opt))
        alone = optimize.optimal_time(lane, full_noise)
        assert (result.t_opt, result.xi_min, result.bracket_t) == (
            alone.t_opt, alone.xi_min, alone.bracket_t)


class TestDetuningLanes:
    # kappa/2pi = 100 kHz, Gamma/2pi = 7 mHz and eta = 10, as at the fig3a point
    KAPPA, GAMMA = 2 * math.pi * 1e5, 2 * math.pi * 7e-3
    G = math.sqrt(10.0 * GAMMA * KAPPA) / 2.0

    class Coarse(Exception):
        """Stops optimal_detuning once its coarse grid is solved."""

    # (noise, detuning bracket, t_max): without noise the default time
    # bracket reaches past the collapse of the mean spin, so the noiseless
    # runs keep Omega t <= 0.8 on a narrower bracket
    NOISE = [(NoiseModel(include_free_space=True, include_cavity_leak=True),
              (KAPPA, 1e4 * KAPPA), None),
             (NoiseModel.none(), (10.0 * KAPPA, 40.0 * KAPPA), 0.8 * 10.0 * KAPPA / G ** 2)]

    def lanes(self, n_atoms, deltas):
        return [derive_params(SystemParams(n_atoms=n_atoms, coupling_g=self.G, kappa=self.KAPPA,
                                           gamma=self.GAMMA, delta=delta)) for delta in deltas]

    @pytest.mark.parametrize("noise, bracket, t_max", NOISE, ids=["full-noise", "noiseless"])
    @pytest.mark.parametrize("tier, protocol, n_atoms", [("analytic", "oat", 10_000),
                                                         ("dicke", "oat", 50),
                                                         ("dicke", "tat", 20)])
    def test_coarse_lanes_equal_one_lane_solves(self, monkeypatch, noise, bracket, t_max,
                                                tier, protocol, n_atoms):
        # coarser grids than the default keep the Dicke solves short
        monkeypatch.setattr(optimize, "DETUNING_GRID_POINTS", 24)
        monkeypatch.setattr(optimize, "TIME_GRID_POINTS", 80)
        minimize = optimize._minimize_lanes

        def coarse(f, grid, values, rel_tol):  # stops at the detuning grid's refinement
            if np.shape(grid)[1] == 24:
                raise self.Coarse(np.array(grid)[0], np.array(values)[0])
            return minimize(f, grid, values, rel_tol)

        monkeypatch.setattr(optimize, "_minimize_lanes", coarse)
        with pytest.raises(self.Coarse) as stop:
            optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, n_atoms, noise,
                                      tier=tier, protocol=protocol, bracket=bracket,
                                      t_max=t_max)
        grid, lanes = stop.value.args
        assert grid.size == 24 and np.all(np.isfinite(lanes))
        solo = np.array([optimize.optimal_time(d, noise, tier=tier, protocol=protocol,
                                               t_max=t_max).xi_min
                         for d in self.lanes(n_atoms, grid)])
        np.testing.assert_allclose(lanes, solo, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("noise, bracket, t_max", NOISE, ids=["full-noise", "noiseless"])
    @pytest.mark.parametrize("protocol, n_atoms", [("oat", 50), ("tat", 20)])
    def test_dicke_lane_batch_equals_one_lane_solves(self, monkeypatch, noise, bracket, t_max,
                                                     protocol, n_atoms):
        # optimal_detuning solves Dicke lanes one at a time, but the lane
        # solver takes several; its idle lanes are passed NaN times, which
        # must stay invalid when no noise channel is on
        monkeypatch.setattr(optimize, "TIME_GRID_POINTS", 80)
        lanes = self.lanes(n_atoms, np.geomspace(*bracket, 6))
        t_opt, xi_min, edges, _ = optimize._optimal_times(lanes, noise, "dicke", protocol, t_max)
        solo = [optimize.optimal_time(d, noise, tier="dicke", protocol=protocol, t_max=t_max)
                for d in lanes]
        assert list(t_opt) == [r.t_opt for r in solo]
        np.testing.assert_allclose(xi_min, [r.xi_min for r in solo], rtol=1e-14, atol=0.0)
        assert [optimize._edge_flags(e, "time") for e in edges] == [r.flags for r in solo]

    @pytest.mark.parametrize("tier, batches", [("dicke", [1] * 96), ("analytic", [96])])
    def test_dicke_lanes_are_solved_one_at_a_time(self, monkeypatch, full_noise, tier, batches):
        # one Dicke kernel is alive at once, as in a one-lane optimal_time
        sizes = []

        def solve(lanes, *args):
            sizes.append(len(lanes))
            ones = np.ones(len(lanes))
            return ones, ones, [None] * len(lanes), ones

        def coarse(*args):
            raise self.Coarse()

        monkeypatch.setattr(optimize, "_optimal_times", solve)
        monkeypatch.setattr(optimize, "_minimize_lanes", coarse)
        with pytest.raises(self.Coarse):
            optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, 1000, full_noise,
                                      tier=tier)
        assert sizes == batches


class TestNoiselessDickeOptimum:
    # Without noise the default time bracket reaches where the twisted mean
    # spin vanishes: 10/Gamma lies far past its collapse, and the lossless
    # top pi/(2|Omega|) sits on it.  The optimizer reads those points as
    # invalid; its optimum matches the closed form within the tolerance of
    # TestProperties.test_dicke_oat_matches_closed_form.
    KAPPA, GAMMA = TestDetuningLanes.KAPPA, TestDetuningLanes.GAMMA

    @pytest.mark.parametrize("n_atoms", [50, 51])
    @pytest.mark.parametrize("system", ["delta-kappa", "delta-10kappa", "lossless"])
    def test_matches_analytic_tier(self, n_atoms, system):
        if system == "lossless":
            params = small_params(n_atoms)
        else:
            delta = self.KAPPA * (1.0 if system == "delta-kappa" else 10.0)
            params = SystemParams(n_atoms=n_atoms, coupling_g=TestDetuningLanes.G,
                                  kappa=self.KAPPA, gamma=self.GAMMA, delta=delta)
        d = derive_params(params)
        dicke_opt = optimize.optimal_time(d, NoiseModel.none(), tier="dicke", protocol="oat")
        analytic_opt = optimize.optimal_time(d, NoiseModel.none(), tier="analytic")
        assert dicke_opt.xi_min == pytest.approx(analytic_opt.xi_min, rel=1e-8, abs=1e-12)
        assert dicke_opt.t_opt == pytest.approx(analytic_opt.t_opt, rel=optimize.REL_TOL)
        assert dicke_opt.flags == analytic_opt.flags == ()


class TestHalfFloorCheck:
    def test_result_below_half_floor_raises(self):
        # One atom cannot squeeze (xi = 1 + noise), while the closed-form
        # floor 6 (N eta)^(-1/3) at N eta = 1 is 6: the result sits below
        # half of it, which the optimizer reports as leaving the model.
        params = SystemParams.from_frequencies(1, kappa_hz=1e5, gamma_hz=7e-3,
                                               delta_hz=11.2e6, eta=1.0)
        with pytest.raises(NumericsError, match="half the closed-form floor"):
            optimize.optimal_time(derive_params(params), NoiseModel())


    def test_each_lane_is_checked_against_its_own_floor(self):
        # one atom at N eta = 1000 stays above half its floor 0.6, one atom at
        # N eta = 1 does not (floor 6): the first lane's floor must not
        # stand in for the second's
        lanes = [derive_params(SystemParams.from_frequencies(
            1, kappa_hz=1e5, gamma_hz=7e-3, delta_hz=11.2e6, eta=eta)) for eta in (1000.0, 1.0)]
        floor = analytic.xi_bound(1, lanes[1].eta)
        optimize._optimal_times(lanes[:1], NoiseModel(), "analytic", "oat", None)
        with pytest.raises(NumericsError, match=f"half the closed-form floor {floor!r}"):
            optimize._optimal_times(lanes, NoiseModel(), "analytic", "oat", None)


class TestResolver:
    def test_auto_tier(self, fig3a_derived, full_noise):
        result = optimize.optimal_time(fig3a_derived, full_noise)
        assert (result.model_tier, result.protocol) == ("analytic", "oat")

    @pytest.mark.parametrize("tier, protocol", [("analytic", "tat"), ("bogus", "oat"),
                                                ("auto", "xyz")])
    def test_invalid_choice_is_config_error(self, fig3a_derived, full_noise, tier, protocol):
        with pytest.raises(ConfigError):
            optimize.optimal_time(fig3a_derived, full_noise, tier=tier, protocol=protocol)


class TestScalingScan:
    def test_needs_three_points(self):
        with pytest.raises(PhysicsError, match="at least 3"):
            optimize.scaling_scan([(100, 1.0), (100_000, 1.0)])

    def test_needs_two_decades(self):
        with pytest.raises(PhysicsError, match="two decades"):
            optimize.scaling_scan([(100, 1.0), (1_000, 1.0), (9_000, 1.0)])


class TestLockstepScan:
    KAPPA, GAMMA = TestDetuningLanes.KAPPA, TestDetuningLanes.GAMMA

    def one_point_rows(self, points, protocol):
        """The scan's rows and fit from one optimal_detuning solve per point."""
        floor = analytic.tat_xi_floor if protocol == "tat" else analytic.xi_bound
        rows = []
        for n, eta in points:
            g = math.sqrt(eta * self.GAMMA * self.KAPPA) / 2.0
            r = optimize.optimal_detuning(g, self.KAPPA, self.GAMMA, n, NoiseModel(),
                                          protocol=protocol)
            rows.append({"n_atoms": n, "eta": eta, "n_eta": n * eta, "xi_min": r.xi_min,
                         "xi_min_db": r.xi_min_db, "floor": floor(n, eta), "t_opt": r.t_opt,
                         "delta_opt": r.delta_opt})
        slope, intercept = np.polyfit(np.log([r["n_eta"] for r in rows]),
                                      np.log([r["xi_min"] for r in rows]), 1)
        return rows, float(slope), float(intercept)

    @pytest.mark.parametrize("points, protocol", [
        ([(1_000, 10.0), (10_000, 10.0), (100_000, 10.0)], "oat"),
        ([(1_000, 3.0), (10_000, 10.0), (100_000, 30.0)], "oat"),
        ([(1, 1000.0), (1_000, 10.0), (10_000, 10.0)], "oat"),
        ([(2, 5.0), (20, 10.0), (100, 20.0)], "tat")],
        ids=["fig3a", "eta-per-point", "one-atom", "tat-noisy"])
    def test_scan_equals_one_point_solves_bitwise(self, monkeypatch, points, protocol):
        if protocol == "tat":  # coarser grids keep the Dicke solves short
            monkeypatch.setattr(optimize, "DETUNING_GRID_POINTS", 24)
            monkeypatch.setattr(optimize, "TIME_GRID_POINTS", 80)
        scan = optimize.scaling_scan(points, protocol=protocol)
        rows, slope, intercept = self.one_point_rows(points, protocol)
        assert scan.rows() == rows
        assert (scan.slope, scan.intercept) == (slope, intercept)

    def test_points_refine_their_detunings_together(self, monkeypatch):
        points = [(1_000, 10.0), (10_000, 10.0), (100_000, 10.0)]
        calls = _record_optimal_times(monkeypatch)
        optimize.scaling_scan(points)
        atoms = [[d.params.n_atoms for d in lanes] for lanes in calls]
        coarse, steps = atoms[:len(points)], atoms[len(points):]
        # one coarse grid per point, then at most one lane per point and step
        assert coarse == [[n] * optimize.DETUNING_GRID_POINTS for n, _ in points]
        assert steps and all(len(step) == len(set(step)) for step in steps)
        assert [n for n, _ in points] in steps


class TestProperties:
    @PROPERTY
    @given(n=st.integers(2, 2000), u=st.floats(0.0, 3.0))
    def test_dicke_oat_matches_closed_form(self, n, u):
        # twisting phase u/sqrt(N) spans the squeezing window and the
        # over-twisted regime while the mean spin stays well defined
        d = derive_params(small_params(n))
        t = u / math.sqrt(n)
        xi_dicke = xi_numeric(dicke.evolve_oat(dicke.css(n), d.omega_twist, t))
        assert xi_dicke == pytest.approx(analytic.xi_unitary(d, t).xi, rel=1e-8, abs=1e-12)

    @PROPERTY
    @given(n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_moments_kernel_traces_a_single_photon_column(self, n, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        amps /= np.linalg.norm(amps)
        flat = dicke.amplitude_moments(amps, n / 2.0)
        joint = dicke.amplitude_moments(amps[:, None], n / 2.0)
        assert vars(joint) == vars(flat)

    @PROPERTY
    @given(k=st.integers(-1, 1), dx=st.floats(-0.02, 0.02), p=st.integers(90_000, 110_000))
    def test_cos_pow_matches_mpmath(self, k, dx, p):
        # near the peaks of |cos x|, where |cos x|^p does not underflow;
        # at x ~ +-pi the sign of odd powers matters
        x = k * math.pi + dx
        with mpmath.workdps(50):
            ref = float(mpmath.cos(mpmath.mpf(x)) ** p)
        assert math.isclose(float(analytic.cos_pow(x, p)), ref,
                            rel_tol=1e-9, abs_tol=1e-300)


class TestFeasibility:
    # Omega/2pi = g^2/Delta = 4 Hz in plain frequencies
    SYSTEM = {"n_atoms": 100, "g_hz": 2e3, "kappa_hz": 1e5, "gamma_hz": 7e-3,
              "delta_hz": 1e6, "omega0_hz": 4e14}
    FEAS = {"fsr_hz": 1e10, "fsr_jitter_hz": 1e3, "noise_bandwidth_hz": 1e4,
            "squeeze_time_s": 1e-2}

    def test_report_matches_documented_formulas(self):
        params = SystemParams.from_frequencies(**self.SYSTEM)
        report = optimize.feasibility_report(params,
                                             FeasibilityParams.from_frequencies(**self.FEAS))
        omega_hz, delta_hz = 4.0, self.SYSTEM["delta_hz"]
        fsr_hz, jitter_hz = self.FEAS["fsr_hz"], self.FEAS["fsr_jitter_hz"]
        samples = self.FEAS["noise_bandwidth_hz"] * self.FEAS["squeeze_time_s"]
        assert report.omega_twist_hz == pytest.approx(omega_hz, rel=1e-12)
        assert report.clock_shift_during_squeeze == pytest.approx(2 * math.pi * omega_hz,
                                                                  rel=1e-12)
        assert report.squeeze_phase_rel_error == pytest.approx(
            jitter_hz / (delta_hz * math.sqrt(samples)), rel=1e-12)
        assert report.suppression_factor == pytest.approx(
            (delta_hz / (fsr_hz / 2)) * (jitter_hz / (fsr_hz / 2)), rel=1e-12)
        assert report.fractional_accuracy == pytest.approx(
            omega_hz / self.SYSTEM["omega0_hz"], rel=1e-12)

    def test_cli_writes_feasibility_json(self, tmp_path):
        cfg = {"schema_version": cli.SCHEMA_VERSION, "system": self.SYSTEM,
               "feasibility": self.FEAS}
        path = tmp_path / "feasibility.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["feasibility", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "feasibility.json").read_text())["report"]
        assert report["omega_twist_hz"] == pytest.approx(4.0, rel=1e-12)
        assert report["suppression_factor"] == pytest.approx(4e-11, rel=1e-12)
