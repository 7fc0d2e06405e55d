import json
import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from vacuumsq import NoiseModel, NumericsError, PhysicsError, SystemParams
from vacuumsq import analytic, cli, core, dicke, optimize
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

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan)],
                             ids=["scalar-lo", "scalar-hi"])
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
    return SystemParams(n_atoms=n_atoms, coupling_g=base.coupling_g, kappa=kappa, gamma=gamma,
                        delta=base.delta)


def _coarse_tau_grid(monkeypatch, p, noise, tier, protocol="oat"):
    """Runs optimal_time on p; returns its coarse tau grid, the times of those taus at the
    detuning of p, and the objective's values there."""
    minimize, coarse = optimize.minimize_on_log_axis, []

    def recording(f, grid, values, rel_tol):
        coarse.append((np.array(grid), np.array(values)))
        return minimize(f, grid, values, rel_tol)

    monkeypatch.setattr(optimize, "minimize_on_log_axis", recording)
    optimize.optimal_time(p, noise, tier=tier, protocol=protocol)
    ((grid, values),) = coarse  # one detuning: no search over Delta
    taus = grid / p.spin_S
    return taus, _tau_times(p, taus), values


def _tau_times(p, taus):
    """t = tau Delta/g^2 at the detuning of p, as optimal_detuning forms it."""
    return taus * abs(p.delta) / p.coupling_g ** 2


def _guard_passes(p, times, noise):
    budget = analytic.noise_budget(p, times, noise)
    return (budget.p_leak <= optimize.MAX_EXPOSURE) & (budget.p_decay <= optimize.MAX_EXPOSURE)


class TestExposureGuard:
    def test_inf_past_half_exposure(self, monkeypatch):
        # p_decay = 1 - exp(-Gamma t) passes 1/2 at t = log(2)/Gamma
        p = _lossy(100)
        _, times, values = _coarse_tau_grid(monkeypatch, p, NoiseModel(), "analytic")
        past = times > math.log(2.0) / 0.5
        assert 0 < np.sum(past) < times.size
        assert np.array_equal(~_guard_passes(p, times, NoiseModel()), past)
        assert np.array_equal(np.isinf(values), past)
        np.testing.assert_allclose(values[~past], analytic.xi_total(p, times[~past], NoiseModel()),
                                   rtol=1e-12, atol=0.0)

    def test_leak_exposure_guarded_too(self, monkeypatch):
        p = _lossy(100, gamma=0.0, kappa=0.3)
        noise = NoiseModel()
        _, times, values = _coarse_tau_grid(monkeypatch, p, noise, "dicke")
        p_leak, _ = analytic.noise_probabilities(p, times, noise)
        assert 0 < np.sum(p_leak > 0.5) < times.size
        assert np.all(np.isinf(values[p_leak > 0.5]))
        assert np.all(np.isfinite(values[p_leak <= 0.5]))


class TestArrayObjective:
    # N=100 with Gamma = 20/s: the decay exposure crosses 1/2 at t = 35 ms,
    # while the twisted mean spin is still well defined
    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_guard_rejected_points_skip_the_coherent_kernel(self, monkeypatch, protocol):
        # at one detuning the coherent kernel reduces the guard-passing taus of
        # the coarse grid, then only taus whose noise passes the guard
        kernels = _record_kernels(monkeypatch)
        p = _lossy(100, gamma=20.0, kappa=0.3)
        taus, times, values = _coarse_tau_grid(monkeypatch, p, NoiseModel(), "dicke", protocol)
        valid = _guard_passes(p, times, NoiseModel())
        assert 0 < np.sum(valid) < taus.size
        assert np.array_equal(np.isfinite(values), valid)
        ((coarse, *steps),) = kernels
        assert coarse == list(taus[valid])
        step_taus = np.array([tau for step in steps for tau in step])
        assert step_taus.size
        assert np.all(_guard_passes(p, _tau_times(p, step_taus), NoiseModel()))

    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_dicke_trace_equals_the_objective_where_the_guard_passes(self, protocol):
        # squeezing_trace and the optimizer share the coherent kernel; only
        # the order of adding the noise variance differs
        p = _lossy(100, gamma=20.0, kappa=0.3)
        result = optimize.optimal_time(p, NoiseModel(), tier="dicke", protocol=protocol)
        assert result.flags == ()
        trace = dicke.squeezing_trace(p, [result.t_opt], NoiseModel(), protocol=protocol)
        np.testing.assert_allclose(trace.xi_total, [result.xi_min], rtol=1e-12, atol=0.0)

    def test_one_array_call_per_coarse_grid(self, monkeypatch, fig3a_params, full_noise):
        calls = []  # ("noise" | "coherent", the time shape, the median tau) of each call, in order
        g2 = fig3a_params.coupling_g ** 2
        noise_channels, xi_unitary, geomspace = (analytic._noise_channels, analytic.xi_unitary,
                                                 np.geomspace)

        def channels(S, leak_rate, kappa, gamma, t, noise):
            # leak_rate = S g^2 kappa / Delta^2 and t = tau Delta / g^2
            delta = np.sqrt(S * g2 * kappa / np.asarray(leak_rate))
            calls.append(("noise", np.shape(t), float(np.median(t * g2 / delta))))
            return noise_channels(S, leak_rate, kappa, gamma, t, noise)

        def coherent(system, t):  # the coherent xi is a function of tau: Omega = 1
            calls.append(("coherent", np.shape(t), float(np.median(t))))
            return xi_unitary(system, t)

        grids = []  # the arguments of each np.geomspace call

        def counting(*args, **kwargs):
            grids.append(args)
            return geomspace(*args, **kwargs)

        monkeypatch.setattr(analytic, "_noise_channels", channels)
        monkeypatch.setattr(analytic, "xi_unitary", coherent)
        monkeypatch.setattr(np, "geomspace", counting)
        p = fig3a_params
        optimize.optimal_detuning(p.coupling_g, p.kappa, p.gamma, p.n_atoms, full_noise)
        # the coarse tau grid: one array solve of the least noise over Delta at all
        # its taus, which reads the noise at the lower end, the Newton result and
        # the upper end of each tau's valid Delta range, then the coherent xi of
        # the valid taus in one call
        coarse, rest = calls[:4], calls[4:]
        assert [kind for kind, *_ in coarse] == ["noise"] * 3 + ["coherent"]
        assert {shape for _, shape, _ in coarse[:3]} == {(optimize.TIME_GRID_POINTS,)}
        ((valid,),) = {coarse[3][1]}
        assert 1 < valid <= optimize.TIME_GRID_POINTS
        # then per step of the refinement over tau one float solve, the same three
        # scalar noise calls at that tau, and one scalar coherent point; last, the
        # float solve at the optimal tau, for its detuning, with no coherent point
        assert len(rest) % 4 == 3 and all(shape == () for _, shape, _ in rest)
        steps = [rest[i:i + 4] for i in range(0, len(rest) - 3, 4)] + [rest[-3:]]
        for step in steps:
            assert [kind for kind, *_ in step] == ["noise"] * 3 + ["coherent"] * (len(step) - 3)
            assert all(tau == pytest.approx(step[0][2], rel=1e-9) for *_, tau in step)
        step_taus = np.sort([step[0][2] for step in steps[:-1]])
        assert step_taus.size > 1 and np.all(np.diff(step_taus) > 1e-9 * step_taus[1:])
        assert np.min(np.abs(step_taus / steps[-1][0][2] - 1.0)) < 1e-9
        # no Delta grid: the tau grid is the one np.geomspace call
        assert len(grids) == 1
        # optimal_time, the same scan at one detuning: one noise call on the
        # coarse tau grid at that Delta and one coherent call on its valid
        # taus, then scalar noise at each of the 13 golden points, each with
        # one coherent point; no search over Delta, and none at the optimum
        calls.clear()
        grids.clear()
        optimize.optimal_time(fig3a_params, full_noise)
        shapes = {kind: [shape for k, shape, _ in calls if k == kind]
                  for kind in ("noise", "coherent")}
        (valid,), *points = shapes["coherent"]
        assert shapes["noise"] == [(optimize.TIME_GRID_POINTS,)] + [()] * 13
        assert 1 < valid < optimize.TIME_GRID_POINTS and points == [()] * 13
        assert len(grids) == 1


class TestDetuningBracket:
    @pytest.mark.parametrize("bracket", [(1e9, 1e6), (0.0, 1e6), (-1e6, 1e6)],
                             ids=["reversed", "zero", "negative"])
    def test_bad_bracket_is_rejected_before_any_inner_solve(self, monkeypatch, bracket):
        calls = []
        for module, name in ((analytic, "noise_budget"), (analytic, "_noise_channels"),
                             (analytic, "xi_unitary"), (dicke, "coherent_moments")):
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError):
            optimize.optimal_detuning(1e3, 1e5, 1e-2, 100, NoiseModel(), bracket=bracket)
        assert calls == []


class TestTimeBracket:
    # the bottom of the time bracket, t_max * 1e-8, must be a normal float:
    # at t_max = 1e-300 it is subnormal, and t_opt fell below its own bracket
    @staticmethod
    def solve(scan, t_max):
        """optimal_detuning (scan) or optimal_time at the fig3a point with N = 1000."""
        p = SystemParams.from_frequencies(
            1000, kappa_hz=1e5, gamma_hz=7e-3, delta_hz=11.2e6, eta=10.0)
        if not scan:
            return optimize.optimal_time(p, NoiseModel(), t_max=t_max)
        return optimize.optimal_detuning(p.coupling_g, p.kappa, p.gamma, p.n_atoms,
                                         NoiseModel(), t_max=t_max)

    @pytest.mark.parametrize("t_max", [-1.0, 0.0, math.nan, math.inf, 1e-300, 2.2e-300],
                             ids=["negative", "zero", "nan", "inf", "subnormal-bottom",
                                  "bottom-below-normal"])
    @pytest.mark.parametrize("scan", [False, True], ids=["time", "detuning"])
    def test_bad_t_max_is_rejected_before_any_inner_solve(self, monkeypatch, t_max, scan):
        calls = []
        for module, name in ((analytic, "noise_budget"), (analytic, "_noise_channels"),
                             (analytic, "xi_unitary"), (dicke, "coherent_moments")):
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="t_max"):
            self.solve(scan, t_max)
        assert calls == []

    @pytest.mark.parametrize("scan", [False, True], ids=["time", "detuning"])
    def test_t_max_just_above_the_bound_is_solved(self, scan):
        # at both, tau Delta/g^2 rounded the optimum on the bracket bottom to just below it
        for t_max in (2.3e-300, 1e-200):
            result = self.solve(scan, t_max)
            assert result.bracket_t == (t_max * 1e-8, t_max)
            assert result.bracket_t[0] >= sys.float_info.min
            assert result.bracket_t[0] <= result.t_opt <= result.bracket_t[1]
            assert result.t_opt == pytest.approx(result.bracket_t[0], rel=1e-12)


def _record_kernels(monkeypatch):
    """Hooks dicke.coherent_moments; returns, per kernel made, the list of grids it reduced."""
    kernels = []
    coherent_moments = dicke.coherent_moments

    def recorded(p, protocol):
        kernel, grids = coherent_moments(p, protocol), []
        kernels.append(grids)

        def reducing(times):
            grids.append(list(times))
            return kernel(times)
        return reducing

    monkeypatch.setattr(dicke, "coherent_moments", recorded)
    return kernels


class TestDetuningRefinement:
    def test_no_inner_solve_is_repeated(self, monkeypatch, full_noise):
        # the coherent kernel reduces the valid taus of the coarse grid in one
        # call, then one new tau per step of the refinement over tau
        kernels = _record_kernels(monkeypatch)
        G, KAPPA, GAMMA = TestDetuningLanes.G, TestDetuningLanes.KAPPA, TestDetuningLanes.GAMMA
        result = optimize.optimal_detuning(G, KAPPA, GAMMA, 200, full_noise, tier="dicke")
        ((coarse, *steps),) = kernels
        taus = coarse + [tau for step in steps for tau in step]
        assert result.flags == () and 1 < len(coarse) and coarse == sorted(coarse)
        assert steps and all(len(step) == 1 for step in steps)
        assert len(taus) == len(set(taus))


    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_float_tau_equals_the_one_point_grid_reduction_bitwise(self, monkeypatch, protocol):
        # the refinement's coherent point reduces its one-point record as
        # floats; by S tau = 150 the one-axis-twisted mean spin has collapsed (+inf).
        # The unit-rate system, Omega = 1/1, twists by tau in unit time
        records = []
        coherent_moments = dicke.coherent_moments

        def recorded(p, protocol):
            kernel = coherent_moments(p, protocol)

            def reducing(times):
                records.append(kernel(times))
                return records[-1]
            return reducing

        monkeypatch.setattr(dicke, "coherent_moments", recorded)
        p = replace(_lossy(200, kappa=0.3), coupling_g=1.0, delta=1.0)
        assert p.omega_twist == 1.0
        xi = optimize._coherent_xi(p, "dicke", protocol)
        taus = np.geomspace(1e-4, 1.5, 25).tolist()
        assert (xi(np.array(taus))[-1] == math.inf) == (protocol == "oat")
        for tau in taus:
            got = xi(tau)
            (variance,), _ = dicke.min_transverse_variance(records[-1])
            assert records[-1].mean_x.shape == (1,) and type(got) is float
            assert np.float64(got).tobytes() == (variance / (p.spin_S / 2.0)).tobytes()


class TestDetuningLanes:
    # kappa/2pi = 100 kHz, Gamma/2pi = 7 mHz and eta = 10, as at the fig3a point
    KAPPA, GAMMA = 2 * math.pi * 1e5, 2 * math.pi * 7e-3
    G = math.sqrt(10.0 * GAMMA * KAPPA) / 2.0

    # (noise, detuning bracket, t_max): without noise the default time
    # bracket reaches past the collapse of the mean spin, so the noiseless
    # runs keep Omega t <= 0.8 on a narrower bracket; the one-point bracket
    # at the fig3a detuning is optimal_time's scan
    NOISE = [(NoiseModel(include_free_space=True, include_cavity_leak=True),
              (KAPPA, 1e4 * KAPPA), None),
             (NoiseModel.none(), (10.0 * KAPPA, 40.0 * KAPPA), 0.8 * 10.0 * KAPPA / G ** 2),
             (NoiseModel(include_free_space=True, include_cavity_leak=True),
              (112.0 * KAPPA, 112.0 * KAPPA), None)]

    @pytest.mark.parametrize("noise, bracket, t_max", NOISE,
                             ids=["full-noise", "noiseless", "one-detuning"])
    @pytest.mark.parametrize("tier, protocol, n_atoms", [("analytic", "oat", 10_000),
                                                         ("dicke", "oat", 50),
                                                         ("dicke", "tat", 20)])
    def test_coarse_lanes_equal_one_lane_solves(self, monkeypatch, noise, bracket, t_max,
                                                tier, protocol, n_atoms):
        # the coarse tau grid solves each tau's least noise over Delta in one
        # array call and the refinement in float calls of the same solve, so at
        # every tau of the grid the two agree, +inf at the same taus
        minimize = optimize.minimize_on_log_axis
        coarse = []

        def recording(f, grid, values, rel_tol):
            if len(grid) == optimize.TIME_GRID_POINTS:  # the tau grid, not a Delta grid
                coarse.append((np.array(values), np.array([f(x) for x in grid])))
            return minimize(f, grid, values, rel_tol)

        monkeypatch.setattr(optimize, "minimize_on_log_axis", recording)
        optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, n_atoms, noise, tier=tier,
                                  protocol=protocol, bracket=bracket, t_max=t_max)
        ((array, floats),) = coarse
        finite = np.isfinite(array)
        assert np.any(finite) and np.array_equal(finite, np.isfinite(floats))
        # a Dicke kernel's blocks of times round differently from one time
        rel = 0.0 if tier == "analytic" else 1e-12
        np.testing.assert_allclose(array, floats, rtol=rel, atol=0.0)
        if bracket[0] == bracket[1]:
            assert 0 < np.sum(finite) < finite.size


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
        dicke_opt = optimize.optimal_time(params, NoiseModel.none(), tier="dicke",
                                          protocol="oat")
        analytic_opt = optimize.optimal_time(params, NoiseModel.none(), tier="analytic")
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
            optimize.optimal_time(params, NoiseModel())


    def test_detuning_scan_checks_its_own_floor(self):
        # one atom cannot squeeze: at N eta = 1000 it stays above half its
        # floor 0.6, at N eta = 1 it falls below half its floor 6
        kappa, gamma = TestDetuningLanes.KAPPA, TestDetuningLanes.GAMMA
        g_1000, g_1 = (math.sqrt(eta * gamma * kappa) / 2.0 for eta in (1000.0, 1.0))
        assert optimize.optimal_detuning(g_1000, kappa, gamma, 1, NoiseModel()).xi_min > 1.0
        p = SystemParams(n_atoms=1, coupling_g=g_1, kappa=kappa, gamma=gamma, delta=kappa)
        floor = analytic.xi_bound(1, p.eta)
        with pytest.raises(NumericsError, match=f"half the closed-form floor {floor!r}"):
            optimize.optimal_detuning(g_1, kappa, gamma, 1, NoiseModel())


class TestResolver:
    def test_auto_tier(self, fig3a_params, full_noise):
        result = optimize.optimal_time(fig3a_params, full_noise)
        assert (result.model_tier, result.protocol) == ("analytic", "oat")

    @pytest.mark.parametrize("tier, protocol", [("analytic", "tat"), ("bogus", "oat"),
                                                ("auto", "xyz")])
    def test_invalid_choice_is_config_error(self, fig3a_params, full_noise, tier, protocol):
        with pytest.raises(ConfigError):
            optimize.optimal_time(fig3a_params, full_noise, tier=tier, protocol=protocol)


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
        if protocol == "tat":  # a coarser tau grid keeps the Dicke solves short
            monkeypatch.setattr(optimize, "TIME_GRID_POINTS", 80)
        scan = optimize.scaling_scan(points, protocol=protocol)
        rows, slope, intercept = self.one_point_rows(points, protocol)
        assert scan.rows() == rows
        assert (scan.slope, scan.intercept) == (slope, intercept)


class TestLeastNoise:
    """The least-noise detuning against a dense reference, at fig3a kappa, Gamma
    and eta = 10 with N = 1e4, where D* = g sqrt((1-q) S kappa/Gamma) = 7.0e7 rad/s."""

    KAPPA, GAMMA, G = TestDetuningLanes.KAPPA, TestDetuningLanes.GAMMA, TestDetuningLanes.G
    S = 5_000.0
    LOG_TOL = 1e-6  # on log Delta
    CHANNELS = {"both": NoiseModel(), "leak": NoiseModel(include_free_space=False),
                "decay": NoiseModel(include_cavity_leak=False), "none": NoiseModel.none()}

    def ranges(self, case, q):
        """(taus, d_lo per tau, d_hi per tau) of a case."""
        whole = (self.KAPPA, 1e4 * self.KAPPA)
        if case == "interior":
            taus, (lo, hi) = np.array([1e-6, 1e-4, 1e-3, 3e-3]), whole
        elif case == "upper-guard":  # p_decay = 1/2 cuts the range below hi
            taus, (lo, hi) = np.array([8e-3, 1e-2, 1.2e-2]), whole
        elif case == "lower-guard":  # p_leak = 1/2 cuts it just below hi: a corner
            lo, hi = self.KAPPA, 2.0 * self.KAPPA
            corner = hi * math.atanh(0.5) / ((1.0 - q) * self.S * self.KAPPA)
            taus = corner * np.array([0.9999, 0.99999])
        elif case == "bracket-low":
            taus, (lo, hi) = np.array([1e-6, 1e-4]), (self.KAPPA, 2.0 * self.KAPPA)
        elif case == "bracket-high":
            taus, (lo, hi) = np.array([1e-6, 1e-4]), (1e4 * self.KAPPA, 2e4 * self.KAPPA)
        else:  # "time-clipped": t = tau Delta/g^2 <= 0.05 s cuts the range below D*;
            # at tau = 1e-3 it ends below the guard end p_leak = 1/2, so it is empty
            taus, (lo, hi) = np.array([1e-4, 3e-4, 5e-4, 1e-3]), whole
            return taus, np.full(taus.shape, lo), np.minimum(hi, self.G ** 2 * 0.05 / taus)
        return taus, np.full(taus.shape, lo), np.full(taus.shape, hi)

    def reference(self, noise, tau, d_lo, d_hi):
        """(least noise, its Delta): the argmin of a 20001-point log-Delta grid on the
        range where both exposures stay <= 1/2, refined by bounded Brent on log Delta
        between its neighbours; (inf, nan) where that range is empty.  p_decay is
        1 - exp(-b Delta) through expm1, which keeps its digits at small exposure."""
        q = noise.detector_efficiency_q
        a = (1.0 - q) * self.S * self.KAPPA * tau if noise.include_cavity_leak else 0.0
        b = self.GAMMA * tau / self.G ** 2 if noise.include_free_space else 0.0
        lo = max(d_lo, a / math.atanh(0.5) * (1.0 + 1e-12)) if a else d_lo
        hi = min(d_hi, math.log(2.0) / b * (1.0 - 1e-12)) if b else d_hi
        if lo > hi:
            return math.inf, math.nan

        def noise_xi(u):
            p_leak, p_decay = np.tanh(a / np.exp(u)), -np.expm1(-b * np.exp(u))
            return 2.0 * (p_leak * (1.0 - p_leak) + p_decay * (1.0 - p_decay))

        u = np.linspace(math.log(lo), math.log(hi), 20_001)
        values = noise_xi(u)
        i = int(np.argmin(values))
        found = minimize_scalar(lambda x: float(noise_xi(x)), method="bounded",
                                bounds=(u[max(i - 1, 0)], u[min(i + 1, u.size - 1)]),
                                options={"xatol": 1e-12})
        if found.fun < values[i]:
            return found.fun, math.exp(found.x)
        return values[i], math.exp(u[i])

    @pytest.mark.parametrize("case", ["interior", "upper-guard", "lower-guard", "bracket-low",
                                      "bracket-high", "time-clipped"])
    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("channels", list(CHANNELS))
    def test_matches_a_dense_reference(self, channels, q, case):
        noise = replace(self.CHANNELS[channels], detector_efficiency_q=q)
        solver = optimize._DetuningNoise(self.S, self.G ** 2, self.KAPPA, self.GAMMA, noise)
        taus, d_lo, d_hi = self.ranges(case, q)
        values, deltas, *ends = solver.least(taus, d_lo, d_hi)
        for k, tau in enumerate(taus.tolist()):
            # a float tau, with a channel off too, gives the array call's element
            value, delta, *_ = solver.least(tau, float(d_lo[k]), float(d_hi[k]))
            assert (value, delta) == (values[k], deltas[k]) and type(value) is float
            ref_value, ref_delta = self.reference(noise, tau, d_lo[k], d_hi[k])
            # the 1 - exp(-Gamma t) of the noise channel costs up to ~1e-11 relative
            assert value == pytest.approx(ref_value, rel=1e-9, abs=0.0)
            if value == math.inf:
                assert case == "time-clipped" and tau == 1e-3 and channels in ("both", "leak")
            elif channels == "none":  # no noise anywhere: the lower end wins the tie
                assert (value, delta) == (0.0, d_lo[k])
            else:
                assert abs(math.log(delta / ref_delta)) <= self.LOG_TOL
        valid = np.isfinite(values)
        if channels != "both":  # one channel: the noise is monotone in Delta
            assert np.all((deltas == ends[1 if channels == "leak" else 0])[valid])
        elif case == "bracket-low":
            assert np.all(deltas == d_hi)
        elif case == "time-clipped":
            assert np.all((deltas == d_hi)[valid]) and np.all(d_hi < 1e4 * self.KAPPA)
        elif case == "bracket-high":
            assert np.all(deltas == d_lo)
        elif case == "upper-guard":
            assert np.all((deltas == ends[1]) & (ends[1] < d_hi))
        elif case == "lower-guard":
            assert np.all((deltas == ends[0]) & (ends[0] > d_lo))
        else:
            assert np.all((ends[0] < deltas) & (deltas < ends[1]))


class TestTauScan:
    KAPPA, GAMMA, G = TestDetuningLanes.KAPPA, TestDetuningLanes.GAMMA, TestDetuningLanes.G

    # (tier, protocol, N, xi_min, t_opt, Delta_opt) of the nested search over
    # (t, Delta) that the tau scan replaced: an optimal time per detuning,
    # refined over the detuning.  Full noise, fig3a kappa, Gamma and eta.
    # At N = 1e6 the exact least-noise detuning moved t_opt by 2.4e-3 from the
    # nested search's, so its t_opt and Delta_opt are the exact solve's.
    NESTED = [
        ("analytic", "oat", 1_000, 0.2525765075639503, 0.987586250993666, 22702548.13706912),
        ("analytic", "oat", 10_000, 0.12344174909229098, 0.47573910372070904,
         71022843.96961331),
        ("analytic", "oat", 100_000, 0.05872100161879328, 0.22448686581756885,
         223392175.8799659),
        ("analytic", "oat", 1_000_000, 0.027571382895782284, 0.1048844409574457,
         704103776.6534747),
        ("dicke", "oat", 2_000, 0.20444463329188062, 0.7960697412899154, 32001487.8079095),
        ("dicke", "tat", 200, 0.36837216399112693, 1.6527911105885345, 10327273.706843589),
        ("dicke", "tat", 600, 0.2537627885406417, 1.1548921593158203, 17672247.225690782),
        ("dicke", "tat", 1_000, 0.21158911919031012, 0.9678281739789324, 22702548.13706912),
        ("dicke", "tat", 2_000, 0.16410815573417217, 0.7554499036083671, 31919959.266035113),
        ("dicke", "tat", 4_000, 0.12630894851700505, 0.5860580207572245, 44994340.772395276),
    ]

    @pytest.mark.parametrize("tier, protocol, n_atoms, xi_min, t_opt, delta_opt", NESTED)
    def test_no_worse_than_the_nested_search(self, tier, protocol, n_atoms, xi_min, t_opt,
                                             delta_opt):
        # the optimum moves within the flatness of the minimum at REL_TOL
        result = optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, n_atoms, NoiseModel(),
                                           tier=tier, protocol=protocol)
        assert result.flags == ()
        assert xi_min * (1.0 - 1e-5) <= result.xi_min <= xi_min * (1.0 + 1e-6)
        assert result.t_opt == pytest.approx(t_opt, rel=2e-3)
        assert result.delta_opt == pytest.approx(delta_opt, rel=2e-3)

    @pytest.mark.parametrize("bracket, t_max, flags", [
        ((KAPPA, 2.0 * KAPPA), None, ("delta_upper_edge",)),
        ((1e4 * KAPPA, 2e4 * KAPPA), None, ("delta_lower_edge",)),
        (None, 0.05, ("time_upper_edge",))], ids=["delta-low", "delta-high", "t_max-short"])
    def test_edge_flags(self, bracket, t_max, flags):
        # detuning brackets below and above the best detuning at N = 1e4, and
        # a time bracket that ends before the best time: there the best
        # detuning at the optimal tau is the one that reaches t_max
        result = optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, 10_000, NoiseModel(),
                                           bracket=bracket, t_max=t_max)
        assert result.flags == flags
        if t_max is not None:
            assert result.t_opt == pytest.approx(t_max, rel=1e-12)

    def test_a_guard_end_short_of_the_bracket_is_no_edge(self):
        # N = 10 on [10, 40] kappa: the best detuning is the guard end
        # p_decay = 1/2, 7 % above the bracket's bottom, so no flag is raised
        result = optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, 10, NoiseModel(),
                                           bracket=(10.0 * self.KAPPA, 40.0 * self.KAPPA))
        assert result.flags == ()
        assert 1.05 < result.delta_opt / (10.0 * self.KAPPA) < 1.1
        assert -math.expm1(-self.GAMMA * result.t_opt) == pytest.approx(0.5, rel=1e-9)

    # (tier, protocol, N, detuning bracket, t_max), the xi_min of the search
    # that refined every coarse tau's noise over Delta on a 96-point grid
    # before the coarse grid went to the refinement over tau, and the
    # (xi_min, t_opt, Delta_opt, flags) of the exact least-noise solve.  At
    # the two narrow brackets the optimum sits where the exposure guard
    # pinches the valid Delta range against the bracket end that is flagged.
    LANE_SEARCH = [
        (("analytic", "oat", 10_000, None, None), 0.12344174839286519,
         (0.12344173944666881, 0.4755541149588661, 70988006.91125047, ())),
        (("dicke", "tat", 1_000, None, None), 0.21158924093448017,
         (0.21158911408552558, 0.9676020195665511, 22695985.369890112, ())),
        (("auto", "oat", 10_000, (KAPPA, 2.0 * KAPPA), None), 0.65011524470654,
         (0.6501152343612236, 0.00399631929550469, 1256598.944435286, ("delta_upper_edge",))),
        (("auto", "oat", 10_000, (1e4 * KAPPA, 2e4 * KAPPA), None), 0.708774614978336,
         (0.7087746140182867, 15.75968572517364, 6283220395.6101265, ("delta_lower_edge",))),
        (("auto", "oat", 10_000, None, 0.05), 0.23448740072742336,
         (0.23448740072742336, 0.05, 14030305.973709581, ("time_upper_edge",))),
    ]

    @pytest.mark.parametrize("case, lane_xi_min, pinned", LANE_SEARCH,
                             ids=["analytic-1e4", "dicke-tat-1000", "delta-low", "delta-high",
                                  "t_max-short"])
    def test_unrefined_coarse_grid_keeps_the_lane_search_optimum(self, case, lane_xi_min,
                                                                 pinned):
        tier, protocol, n_atoms, bracket, t_max = case
        result = optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, n_atoms, NoiseModel(),
                                           tier=tier, protocol=protocol, bracket=bracket,
                                           t_max=t_max)
        *values, flags = pinned
        assert result.flags == flags
        assert result.xi_min <= lane_xi_min * (1.0 + 1e-12)
        np.testing.assert_allclose([result.xi_min, result.t_opt, result.delta_opt], values,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_one_coherent_kernel_per_n(self, monkeypatch, protocol):
        kernels = _record_kernels(monkeypatch)
        optimize.optimal_detuning(self.G, self.KAPPA, self.GAMMA, 200, NoiseModel(),
                                  tier="dicke", protocol=protocol)
        assert len(kernels) == 1

    def test_rotation_assisted_scaling_with_noise(self):
        # N eta spans two decades, 1e3 to 1e5
        scan = optimize.scaling_scan([(400, 2.5), (1_000, 10.0), (4_000, 25.0)], protocol="tat")
        for row in scan.points:
            assert row.xi_min > row.floor == analytic.tat_xi_floor(row.n_atoms, row.eta)
        assert scan.slope < 0


class TestOptimalTime:
    # (tier, protocol, N, q, xi_min, t_opt) of optimal_time's own search on
    # log t, before it became the tau scan at one detuning: full noise with
    # detector efficiency q at the fig3a kappa, Gamma, eta and Delta
    TIME_SEARCH = [
        ("analytic", "oat", 1_000, 0.0, 0.3344648490142512, 2.641048243638938),
        ("analytic", "oat", 1_000, 0.5, 0.32290390259208734, 2.731413655043718),
        ("analytic", "oat", 10_000, 0.0, 0.12344456541174581, 0.47139080979717096),
        ("analytic", "oat", 10_000, 0.5, 0.10240916694708928, 0.524419817012797),
        ("analytic", "oat", 100_000, 0.0, 0.08368683279111686, 0.058628797574609835),
        ("analytic", "oat", 100_000, 0.5, 0.056610085405622616, 0.07216420134011242),
        ("analytic", "oat", 1_000_000, 0.0, 0.07898962289033627, 0.006061507415901837),
        ("analytic", "oat", 1_000_000, 0.5, 0.05076246390614083, 0.007653846739486355),
        ("dicke", "oat", 200, 0.0, 0.6152766694880012, 15.7525508952514),
        ("dicke", "oat", 200, 0.5, 0.6017560904591697, 15.7525508952514),
        ("dicke", "oat", 2_000, 0.0, 0.23921433567243355, 1.6132382817342634),
        ("dicke", "oat", 2_000, 0.5, 0.22506939384160346, 1.6880752840982283),
        ("dicke", "tat", 200, 0.0, 0.5918539275760013, 15.12090720793345),
        ("dicke", "tat", 200, 0.5, 0.5787698816240232, 15.344428980398517),
        ("dicke", "tat", 1_000, 0.0, 0.29346519646891933, 2.6896931171428533),
        ("dicke", "tat", 1_000, 0.5, 0.28173944206995427, 2.759754459823964),
        ("dicke", "tat", 4_000, 0.0, 0.13517614071433298, 0.8999049189116392),
        ("dicke", "tat", 4_000, 0.5, 0.11946880268468835, 0.9372721552297801),
    ]
    # (N, xi_min, t_opt) of the same search for the noiseless rotation-assisted
    # scaling rows at eta = 10, each an optimal_time at Delta = 100 kappa
    SCALING_ROWS = [(40, 0.13781367357872726, 53.82033737283459),
                    (400, 0.04687366834242312, 7.697123040956871),
                    (4_000, 0.015182779775706876, 1.0205151161364434)]

    @staticmethod
    def fig3a(n_atoms, sign=1.0):
        return SystemParams.from_frequencies(
            n_atoms, kappa_hz=1e5, gamma_hz=7e-3, delta_hz=sign * 11.2e6, eta=10.0)

    @pytest.mark.parametrize("tier, protocol, n_atoms, q, xi_min, t_opt", TIME_SEARCH)
    def test_no_worse_than_the_time_search(self, tier, protocol, n_atoms, q, xi_min, t_opt):
        # the refinement on log(S tau) stops at another width than the one on
        # log t did, so the optimum moves within the flatness of the minimum
        result = optimize.optimal_time(self.fig3a(n_atoms), NoiseModel(detector_efficiency_q=q),
                                       tier=tier, protocol=protocol)
        assert result.flags == () and result.delta_opt is None
        assert xi_min * (1.0 - 1e-4) <= result.xi_min <= xi_min * (1.0 + 1e-6)
        assert result.t_opt == pytest.approx(t_opt, rel=2e-3)

    def test_noiseless_tat_scaling_rows(self):
        scan = optimize.scaling_scan([(n, 10.0) for n, _, _ in self.SCALING_ROWS],
                                     protocol="tat", noise=NoiseModel.none())
        for row, (n_atoms, xi_min, t_opt) in zip(scan.points, self.SCALING_ROWS, strict=True):
            assert row.n_atoms == n_atoms and row.delta_opt is None
            assert xi_min * (1.0 - 1e-4) <= row.xi_min <= xi_min * (1.0 + 1e-6)
            assert row.t_opt == pytest.approx(t_opt, rel=2e-3)

    @pytest.mark.parametrize("tier, protocol, n_atoms", [("analytic", "oat", 10_000),
                                                         ("dicke", "oat", 200),
                                                         ("dicke", "tat", 200)])
    def test_sign_of_the_detuning(self, full_noise, tier, protocol, n_atoms):
        # xi is even in Delta, so -Delta runs the scan at |Delta| bit for bit:
        # the same xi_min, t_opt, flags and bracket_t, every field compared
        plus, minus = (optimize.optimal_time(self.fig3a(n_atoms, sign), full_noise, tier=tier,
                                             protocol=protocol) for sign in (1.0, -1.0))
        assert minus == plus


class TestProperties:
    @PROPERTY
    @given(n=st.integers(2, 2000), u=st.floats(0.0, 3.0))
    def test_dicke_oat_matches_closed_form(self, n, u):
        # twisting phase u/sqrt(N) spans the squeezing window and the
        # over-twisted regime while the mean spin stays well defined
        p = small_params(n)
        t = u / math.sqrt(n)
        xi_dicke = xi_numeric(dicke.evolve_oat(dicke.css(n), p.omega_twist, t))
        assert xi_dicke == pytest.approx(analytic.xi_unitary(p, t).xi, rel=1e-8, abs=1e-12)

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
        report = core.feasibility_report(params, FeasibilityParams.from_frequencies(**self.FEAS))
        omega_hz, delta_hz = 4.0, self.SYSTEM["delta_hz"]
        fsr_hz, jitter_hz = self.FEAS["fsr_hz"], self.FEAS["fsr_jitter_hz"]
        samples = self.FEAS["noise_bandwidth_hz"] * self.FEAS["squeeze_time_s"]
        assert report.omega_twist_hz == pytest.approx(omega_hz, rel=1e-12)
        assert report.clock_shift_during_squeeze_rad_s == pytest.approx(
            2 * math.pi * omega_hz, rel=1e-12)
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
