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
        objective = optimize._xi_objective(d, NoiseModel(), "analytic", "oat")
        t_half = math.log(2.0) / 0.5  # p_decay = 1 - exp(-Gamma t) = 1/2
        assert objective(0.9 * t_half) == analytic.xi_total(d, 0.9 * t_half, NoiseModel())
        assert objective(1.1 * t_half) == math.inf

    def test_leak_exposure_guarded_too(self):
        d = _lossy(100, gamma=0.0, kappa=0.3)
        noise = NoiseModel()
        objective = optimize._xi_objective(d, noise, "dicke", "oat")
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
        objective = optimize._xi_objective(d, NoiseModel(), tier, protocol)
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
        objective = optimize._xi_objective(d, NoiseModel(), "dicke", protocol)
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
        values = optimize._xi_objective(d, NoiseModel(), "dicke", protocol)(self.GRID)
        valid = np.isfinite(values)
        assert 0 < np.sum(valid) < self.GRID.size
        trace = dicke.squeezing_trace(d, self.GRID[valid], NoiseModel(), protocol=protocol)
        np.testing.assert_allclose(trace.xi_total, values[valid], rtol=1e-12, atol=0.0)

    def test_one_array_call_per_coarse_grid(self, monkeypatch, fig3a_derived, full_noise):
        shapes = []
        xi_objective = optimize._xi_objective

        def recording(*args):
            objective = xi_objective(*args)

            def wrapped(t):
                shapes.append(np.shape(t))
                return objective(t)
            return wrapped

        monkeypatch.setattr(optimize, "_xi_objective", recording)
        optimize.optimal_time(fig3a_derived, full_noise)
        # the 240-point grid in one call, then only the scalar golden refinement
        assert shapes == [(optimize.TIME_GRID_POINTS,)] + [()] * 13


class TestDetuningBracket:
    @pytest.mark.parametrize("bracket", [(1e9, 1e6), (0.0, 1e6), (-1e6, 1e6)],
                             ids=["reversed", "zero", "negative"])
    def test_bad_bracket_is_rejected_before_any_inner_solve(self, monkeypatch, bracket):
        calls = []
        monkeypatch.setattr(optimize, "optimal_time", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError):
            optimize.optimal_detuning(1e3, 1e5, 1e-2, 100, NoiseModel(), bracket=bracket)
        assert calls == []


class TestHalfFloorCheck:
    def test_result_below_half_floor_raises(self):
        # One atom cannot squeeze (xi = 1 + noise), while the closed-form
        # floor 6 (N eta)^(-1/3) at N eta = 1 is 6: the result sits below
        # half of it, which the optimizer reports as leaving the model.
        params = SystemParams.from_frequencies(1, kappa_hz=1e5, gamma_hz=7e-3,
                                               delta_hz=11.2e6, eta=1.0)
        with pytest.raises(NumericsError, match="half the closed-form floor"):
            optimize.optimal_time(derive_params(params), NoiseModel())


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
