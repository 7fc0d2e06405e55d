import math
from dataclasses import replace

import numpy as np
import pytest

from vacuumsq import (DegenerateMeanSpinError, NoiseModel, NumericsError, PhysicsError,
                      SystemParams, derive_params)
from vacuumsq import analytic, dicke

from conftest import oat_moments, small_params, tat_variance_bosonic, xi_approx


def quadrature_variance(mom, phi):
    """Variance of cos(phi) Sy - sin(phi) Sz from transverse moments."""
    return (np.cos(phi) ** 2 * mom.var_y + np.sin(phi) ** 2 * mom.var_z
            - np.sin(2 * phi) * mom.cross_zy / 2.0)


class TestCosPow:
    def test_matches_direct_power_small(self):
        x = np.linspace(0, 3.0, 17)
        for p in (0, 1, 2, 3, 7, 8):
            assert analytic.cos_pow(x, p) == pytest.approx(np.cos(x) ** p, abs=1e-14)

    def test_survives_huge_exponents(self):
        val = analytic.cos_pow(1e-3, 2 * 50_000 - 2)
        assert val == pytest.approx(math.exp(-(2 * 50_000 - 2) * 5.0000004e-7), rel=1e-6)
        # genuine double underflow degrades gracefully to 0, no warning
        assert analytic.cos_pow(1.4, 99_999) == 0.0

    def test_exact_zero_of_cosine(self):
        assert analytic.cos_pow(np.pi / 2, 3) == pytest.approx(0.0, abs=1e-15)

    def test_odd_power_keeps_sign(self):
        assert analytic.cos_pow(3.0, 3) < 0
        assert analytic.cos_pow(3.0, 4) > 0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            analytic.cos_pow(0.1, -1)
        with pytest.raises(ValueError):
            analytic.cos_pow(0.1, 2.5)

    def test_integral_float_and_empty_exponents(self):
        assert analytic.cos_pow(0.3, 2.0) == analytic.cos_pow(0.3, 2)


class TestOatMoments:
    def test_initial_moments(self):
        d = derive_params(small_params(8))
        m = oat_moments(d, 0.0)
        assert m.var_z == m.var_y == 2.0  # S/2
        assert m.cross_zy == 0.0
        assert m.mean_x == 4.0
        assert dicke.min_transverse_variance(m) == (pytest.approx(2.0), 0.0)

    def test_single_spin_has_no_cross_term(self):
        d = derive_params(small_params(1))
        for t in (0.0, 0.3, 2.0):
            m = oat_moments(d, t)
            assert m.cross_zy == 0.0
            assert m.var_y == 0.25

    def test_rejects_negative_time(self):
        d = derive_params(small_params(4))
        with pytest.raises(PhysicsError):
            oat_moments(d, -0.1)


class TestXiUnitary:
    def test_starts_at_one(self):
        d = derive_params(small_params(12))
        xi, angle = analytic.xi_unitary(d, 0.0)
        assert xi == 1.0
        assert angle == 0.0

    def test_single_spin_never_squeezes(self):
        d = derive_params(small_params(1))
        t = np.linspace(0, 5, 7)
        xi, _ = analytic.xi_unitary(d, t)
        assert np.all(xi == 1.0)

    def test_never_exceeds_one(self):
        for n in (2, 3, 17, 100):
            d = derive_params(small_params(n))
            xi, _ = analytic.xi_unitary(d, np.linspace(0, 8.0, 400))
            assert np.all(xi <= 1.0 + 1e-14)

    def test_even_in_twist_sign(self):
        base = dict(n_atoms=40, coupling_g=2.0, kappa=0.0, gamma=0.0)
        dp = derive_params(SystemParams(delta=9.0, **base))
        dm = derive_params(SystemParams(delta=-9.0, **base))
        t = np.linspace(0, 2.0, 11)
        assert analytic.xi_unitary(dp, t).xi == pytest.approx(
            analytic.xi_unitary(dm, t).xi, rel=1e-14)

    def test_fig3a_value_frozen(self, fig3a_derived):
        # pinned by this implementation; cross-checked against the exact
        # ladder evolution in the acceptance suite
        xi, _ = analytic.xi_unitary(fig3a_derived, 0.46)
        assert xi == pytest.approx(0.04474812823980634, rel=1e-12)

    def test_angle_is_the_argmin(self):
        # brute-force the quadrature variance in the documented convention
        d = derive_params(small_params(6))
        phis = np.linspace(-np.pi / 2, np.pi / 2, 40_001)
        for t in (0.05, 0.2, 0.45):
            m = oat_moments(d, t)
            xi, angle = analytic.xi_unitary(d, t)
            brute = float(np.min(quadrature_variance(m, phis)))
            # the closed-form angle can only do as well or better than the grid
            at_angle = quadrature_variance(m, angle)
            assert at_angle <= brute + 1e-12
            assert at_angle == pytest.approx(brute, rel=1e-6)
            assert (d.spin_S / 2) * xi == pytest.approx(at_angle, rel=1e-12)

    def test_angle_sign_follows_twist_sign(self):
        base = dict(n_atoms=6, coupling_g=2.0, kappa=0.0, gamma=0.0)
        ap = analytic.xi_unitary(derive_params(SystemParams(delta=9.0, **base)), 0.1).angle
        am = analytic.xi_unitary(derive_params(SystemParams(delta=-9.0, **base)), 0.1).angle
        assert ap == pytest.approx(-am, rel=1e-12)


FREE_SPACE = NoiseModel(include_cavity_leak=False)
CAVITY_LEAK = NoiseModel(include_free_space=False)


def added_var(d, t, noise):
    return analytic.noise_budget(d, t, noise).added_var


class TestNoiseVariances:
    def test_free_space_limits(self):
        d = derive_params(replace(small_params(100), gamma=2.0))
        assert added_var(d, 0.0, FREE_SPACE) == 0.0
        assert added_var(d, 1e9, FREE_SPACE) == pytest.approx(0.0, abs=1e-300)

    def test_free_space_maximum_at_half_decay(self):
        # p(1-p) peaks at p = 1/2, i.e. Gamma t = ln 2, value S/4
        gamma = 0.7
        d = derive_params(replace(small_params(100), gamma=gamma))
        t_half = math.log(2.0) / gamma
        assert added_var(d, t_half, FREE_SPACE) == pytest.approx(50.0 / 4)
        below = added_var(d, 0.9 * t_half, FREE_SPACE)
        above = added_var(d, 1.1 * t_half, FREE_SPACE)
        assert below < 12.5 and above < 12.5

    def test_cavity_leak_limits(self, fig3a_derived):
        assert added_var(fig3a_derived, 0.0, CAVITY_LEAK) == 0.0
        assert added_var(fig3a_derived, 1e9, CAVITY_LEAK) == pytest.approx(0.0, abs=1e-10)

    def test_cavity_leak_matches_direct_evaluation(self, fig3a_derived):
        d = fig3a_derived
        p = d.params
        t = 0.46
        exposure = math.tanh(d.spin_S * (d.omega_twist / p.delta) * p.kappa * t)
        expected = d.spin_S * exposure * (1.0 - exposure)
        assert added_var(d, t, CAVITY_LEAK) == pytest.approx(expected, rel=1e-14)

    def test_detector_efficiency_scales_exposure(self, fig3a_derived):
        d = fig3a_derived
        full = added_var(d, 0.46, CAVITY_LEAK)
        seen = added_var(d, 0.46, replace(CAVITY_LEAK, detector_efficiency_q=0.9))
        # small-argument regime: linear in the (1-q)-scaled exposure
        assert seen == pytest.approx(0.1 * full, rel=2e-2)
        assert added_var(d, 0.46, replace(CAVITY_LEAK, detector_efficiency_q=1.0)) == 0.0


CHANNELS = {"both": NoiseModel(), "leak only": CAVITY_LEAK, "decay only": FREE_SPACE,
            "none": NoiseModel.none()}


class TestNoiseBudgetScalars:
    """A scalar t gives Python floats with the bits of one array call's matching element."""

    TIMES = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 301)])

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("channels", list(CHANNELS))
    def test_scalar_calls_equal_the_array_call_bitwise(self, fig3a_derived, channels, q):
        noise = replace(CHANNELS[channels], detector_efficiency_q=q)
        array = analytic.noise_budget(fig3a_derived, self.TIMES, noise)
        assert all(field.shape == self.TIMES.shape for field in array)
        for i, t in enumerate(self.TIMES.tolist()):
            want = [field[i].tobytes() for field in array]
            for scalar in (t, np.array(t), np.float64(t)):
                budget = analytic.noise_budget(fig3a_derived, scalar, noise)
                assert all(type(field) is float for field in budget)
                assert [np.float64(field).tobytes() for field in budget] == want

    @pytest.mark.parametrize("t", [-1e-9, np.array(-1.0), np.float64(-2.0)],
                             ids=["float", "0-d", "float64"])
    def test_negative_scalar_time_is_refused(self, fig3a_derived, t):
        with pytest.raises(PhysicsError):
            analytic.noise_budget(fig3a_derived, t, NoiseModel())

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("channels", list(CHANNELS))
    def test_channel_function_equals_noise_budget_bitwise(self, fig3a_derived, channels, q):
        # the optimizer calls the channels with its own leak rates: one per
        # detuning of a grid, with times of the grid's shape, or one float
        noise = replace(CHANNELS[channels], detector_efficiency_q=q)
        d, p = fig3a_derived, fig3a_derived.params
        rates = d.leak_rate * np.geomspace(1e-3, 1e3, self.TIMES.size)
        cases = [(d.leak_rate, self.TIMES), (rates, self.TIMES)]
        cases += [(d.leak_rate, t) for t in self.TIMES.tolist()]
        cases += [(rate, t) for rate, t in zip(rates.tolist(), self.TIMES.tolist())]
        for rate, t in cases:
            got = analytic._noise_channels(d.spin_S, rate, p.kappa, p.gamma, t, noise)
            if np.ndim(rate) == 0:
                want = analytic.noise_budget(replace(d, leak_rate=rate), t, noise)
            else:  # one instance per leak rate, each on its own time
                want = [np.array(column) for column in zip(*(
                    analytic.noise_budget(replace(d, leak_rate=r), u, noise)
                    for r, u in zip(rates.tolist(), self.TIMES.tolist())))]
            if np.ndim(t) == 0:
                assert all(type(field) is float for field in got)
            assert [np.asarray(f, dtype=float).tobytes() for f in got] == \
                [np.asarray(f, dtype=float).tobytes() for f in want]


class TestXiUnitaryScalars:
    """A float t gives Python floats with the bits of the array calls, in xi and angle."""

    # Omega t = t: zero, generic phases, and phases within a few ulps of the
    # multiples of pi/2, where cos crosses zero or turns
    NEAR = [np.nextafter(k * math.pi / 2, side) for k in range(1, 5) for side in (0.0, 10.0)]
    PHASES = np.array([0.0, 1e-300, 1e-9, 1e-3, 0.1, 0.7, 1.3, 2.0, 3.0, 4.5, 6.0]
                      + [k * math.pi / 2 for k in range(1, 5)] + NEAR)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 10_000, 1_000_000],
                             ids=["S=1/2", "S=1", "S=3/2", "S=2", "S=5000", "S=5e5"])
    def test_scalar_calls_equal_the_array_calls_bitwise(self, n_atoms):
        d = derive_params(small_params(n_atoms))
        grid = analytic.xi_unitary(d, self.PHASES)
        for i, t in enumerate(self.PHASES.tolist()):
            got = analytic.xi_unitary(d, t)
            one = analytic.xi_unitary(d, np.array([t]))
            assert type(got.xi) is float and type(got.angle) is float
            for field in ("xi", "angle"):
                bits = np.float64(getattr(got, field)).tobytes()
                assert bits == getattr(one, field)[0].tobytes() == getattr(grid, field)[i].tobytes()

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 9_999, 10_000])
    def test_cos_pow_scalar_equals_the_array_call_bitwise(self, p):
        array = analytic.cos_pow(self.PHASES, p)
        for i, x in enumerate(self.PHASES.tolist()):
            assert np.float64(analytic.cos_pow(x, p)).tobytes() == array[i].tobytes()


class TestNonFiniteTime:
    """A NaN or infinite t raises NumericsError, as dicke.time_grid does for the Dicke tier."""

    CALLS = {
        "xi_unitary": lambda d, t: analytic.xi_unitary(d, t),
        "xi_total": lambda d, t: analytic.xi_total(d, t, NoiseModel()),
        "xi_total noise off": lambda d, t: analytic.xi_total(d, t, NoiseModel.none()),
        "noise_budget": lambda d, t: analytic.noise_budget(d, t, NoiseModel()),
        "squeezing_trace": lambda d, t: analytic.squeezing_trace(d, t, NoiseModel()),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array(math.nan), np.float64(math.inf),
                                   np.array([0.1, math.nan]), [0.0, math.inf]],
                             ids=["nan", "inf", "0-d nan", "float64 inf", "array nan",
                                  "list inf"])
    def test_is_refused(self, fig3a_derived, call, t):
        with pytest.raises(NumericsError, match="non-finite time"):
            self.CALLS[call](fig3a_derived, t)

    @pytest.mark.parametrize("t", [-math.inf, [0.1, -math.inf]], ids=["scalar", "array"])
    def test_negative_infinity_is_a_negative_time(self, fig3a_derived, t):
        with pytest.raises(PhysicsError, match="time must be >= 0"):
            analytic.xi_unitary(fig3a_derived, t)

    def test_the_dicke_tier_agrees(self, fig3a_derived):
        for t in ([0.1, math.nan], [0.1, math.inf]):
            with pytest.raises(NumericsError, match="non-finite time"):
                dicke.squeezing_trace(fig3a_derived, t, NoiseModel.none())


class TestXiTotal:
    def test_noise_off_equals_unitary(self, fig3a_derived):
        t = np.linspace(0.0, 1.0, 9)
        assert analytic.xi_total(fig3a_derived, t, NoiseModel.none()) == pytest.approx(
            analytic.xi_unitary(fig3a_derived, t).xi, rel=1e-15)

    def test_noise_only_adds(self, fig3a_derived, full_noise):
        t = np.geomspace(1e-3, 5.0, 50)
        xi_u = analytic.xi_unitary(fig3a_derived, t).xi
        xi_t = analytic.xi_total(fig3a_derived, t, full_noise)
        assert np.all(xi_t >= xi_u)

    def test_each_noise_term_bounded_by_half(self, fig3a_derived, full_noise):
        # contributions are 2 p (1-p) with p in [0, 1]
        d = fig3a_derived
        t = np.geomspace(1e-3, 1e3, 200)
        leak = added_var(d, t, CAVITY_LEAK) / (d.spin_S / 2)
        decay = added_var(d, t, FREE_SPACE) / (d.spin_S / 2)
        assert np.all((0 <= leak) & (leak <= 0.5 + 1e-12))
        assert np.all((0 <= decay) & (decay <= 0.5 + 1e-12))

    def test_fig3a_total_at_reported_time(self, fig3a_derived, full_noise):
        # frozen: unitary 0.0447481 + leak 0.0395035 + decay 0.0392550
        xi = analytic.xi_total(fig3a_derived, 0.46, full_noise)
        assert xi == pytest.approx(0.12350658901110641, rel=1e-12)

    def test_structure_is_unitary_plus_normalized_variances(self, fig3a_derived, full_noise):
        d = fig3a_derived
        t = 0.3
        expected = (analytic.xi_unitary(d, t).xi
                    + (added_var(d, t, CAVITY_LEAK) + added_var(d, t, FREE_SPACE))
                    / (d.spin_S / 2.0))
        assert analytic.xi_total(d, t, full_noise) == pytest.approx(expected, rel=1e-14)


class TestApproxAndBound:
    def test_bound_reference_values(self):
        assert analytic.xi_bound(10_000, 10.0) == pytest.approx(0.1292660814, rel=1e-9)
        assert analytic.xi_bound(10_000, 1.0) == pytest.approx(0.2784953300, rel=1e-9)
        assert analytic.to_db(analytic.xi_bound(10_000, 10.0)) == pytest.approx(-8.885, abs=2e-3)

    def test_bound_q_scaling(self):
        # recovering 90% of leaked photons rescales the bound by 0.1^(1/3)
        assert analytic.xi_bound(10_000, 10.0, 0.9) == pytest.approx(
            0.1 ** (1 / 3) * analytic.xi_bound(10_000, 10.0), rel=1e-12)
        assert analytic.xi_bound(10_000, 10.0, 1.0) == 0.0

    def test_bound_monotonic(self):
        assert analytic.xi_bound(10_000, 10.0) < analytic.xi_bound(10_000, 1.0)
        assert analytic.xi_bound(20_000, 1.0) < analytic.xi_bound(10_000, 1.0)
        # higher detector efficiency always helps
        assert analytic.xi_bound(100, 1.0, 0.9) < analytic.xi_bound(100, 1.0, 0.5)

    def test_approx_matches_term_sum(self, fig3a_derived):
        d = fig3a_derived
        p = d.params
        t = 0.3
        first = 1.0 / (2 * d.spin_S * d.omega_twist * t) ** 2
        second = 2 * d.spin_S * (d.omega_twist / p.delta) * p.kappa * t
        third = 2 * p.gamma * t
        assert xi_approx(d, t) == pytest.approx(first + second + third, rel=1e-14)
        assert xi_approx(d, t, 0.9) == pytest.approx(
            first + 0.1 * second + third, rel=1e-14)

    def test_approx_above_bound(self, fig3a_derived):
        t = np.geomspace(1e-3, 10.0, 200)
        bound = analytic.xi_bound(10_000, 10.0)
        assert np.all(xi_approx(fig3a_derived, t) >= bound * (1 - 1e-12))


class TestTatAnalytics:
    def test_bosonic_variance_start(self):
        d = derive_params(small_params(1000))
        assert tat_variance_bosonic(d, 0.0) == 250.0

    def test_bosonic_variance_phase_half(self):
        # at collective phase S*Omega*t = 1/2 the variance is (S/2)/e
        d = derive_params(small_params(1000, omega_twist=2.0))
        t = 0.5 / (500.0 * 2.0)
        assert tat_variance_bosonic(d, t) == pytest.approx(250.0 / math.e, rel=1e-12)

    def test_floor_reference_value(self):
        # 4 sqrt(2) (N eta)^(-1/2) at N eta = 1e5 -> -17.47 dB
        floor = analytic.tat_xi_floor(10_000, 10.0)
        assert floor == pytest.approx(0.017888543819998, rel=1e-12)
        assert analytic.to_db(floor) == pytest.approx(-17.474, abs=1e-3)


class TestTrace:
    def test_trace_consistency(self, fig3a_derived, full_noise):
        t = np.geomspace(1e-2, 2.0, 25)
        trace = analytic.squeezing_trace(fig3a_derived, t, full_noise)
        assert trace.model_tier == "analytic"
        assert trace.xi_total == pytest.approx(
            analytic.xi_total(fig3a_derived, t, full_noise), rel=1e-15)
        assert trace.var_min == pytest.approx(trace.xi_total * 2500.0, rel=1e-15)
        assert analytic.to_db(trace.xi_total) == pytest.approx(10 * np.log10(trace.xi_total),
                                                               rel=1e-12)

    def test_collapsed_mean_spin_raises_as_on_the_dicke_tier(self):
        # N = 1000, g = Delta = 1, no noise: by Omega t = 0.4 the twisted mean
        # spin is ~1e-33 S; both tiers refuse it with one error and message
        d = derive_params(SystemParams(n_atoms=1000, coupling_g=1.0, kappa=0.0, gamma=0.0,
                                       delta=1.0))
        messages = []
        for trace in (analytic.squeezing_trace, dicke.squeezing_trace):
            with pytest.raises(DegenerateMeanSpinError) as info:
                trace(d, [0.1, 0.4], NoiseModel.none())
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            "mean spin length ~ 0 at t=0.4: transverse plane undefined")
        # just before the collapse the trace is reported
        assert analytic.squeezing_trace(d, [0.1], NoiseModel.none()).mean_x[0] > 1e-9 * 500.0


class TestNoiseModelType:
    def test_q_range(self):
        with pytest.raises(PhysicsError):
            NoiseModel(detector_efficiency_q=1.5)
        with pytest.raises(PhysicsError):
            NoiseModel(detector_efficiency_q=-0.1)

    def test_none_inactive(self):
        assert not NoiseModel.none().any_active
        assert NoiseModel().any_active
