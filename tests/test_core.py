import math
from dataclasses import replace

import pytest

from vacuumsq import (FeasibilityParams, PhysicsError, SystemParams, TWO_PI,
                      angular_to_hz, hz_to_angular)


class TestSystemParams:
    def test_rejects_bad_inputs(self):
        good = dict(n_atoms=10, coupling_g=1.0, kappa=1.0, gamma=1.0, delta=1.0)
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "n_atoms": 0})
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "n_atoms": 2.5})
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "coupling_g": 0.0})
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "kappa": -1.0})
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "gamma": -1.0})
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "delta": 0.0})
        with pytest.raises(PhysicsError):
            SystemParams(**{**good, "delta": math.inf})

    def test_negative_detuning_allowed(self):
        p = SystemParams(n_atoms=3, coupling_g=1.0, kappa=0.5, gamma=0.5, delta=-2.0)
        assert p.delta == -2.0

    def test_eta_inversion(self):
        # g chosen so that 4 g^2 = eta Gamma kappa
        p = SystemParams.from_frequencies(10_000, kappa_hz=1e5, gamma_hz=7e-3,
                                          delta_hz=11.2e6, eta=10.0)
        assert angular_to_hz(p.coupling_g) == pytest.approx(41.83, rel=1e-3)
        assert p.eta == pytest.approx(10.0, rel=1e-12)

    def test_g_and_eta_consistency_gate(self):
        kwargs = dict(kappa_hz=1e5, gamma_hz=7e-3, delta_hz=11.2e6)
        eta_of_g = 4 * 41.833 ** 2 / (0.007 * 1e5)
        SystemParams.from_frequencies(100, g_hz=41.833, eta=eta_of_g, **kwargs)
        with pytest.raises(PhysicsError, match="inconsistent"):
            SystemParams.from_frequencies(100, g_hz=41.833, eta=10.1, **kwargs)
        with pytest.raises(PhysicsError):
            SystemParams.from_frequencies(100, **kwargs)  # neither given

    def test_eta_requires_losses(self):
        with pytest.raises(PhysicsError):
            SystemParams.from_frequencies(10, kappa_hz=0.0, gamma_hz=1.0,
                                          delta_hz=1.0, eta=10.0)

    def test_regime_flag(self, fig3a_params):
        # |Delta| = 2pi 11.2 MHz >> 10 max(g sqrt(N) = 2pi 4.18 kHz, kappa)
        assert fig3a_params.regime_ok
        close = SystemParams(n_atoms=4, coupling_g=1.0, kappa=0.0, gamma=0.0, delta=5.0)
        assert not close.regime_ok


class TestDeriveParams:
    def test_spin_is_half_n(self):
        p = SystemParams(n_atoms=2, coupling_g=1.0, kappa=1.0, gamma=1.0, delta=1.0)
        assert p.spin_S == 1.0
        podd = SystemParams(n_atoms=7, coupling_g=1.0, kappa=1.0, gamma=1.0, delta=1.0)
        assert podd.spin_S == 3.5

    def test_twist_rate_exact(self, fig3a_params):
        p = fig3a_params
        # Omega = g^2/Delta; with g from eta this is eta Gamma kappa / (4 Delta)
        assert angular_to_hz(p.omega_twist) == pytest.approx(1.5625e-4, rel=1e-12)
        # quoted working-point value: 0.16 mHz to two figures
        assert round(angular_to_hz(p.omega_twist) * 1e3, 2) == 0.16

    def test_deterministic(self, fig3a_params):
        a, b = fig3a_params, replace(fig3a_params)  # two records of the same inputs
        assert (a.spin_S, a.eta, a.omega_twist, a.leak_rate) == (b.spin_S, b.eta, b.omega_twist,
                                                                 b.leak_rate)

    def test_omega_sign_follows_delta(self):
        base = dict(n_atoms=10, coupling_g=2.0, kappa=1.0, gamma=1.0)
        plus = SystemParams(delta=8.0, **base)
        minus = SystemParams(delta=-8.0, **base)
        assert plus.omega_twist == 0.5
        assert minus.omega_twist == -0.5
        assert plus.eta == minus.eta

    def test_lossless_cooperativity_is_infinite(self):
        p = SystemParams(n_atoms=10, coupling_g=2.0, kappa=0.0, gamma=1.0, delta=8.0)
        assert math.isinf(p.eta)


class TestUnits:
    def test_round_trip(self):
        assert angular_to_hz(hz_to_angular(123.5)) == pytest.approx(123.5, rel=1e-15)
        assert hz_to_angular(1.0) == pytest.approx(TWO_PI)


class TestFeasibilityParams:
    def test_positive_required(self):
        good = dict(fsr_hz=5e9, fsr_jitter_hz=1e6, noise_bandwidth_hz=1e4,
                    squeeze_time_s=0.073)
        FeasibilityParams.from_frequencies(**good)
        for key in good:
            bad = {**good, key: 0.0}
            with pytest.raises(PhysicsError):
                FeasibilityParams.from_frequencies(**bad)
