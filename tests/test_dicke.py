import math

import numpy as np
import pytest
from scipy.linalg import expm

from vacuumsq import (DegenerateMeanSpinError, NoiseModel, NumericsError,
                      PhysicsError, derive_params)
from vacuumsq import analytic, dicke

from conftest import small_params


def dense_operators(S):
    """Dense Sx, Sy, Sz on the ladder, for small-N cross checks."""
    dim = int(round(2 * S + 1))
    m = np.arange(dim) - S
    sp = np.zeros((dim, dim))
    for i in range(dim - 1):
        sp[i + 1, i] = math.sqrt((S - m[i]) * (S + m[i] + 1))
    sx = (sp + sp.T) / 2
    sy = (sp - sp.T) / 2j
    sz = np.diag(m.astype(float))
    return sx, sy, sz


class TestCss:
    def test_single_atom(self):
        st = dicke.css(1)
        assert st.amplitudes == pytest.approx(np.array([1, 1]) / math.sqrt(2))

    def test_two_atoms(self):
        st = dicke.css(2)
        assert st.amplitudes == pytest.approx(np.array([0.5, 1 / math.sqrt(2), 0.5]))

    def test_rejects_nonpositive(self):
        with pytest.raises(PhysicsError):
            dicke.css(0)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001, 100_000])
    def test_css_moments(self, n):
        # mean spin fully along x, isotropic transverse noise S/2
        m = dicke.moments(dicke.css(n))
        S = n / 2
        assert m.mean_x == pytest.approx(S, rel=1e-12)
        assert m.mean_y == pytest.approx(0.0, abs=1e-9 * S)
        assert m.mean_z == pytest.approx(0.0, abs=1e-9 * S)
        assert m.var_z == pytest.approx(S / 2, rel=1e-10)
        assert m.min_transverse_var == pytest.approx(S / 2, rel=1e-10)
        assert m.optimal_angle == 0.0  # isotropic tie-break

    def test_norm_invariant(self):
        assert dicke.css(12_345).norm_sq() == pytest.approx(1.0, abs=1e-12)


class TestStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(NumericsError):
            dicke.DickeState(1.0, np.array([1.0, 1.0, 1.0], dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericsError):
            dicke.DickeState(0.5, np.array([np.inf, 0.0], dtype=complex))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(PhysicsError):
            dicke.DickeState(1.0, np.array([1.0, 0.0], dtype=complex))


class TestEvolveOat:
    def test_zero_time_is_identity(self):
        st = dicke.css(9)
        out = dicke.evolve_oat(st, 0.7, 0.0)
        assert out.amplitudes == pytest.approx(st.amplitudes)

    def test_integer_spin_revival(self):
        # integer S: the m^2 spectrum is integer, so Omega t = 2 pi revives
        st = dicke.evolve_oat(dicke.css(6), 1.0, 0.35)
        revived = dicke.evolve_oat(st, 1.0, 2 * math.pi)
        assert revived.amplitudes == pytest.approx(st.amplitudes, abs=1e-12)

    def test_half_integer_spin_does_not_revive_at_2pi(self):
        st = dicke.css(5)
        revived = dicke.evolve_oat(st, 1.0, 2 * math.pi)
        assert not np.allclose(revived.amplitudes, st.amplitudes, atol=1e-3)

    def test_moments_match_closed_form(self):
        d = derive_params(small_params(4))
        st = dicke.evolve_oat(dicke.css(4), d.omega_twist, 0.1)
        got = dicke.moments(st)
        want = analytic.oat_moments(d, 0.1)
        assert got.mean_x == pytest.approx(want.mean_x, abs=1e-12)
        assert got.var_z == pytest.approx(want.var_z, abs=1e-12)
        assert got.var_y == pytest.approx(want.var_y, abs=1e-12)
        assert got.cross_zy == pytest.approx(want.cross_zy, abs=1e-12)
        assert got.min_transverse_var == pytest.approx(want.min_transverse_var, abs=1e-12)
        assert got.optimal_angle == pytest.approx(want.optimal_angle, abs=1e-12)

    def test_conserves_z_moments(self):
        # twisting commutes with Sz: <Sz> = 0 and var_z = S/2 survive
        for n in (3, 10, 200):
            st = dicke.evolve_oat(dicke.css(n), 1.0, 0.23)
            m = dicke.moments(st)
            assert m.mean_z == pytest.approx(0.0, abs=1e-10)
            assert m.var_z == pytest.approx(n / 4, rel=1e-10)


class TestEquivalenceClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 200])
    @pytest.mark.parametrize("phase", [0.01, 0.05, 0.1, 0.3])
    def test_xi_numeric_equals_xi_unitary(self, n, phase):
        d = derive_params(small_params(n))
        st = dicke.evolve_oat(dicke.css(n), d.omega_twist, phase)
        xi_num = dicke.xi_numeric(st)
        xi_cf = analytic.xi_unitary(d, phase).xi
        assert abs(xi_num - xi_cf) <= 1e-10 * max(1.0, xi_cf)


class TestEvolveTat:
    def test_zero_time_is_identity(self):
        st = dicke.css(8)
        out = dicke.evolve_tat(st, 0.9, 0.0)
        assert out.amplitudes == pytest.approx(st.amplitudes)

    def test_matches_dense_expm(self):
        # independent route: dense matrix exponential of Omega (S Sx + Sz^2)
        n, omega, t = 20, 0.37, 0.214
        S = n / 2
        sx, _, sz = dense_operators(S)
        h = omega * (S * sx + sz @ sz)
        st = dicke.css(n)
        want = expm(-1j * h * t) @ st.amplitudes
        got = dicke.evolve_tat(st, omega, t).amplitudes
        assert got == pytest.approx(want, abs=1e-10)

    def test_complex_start_state_matches_dense_expm(self):
        # the CSS is real; an OAT-evolved start has an imaginary part of norm 0.61
        n, omega, phase = 20, 0.37, 0.3
        S = n / 2
        sx, _, sz = dense_operators(S)
        h = omega * (S * sx + sz @ sz)
        st = dicke.evolve_oat(dicke.css(n), 1.0, phase)
        assert np.linalg.norm(st.amplitudes.imag) > 0.5
        times = [0.05, 0.214, 0.6]
        prop = dicke.TatPropagator(S, omega)
        grid = prop.evolve_grid(st, times)
        for t, out in zip(times, grid):
            want = expm(-1j * h * t) @ st.amplitudes
            assert prop.evolve(st, t).amplitudes == pytest.approx(want, abs=1e-12)
            assert out.amplitudes == pytest.approx(want, abs=1e-12)

    def test_grid_across_column_blocks_matches_single_evolves(self):
        prop = dicke.TatPropagator(15.0, 0.4)
        st = dicke.evolve_oat(dicke.css(30), 1.0, 0.2)
        times = np.linspace(0.0, 2.0, 150)
        grid = prop.evolve_grid(st, times)
        assert len(grid) == times.size
        for t, out in zip(times, grid):
            assert out.amplitudes == pytest.approx(prop.evolve(st, t).amplitudes, abs=1e-13)

    def test_empty_grid(self):
        assert dicke.TatPropagator(4.0, 0.5).evolve_grid(dicke.css(8), []) == []

    def test_krylov_agrees_with_spectral(self):
        n, omega, t = 60, 0.21, 0.8
        st = dicke.css(n)
        spec = dicke.TatPropagator(st.spin_S, omega, method="spectral").evolve(st, t)
        kry = dicke.TatPropagator(st.spin_S, omega, method="krylov").evolve(st, t)
        assert kry.amplitudes == pytest.approx(spec.amplitudes, abs=1e-9)

    def test_short_time_splits_into_twist_plus_rotation(self):
        # error of the split exp(-i t Omega S Sx) exp(-i t Omega Sz^2) is O(t^2)
        n, omega = 16, 1.0
        S = n / 2
        sx, _, _ = dense_operators(S)
        st = dicke.css(n)

        def split_error(t):
            exact = dicke.evolve_tat(st, omega, t).amplitudes
            twisted = dicke.evolve_oat(st, omega, t).amplitudes
            split = expm(-1j * omega * S * sx * t) @ twisted
            return np.linalg.norm(exact - split)

        e1, e2 = split_error(0.002), split_error(0.004)
        assert e2 / e1 == pytest.approx(4.0, rel=0.1)

    def test_norm_preserved_through_grid(self):
        prop = dicke.TatPropagator(50.0, 0.5)
        states = prop.evolve_grid(dicke.css(100), np.linspace(0.0, 0.4, 9))
        for st in states:
            assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_variance_tracks_bosonic_decay(self):
        # minimal variance ~ (S/2) exp(-2 S Omega t) while depletion is small
        n = 100
        d = derive_params(small_params(n))
        prop = dicke.TatPropagator(n / 2, d.omega_twist)
        st = dicke.css(n)
        for phase in (0.1, 0.2, 0.3):
            t = phase / (n / 2 * d.omega_twist)
            var, _ = dicke.min_transverse_variance(dicke.moments(prop.evolve(st, t)))
            assert var == pytest.approx(analytic.tat_variance_bosonic(d, t), rel=0.02)


class TestMinTransverseVariance:
    def test_css_tie_break(self):
        var, angle = dicke.min_transverse_variance(dicke.moments(dicke.css(10)))
        assert var == pytest.approx(2.5, rel=1e-10)
        assert angle == 0.0

    def test_anisotropic_diagonal_case(self):
        # var_y inflated, cross zero: minimum is the z quadrature, which in
        # the cos(phi) Sy - sin(phi) Sz convention sits at phi = pi/2
        m = analytic.SpinMoments(spin_S=5.0, mean_x=5.0, mean_y=0.0, mean_z=0.0,
                                 var_z=2.5, var_y=3.1, cross_zy=0.0)
        var, angle = dicke.min_transverse_variance(m)
        assert var == pytest.approx(2.5, rel=1e-12)
        assert abs(angle) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_degenerate_mean_raises(self):
        m = analytic.SpinMoments(spin_S=5.0, mean_x=0.0, mean_y=0.0, mean_z=0.0,
                                 var_z=2.5, var_y=2.5, cross_zy=0.0)
        with pytest.raises(DegenerateMeanSpinError):
            dicke.min_transverse_variance(m)

    def test_tilted_mean_raises(self):
        m = analytic.SpinMoments(spin_S=5.0, mean_x=3.0, mean_y=2.0, mean_z=0.0,
                                 var_z=2.5, var_y=2.5, cross_zy=0.0)
        with pytest.raises(PhysicsError):
            dicke.min_transverse_variance(m)

    def test_matches_dense_eigenvalue(self, rng):
        # random twisted states against a brute-force covariance eigenproblem
        for _ in range(10):
            n = int(rng.integers(2, 40))
            phase = float(rng.uniform(0, 0.6))
            st = dicke.evolve_oat(dicke.css(n), 1.0, phase)
            mom = dicke.moments(st)
            cov = np.array([[mom.var_z, mom.cross_zy / 2],
                            [mom.cross_zy / 2, mom.var_y]])
            want = float(np.linalg.eigvalsh(cov)[0])
            var, _ = dicke.min_transverse_variance(mom)
            assert var == pytest.approx(want, rel=1e-10)


class TestXiNumeric:
    def test_css_is_one(self):
        assert dicke.xi_numeric(dicke.css(12)) == pytest.approx(1.0, rel=1e-12)

    def test_two_atoms_closed_form(self):
        d = derive_params(small_params(2))
        st = dicke.evolve_oat(dicke.css(2), d.omega_twist, 0.2)
        assert dicke.xi_numeric(st) == pytest.approx(
            analytic.xi_unitary(d, 0.2).xi, rel=1e-12)


class TestApplyNoise:
    def test_channels_off_is_identity(self, fig3a_derived):
        m = dicke.moments(dicke.css(10_000))
        out = dicke.apply_noise(m, fig3a_derived, 0.46, NoiseModel.none())
        assert out.var_z == m.var_z
        assert out.var_y == m.var_y
        assert out.min_transverse_var == m.min_transverse_var

    def test_css_plus_decay_at_half_life(self):
        # Gamma t = ln 2 maximizes the binomial variance: S/2 + S/4 on var_z
        n = 1000
        params = small_params(n)
        params = type(params)(n_atoms=n, coupling_g=params.coupling_g, kappa=0.0,
                              gamma=0.9, delta=params.delta)
        d = derive_params(params)
        t = math.log(2.0) / 0.9
        m = dicke.apply_noise(dicke.moments(dicke.css(n)), d, t,
                              NoiseModel(include_cavity_leak=False))
        S = n / 2
        assert m.var_z == pytest.approx(S / 2 + S / 4, rel=1e-12)
        assert m.var_y == pytest.approx(S / 2 + S / 4, rel=1e-12)

    def test_reproduces_total_xi_for_twisted_states(self, fig3a_derived, full_noise):
        # isotropic addition shifts the minimal eigenvalue by exactly the
        # summed variances, reproducing the noise-included closed form
        d = fig3a_derived
        t = 0.46
        st = dicke.evolve_oat(dicke.css(10_000), d.omega_twist, t)
        noisy = dicke.apply_noise(dicke.moments(st), d, t, full_noise)
        xi = noisy.min_transverse_var / (d.spin_S / 2)
        assert xi == pytest.approx(analytic.xi_total(d, t, full_noise), rel=1e-6)


class TestConservation:
    def test_total_spin_is_casimir(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 150))
            S = n / 2
            st = dicke.css(n)
            if rng.uniform() < 0.5:
                st = dicke.evolve_oat(st, float(rng.uniform(0.1, 2.0)),
                                      float(rng.uniform(0.0, 1.0)))
            else:
                st = dicke.evolve_tat(st, float(rng.uniform(0.1, 1.0)),
                                      float(rng.uniform(0.0, 0.5)))
            assert dicke.total_spin_sq(st) == pytest.approx(S * (S + 1), rel=1e-8)


class TestTraceAndDump:
    def test_trace_matches_analytic_tier(self, full_noise):
        n = 200
        d = derive_params(small_params(n, omega_twist=0.002))
        d = derive_params(type(d.params)(n_atoms=n, coupling_g=d.params.coupling_g,
                                         kappa=0.4, gamma=0.05, delta=d.params.delta))
        times = np.linspace(0.0, 30.0, 7)
        trace = dicke.squeezing_trace(d, times, full_noise, protocol="oat")
        ref = analytic.xi_total(d, times, full_noise)
        assert trace.xi_total == pytest.approx(ref, rel=1e-9)
        assert trace.model_tier == "dicke"

    def test_tat_beats_oat_at_matched_early_times(self):
        # the matched rotation accelerates squeezing: pointwise stronger
        # than pure twisting through the exponential window
        n = 1000
        d = derive_params(small_params(n, omega_twist=0.001))
        prop = dicke.TatPropagator(n / 2, d.omega_twist)
        st = dicke.css(n)
        for phase in (0.1, 0.5, 1.0, 1.5):
            t = phase / (n / 2 * d.omega_twist)
            xi_tat = dicke.xi_numeric(prop.evolve(st, t))
            xi_oat = analytic.xi_unitary(d, t).xi
            assert xi_tat < xi_oat
