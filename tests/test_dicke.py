import math
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from scipy.linalg import eigh_tridiagonal, expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from vacuumsq import (DegenerateMeanSpinError, NoiseModel, NormDriftError,
                      NumericsError, PhysicsError)
from vacuumsq import analytic, dicke

from conftest import (MOMENT_FIELDS, oat_moments, small_params, stacked, tat_ladder_moments,
                      tat_variance_bosonic, xi_numeric)


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


def total_spin_sq(state):
    """<S^2> = |Sx c|^2 + |Sy c|^2 + |Sz c|^2 with dense operators."""
    amps = state.amplitudes
    return sum(float(np.vdot(op @ amps, op @ amps).real)
               for op in dense_operators(state.spin_S))


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
        var, angle = dicke.min_transverse_variance(m)
        assert var == pytest.approx(S / 2, rel=1e-10)
        assert angle == 0.0  # isotropic tie-break

    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20, 1001, 2000, 100_000])
    def test_mirror_symmetric_bitwise(self, n):
        # c_m = c_-m exactly, so the reflection-antisymmetric part is exactly 0
        amps = dicke.css(n).amplitudes
        assert amps.tobytes() == amps[::-1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 1000, 100_000, 100_001])
    def test_one_gammaln_call_keeps_the_two_call_bits(self, n):
        # S - m + 1 is S + m + 1 reversed, so css takes one gammaln call;
        # the two-call formula is the reference
        S = n / 2.0
        m = np.arange(n + 1, dtype=float) - S
        log_amp = 0.5 * (gammaln(2 * S + 1) - (gammaln(S + m + 1) + gammaln(S - m + 1))
                         - 2 * S * math.log(2.0))
        amps = np.exp(log_amp).astype(complex)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        assert dicke.css(n).amplitudes.tobytes() == amps.tobytes()

    def test_norm_invariant(self):
        amps = dicke.css(12_345).amplitudes
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


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
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, t):
        with pytest.raises(NumericsError, match="non-finite time"):
            dicke.evolve_oat(dicke.css(10), 1.0, t)

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
        p = small_params(4)
        st = dicke.evolve_oat(dicke.css(4), p.omega_twist, 0.1)
        got = dicke.moments(st)
        want = oat_moments(p, 0.1)
        assert got.mean_x == pytest.approx(want.mean_x, abs=1e-12)
        assert got.var_z == pytest.approx(want.var_z, abs=1e-12)
        assert got.var_y == pytest.approx(want.var_y, abs=1e-12)
        assert got.cross_zy == pytest.approx(want.cross_zy, abs=1e-12)
        var, angle = dicke.min_transverse_variance(got)
        xi, want_angle = analytic.xi_unitary(p, 0.1)
        assert var == pytest.approx((p.spin_S / 2) * xi, abs=1e-12)
        assert angle == pytest.approx(want_angle, abs=1e-12)

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
        p = small_params(n)
        st = dicke.evolve_oat(dicke.css(n), p.omega_twist, phase)
        xi_num = xi_numeric(st)
        xi_cf = analytic.xi_unitary(p, phase).xi
        assert abs(xi_num - xi_cf) <= 1e-10 * max(1.0, xi_cf)


def assert_moments_close(got, want, tol):
    """Every moment of ``got`` within ``tol`` (absolute) of ``want``, at every grid point."""
    for key in MOMENT_FIELDS:
        assert np.shape(getattr(got, key)) == np.shape(getattr(want, key)), key
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=0.0, abs=tol), key


def full_ladder_trace(p, times):
    """Moments of evolve_oat on the whole ladder, one state per time, as one grid record."""
    state0 = dicke.css(p.n_atoms)
    return stacked([dicke.moments(dicke.evolve_oat(state0, p.omega_twist, t)) for t in times])


class TestOatBand:
    # Dicke OAT over a time grid works on the coherent state's nonzero band;
    # the full-ladder evolve_oat + moments route is the reference

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_trace_matches_full_ladder_across_squeezing_window(self, n):
        # twisting phases from early squeezing past the optimum ~N^(-2/3)
        # to where the mean spin has shrunk to ~exp(-1/2) of S
        p = small_params(n)
        times = np.geomspace(1e-2, 1.0, 5) / math.sqrt(n)
        trace = dicke.squeezing_trace(p, times, NoiseModel.none(), protocol="oat")
        full = full_ladder_trace(p, times)
        var_full, angle_full = dicke.min_transverse_variance(full)
        xi_full = var_full / (p.spin_S / 2)
        assert trace.xi_unitary == pytest.approx(xi_full, rel=1e-9, abs=0.0)
        assert trace.mean_x == pytest.approx(full.mean_x, rel=1e-12, abs=0.0)
        assert trace.angle == pytest.approx(angle_full, rel=0.0, abs=1e-12)
        assert np.min(trace.xi_unitary) < 0.01

    @pytest.mark.parametrize("n", [12, 1000, 2001])
    def test_band_is_the_whole_ladder_without_underflow(self, n):
        state0 = dicke.css(n)
        assert np.all(state0.amplitudes != 0)
        assert dicke._nonzero_band(state0.amplitudes) == slice(0, n + 1)
        p = small_params(n)
        times = [0.0, 0.3 / n, 1.0 / math.sqrt(n)]
        got = dicke._oat_band_kernel(state0, p.omega_twist)(times)
        want = full_ladder_trace(p, times)
        # same levels; pair weights instead of the twisted state
        assert_moments_close(got, want, 1e-12 * p.spin_S ** 2)
        xi_got = dicke.min_transverse_variance(got)[0] / (p.spin_S / 2)
        xi_want = dicke.min_transverse_variance(want)[0] / (p.spin_S / 2)
        assert xi_got == pytest.approx(xi_want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 301, 1000])
    def test_complex_start_matches_full_ladder(self, rng, n):
        # the CSS is real and R-symmetric: only a complex start exercises
        # the conjugates of the pair weights.  n <= 3: fewer pairs than one row
        # of ceil(sqrt(n + 1)) (none for w2 at n = 1); n = 1000: 1000 w1 pairs
        # fill 31 rows of 32 and 8 of the last
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state0 = dicke.DickeState(n / 2.0, amps / np.linalg.norm(amps))
        times = np.sort(rng.uniform(0.0, 2.0, size=12))
        got = dicke._oat_band_kernel(state0, 1.0)(times)
        want = stacked([dicke.moments(dicke.evolve_oat(state0, 1.0, t)) for t in times])
        # the reference rounds phases Omega t m^2 of up to 2 (n/2)^2 rad
        assert_moments_close(got, want, 1e-12 * (n / 2.0) ** 2)

    def test_grid_across_blocks_matches_one_point_calls(self):
        # 150 times cross the 64-column blocks of the kernel twice
        n = 1000
        p = small_params(n)
        times = np.linspace(0.0, 1.0 / math.sqrt(n), 150)
        kernel = dicke._oat_band_kernel(dicke.css(n), p.omega_twist)
        grid = kernel(times)
        assert grid.mean_x.shape == times.shape
        assert_moments_close(grid, stacked([kernel([t]) for t in times]), 1e-15 * p.spin_S ** 2)
        assert_moments_close(grid, full_ladder_trace(p, times), 1e-12 * p.spin_S ** 2)

    def test_matches_a_40_digit_reference(self):
        # the twisted state and its moments at 40 digits, from the same start;
        # the float reference evolve_oat rounds its phases Omega t m^2 instead
        n = 301
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state0 = dicke.DickeState(n / 2.0, amps / np.linalg.norm(amps))
        times = np.sort(rng.uniform(0.0, 2.0, size=4))
        with mpmath.workdps(40):
            S = mpmath.mpf(n) / 2
            m = [mpmath.mpf(k) - S for k in range(n + 1)]
            up = [mpmath.sqrt((S - m[k]) * (S + m[k] + 1)) for k in range(n)]
            c0 = [mpmath.mpc(complex(a)) for a in state0.amplitudes]
            norm = mpmath.fsum(abs(a) ** 2 for a in c0)
            grid = dicke._oat_band_kernel(state0, 1.0)(times)
            for i, t in enumerate(times):
                c = [a * mpmath.expj(-mpmath.mpf(t) * mk ** 2) / mpmath.sqrt(norm)
                     for a, mk in zip(c0, m)]
                sp_c = [mpmath.mpc(0)] + [up[k] * c[k] for k in range(n)]
                sm_c = [up[k] * c[k + 1] for k in range(n)] + [mpmath.mpc(0)]
                sz_c = [mk * a for mk, a in zip(m, c)]
                sy_c = [(p - q) / 2j for p, q in zip(sp_c, sm_c)]
                sx_c = [(p + q) / 2 for p, q in zip(sp_c, sm_c)]

                def inner(a, b):
                    return mpmath.re(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b)))

                mx, my, mz = inner(c, sx_c), inner(c, sy_c), inner(c, sz_c)
                want = {"mean_x": mx, "mean_y": my, "mean_z": mz,
                        "var_z": inner(sz_c, sz_c) - mz ** 2,
                        "var_y": inner(sy_c, sy_c) - my ** 2,
                        "cross_zy": 2 * inner(sz_c, sy_c) - 2 * mz * my}
                for key, value in want.items():
                    assert abs(getattr(grid, key)[i] - float(value)) <= 1e-14 * (n / 2.0) ** 2, key

    def test_band_is_the_nonzero_levels(self):
        # at N=1e4 the binomial tails underflow, so the band ends inside the ladder
        n = 10_000
        amps = dicke.css(n).amplitudes
        band = dicke._nonzero_band(amps)
        assert 0 < band.start and band.stop < n + 1
        assert amps[band.start] != 0 and amps[band.stop - 1] != 0
        assert not np.any(amps[:band.start]) and not np.any(amps[band.stop:])

    @pytest.mark.parametrize("drift, raises", [(2e-9, True), (2e-11, False)])
    def test_norm_drift_gate_applies_on_the_band(self, drift, raises):
        state0 = dicke.css(1000)
        # bypass DickeState's own 1e-12 check to feed in a drifted norm
        object.__setattr__(state0, "amplitudes", state0.amplitudes * math.sqrt(1.0 + drift))
        kernel = dicke._oat_band_kernel(state0, 1.0)
        if raises:
            with pytest.raises(NormDriftError):
                kernel([0.0, 0.01])
        else:
            assert kernel([0.0, 0.01]).mean_x[0] == pytest.approx(500.0, rel=1e-12)

    def test_band_is_found_once_per_kernel(self, monkeypatch):
        calls = []
        nonzero_band = dicke._nonzero_band

        def counted(amps):
            calls.append(amps.size)
            return nonzero_band(amps)

        monkeypatch.setattr(dicke, "_nonzero_band", counted)
        p = small_params(10_000)
        kernel = dicke.coherent_moments(p, "oat")
        for times in ([0.0], [1e-3, 2e-3], [5e-3]):
            assert kernel(times).mean_x.shape == (len(times),)
        assert calls == [10_001]

    def test_negative_time_is_rejected(self):
        with pytest.raises(PhysicsError):
            dicke._oat_band_kernel(dicke.css(10), 1.0)([0.1, -0.1])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, t):
        with pytest.raises(NumericsError):
            dicke._oat_band_kernel(dicke.css(10), 1.0)([t])


class TestEvolveTat:
    def test_zero_time_is_identity(self):
        st = dicke.css(8)
        out = dicke.TatPropagator(st.spin_S, 0.9).evolve(st, 0.0)
        assert out.amplitudes == pytest.approx(st.amplitudes)

    def test_matches_dense_expm(self):
        # independent route: dense matrix exponential of Omega (S Sx + Sz^2)
        n, omega, t = 20, 0.37, 0.214
        S = n / 2
        sx, _, sz = dense_operators(S)
        h = omega * (S * sx + sz @ sz)
        st = dicke.css(n)
        want = expm(-1j * h * t) @ st.amplitudes
        got = dicke.TatPropagator(S, omega).evolve(st, t).amplitudes
        assert got == pytest.approx(want, abs=1e-10)

    def test_css_grid_matches_dense_expm_at_half_integer_spin(self):
        # the CSS occupies only the symmetric sector, at half-integer S too
        n, omega = 19, 0.37
        S = n / 2
        sx, _, sz = dense_operators(S)
        h = omega * (S * sx + sz @ sz)
        st = dicke.css(n)
        times = [0.0, 0.05, 0.214, 1.7]
        for t, out in zip(times, dicke.TatPropagator(S, omega).evolve_grid(st, times)):
            assert out.amplitudes == pytest.approx(expm(-1j * h * t) @ st.amplitudes, abs=1e-12)

    @pytest.mark.parametrize("start, solves", [("css", 1), ("random", 2), ("antisymmetric", 1)])
    def test_only_occupied_sectors_are_diagonalized(self, monkeypatch, start, solves):
        # symmetric sector: n/2 + 1 levels; antisymmetric: n/2
        sizes = {"css": [11], "random": [11, 10], "antisymmetric": [10]}[start]
        assert len(sizes) == solves
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[0].size, kwargs.get("eigvals_only", False)))
            return eigh_tridiagonal(*args, **kwargs)

        # dicke imports eigh_tridiagonal when it calls it, so the hook is read then
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
        n = 20
        st = dicke.css(n)
        if start != "css":
            rng = np.random.default_rng(n)
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            if start == "antisymmetric":
                amps = amps - amps[::-1]
            st = dicke.DickeState(n / 2, amps / np.linalg.norm(amps))
        prop = dicke.TatPropagator(n / 2, 0.37)
        assert calls == []  # nothing is diagonalized before the first propagation
        prop.evolve_grid(st, [0.1, 0.5])
        assert calls == [(size, False) for size in sizes]  # one full solve per occupied sector
        # a later grid and a new state in the same sectors reuse the solves
        prop.evolve_grid(st, np.linspace(0.0, 2.0, 100))
        prop.evolve_grid(dicke.DickeState(st.spin_S, st.amplitudes * 1j), [0.1])
        assert len(calls) == solves

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
        # in any order: the rotation of each time needs no earlier one
        times = np.random.default_rng(3).permutation(np.linspace(0.0, 2.0, 150))
        grid = prop.evolve_grid(st, times)
        assert len(grid) == times.size
        for t, out in zip(times, grid):
            assert out.amplitudes == pytest.approx(prop.evolve(st, t).amplitudes, abs=1e-13)

    def test_empty_grid(self):
        assert dicke.TatPropagator(4.0, 0.5).evolve_grid(dicke.css(8), []) == []

    def test_coherent_state_is_projected_once_per_kernel(self, monkeypatch):
        # the coherent kernel splits no ladder state: it solves its mean-spin
        # block once, and a grid that ends sooner reuses that solve
        calls, solves = [], recorded_solves(monkeypatch)
        split = dicke._sector_split

        def counted(amps):
            calls.append(amps.size)
            return split(amps)

        monkeypatch.setattr(dicke, "_sector_split", counted)
        p = small_params(40)
        kernel = dicke.coherent_moments(p, "tat")
        grids = ([5e-3], [1e-3, 2e-3], [0.0])
        got = [kernel(times) for times in grids]
        assert calls == [] and len(solves) == 1
        for times, moms in zip(grids, got):  # what the propagated states give, to rounding
            fresh = dicke.TatPropagator(20.0, p.omega_twist).evolve_grid(dicke.css(40), times)
            assert_moments_close(moms, stacked([dicke.moments(out) for out in fresh]),
                                 1e-13 * 20.0 ** 2)
        assert calls == [41] * len(grids) and len(solves) == 1  # each propagator splits its state

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, t):
        prop, st = dicke.TatPropagator(10.0, 0.37), dicke.css(20)
        prop.evolve_grid(st, [0.1])
        with pytest.raises(NumericsError, match="non-finite time"):
            prop.evolve_grid(st, [0.0, 0.1, t])

    def test_scalar_time_grid_is_physics_error(self):
        with pytest.raises(PhysicsError, match="time grid must be one-dimensional"):
            dicke.TatPropagator(10.0, 0.37).evolve_grid(dicke.css(20), 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20])
    def test_random_start_matches_dense_expm_in_both_sectors(self, n):
        # odd n is half-integer S, where the +-1/2 link sits on the sector diagonals
        S, omega = n / 2, 0.37
        sx, _, sz = dense_operators(S)
        h = omega * (S * sx + sz @ sz)
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        st = dicke.DickeState(S, amps / np.linalg.norm(amps))
        sym, anti = st.amplitudes + st.amplitudes[::-1], st.amplitudes - st.amplitudes[::-1]
        assert min(np.linalg.norm(sym), np.linalg.norm(anti)) > 0.3
        times = [0.0, 0.05, 0.214, 1.7]
        for t, out in zip(times, dicke.TatPropagator(S, omega).evolve_grid(st, times)):
            want = expm(-1j * h * t) @ st.amplitudes
            assert out.amplitudes == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [19, 20])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_reflection_parity_is_kept_across_column_blocks(self, n, sign):
        # R|m> = |-m> commutes with H, so an R eigenstate stays one at every t
        S = n / 2
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        amps = amps + sign * amps[::-1]
        st = dicke.DickeState(S, amps / np.linalg.norm(amps))
        times = np.linspace(0.0, 3.0, 150)
        for out in dicke.TatPropagator(S, 0.37).evolve_grid(st, times):
            assert out.amplitudes[::-1] == pytest.approx(sign * out.amplitudes, abs=1e-13)

    def test_ladder_above_the_limit_is_refused(self, monkeypatch):
        # a ladder of more levels than the limit raises before any solve
        monkeypatch.setattr(dicke, "SPECTRAL_MAX_DIM", 20)
        assert dicke.TatPropagator(9.5, 0.37).evolve(dicke.css(19), 0.1).dim == 20
        with pytest.raises(NumericsError, match="ladder of 21 levels exceeds"):
            dicke.TatPropagator(10.0, 0.37)

    def test_short_time_splits_into_twist_plus_rotation(self):
        # error of the split exp(-i t Omega S Sx) exp(-i t Omega Sz^2) is O(t^2)
        n, omega = 16, 1.0
        S = n / 2
        sx, _, _ = dense_operators(S)
        st = dicke.css(n)

        def split_error(t):
            exact = dicke.TatPropagator(S, omega).evolve(st, t).amplitudes
            twisted = dicke.evolve_oat(st, omega, t).amplitudes
            split = expm(-1j * omega * S * sx * t) @ twisted
            return np.linalg.norm(exact - split)

        e1, e2 = split_error(0.002), split_error(0.004)
        assert e2 / e1 == pytest.approx(4.0, rel=0.1)

    def test_norm_preserved_through_grid(self):
        prop = dicke.TatPropagator(50.0, 0.5)
        states = prop.evolve_grid(dicke.css(100), np.linspace(0.0, 0.4, 9))
        for st in states:
            assert np.sum(np.abs(st.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_variance_tracks_bosonic_decay(self):
        # minimal variance ~ (S/2) exp(-2 S Omega t) while depletion is small
        n = 100
        p = small_params(n)
        prop = dicke.TatPropagator(n / 2, p.omega_twist)
        st = dicke.css(n)
        for phase in (0.1, 0.2, 0.3):
            t = phase / (n / 2 * p.omega_twist)
            var, _ = dicke.min_transverse_variance(dicke.moments(prop.evolve(st, t)))
            assert var == pytest.approx(tat_variance_bosonic(p, t), rel=0.02)


def full_sector_states(prop, state, times):
    """exp(-iHt) state from full eigh_tridiagonal solves of both sectors, the reference formula.

    The sector bases are dense ladder matrices, so the reference shares no
    split, join or column blocking with the propagator.  Rows are times,
    columns the ladder m = -S..S.
    """
    dim = state.dim
    pos = dim - dim // 2  # index of the lowest level m > 0
    eye, upper = np.eye(dim), np.arange(pos, dim)
    plus, minus = eye[:, upper], eye[:, dim - 1 - upper]  # |m> and |-m> for m > 0
    zero = eye[:, pos - 1:pos] if dim % 2 else np.empty((dim, 0))
    bases = np.hstack((zero, (plus + minus) / math.sqrt(2.0))), (plus - minus) / math.sqrt(2.0)
    rotated = np.zeros((dim, len(times)), dtype=complex)
    for (diag, off), basis in zip(prop._blocks, bases, strict=True):
        vals, vecs = eigh_tridiagonal(diag, off)
        coeffs = vecs.T @ (basis.T @ state.amplitudes)
        rotated += basis @ (vecs @ (np.exp(-1j * np.outer(vals, times)) * coeffs[:, None]))
    return rotated.T


def energy_spread(diag, off, z):
    """Mean energy E0 = <z|T|z> and spread sigma = |(T - E0) z| of z on the tridiagonal T.

    Both are taken per unit norm of z.
    """
    tz = diag * z
    tz[1:] += off * z[:-1]
    tz[:-1] += off * z[1:]
    norm = float(np.vdot(z, z).real)
    e0 = float(np.vdot(z, tz).real) / norm
    return e0, float(np.linalg.norm(tz - e0 * z)) / math.sqrt(norm)


def sector_window(block, z):
    """The energy window of z on a reflection sector's block, E0 and sigma from energy_spread."""
    vals = eigh_tridiagonal(*block, eigvals_only=True)
    return dicke._energy_window(*block, vals, z, energy_spread(*block, z))


def sz_css(n):
    """Sz |CSS> normalized: R-antisymmetric, with as narrow an energy window as the CSS."""
    st = dicke.css(n)
    amps = st.m_values * st.amplitudes
    return dicke.DickeState(st.spin_S, amps / np.linalg.norm(amps))


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return dicke.DickeState(n / 2, amps / np.linalg.norm(amps))


class TestTatWindow:
    # the energy window of the coherent kernel, on the reflection sectors
    # whose full solves TatPropagator uses

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 101, 1000, 2000])
    @pytest.mark.parametrize("start", [dicke.css, sz_css], ids=["symmetric", "antisymmetric"])
    def test_matches_full_sector_solves(self, n, start):
        S, omega = n / 2, 0.37
        st = start(n)
        prop = dicke.TatPropagator(S, omega)
        times = np.array([0.0, 0.5, 2.0, 5.0, 10.0]) / (S * omega)  # Omega S t up to 10
        got = np.array([out.amplitudes for out in prop.evolve_grid(st, times)])
        assert np.max(np.abs(got - full_sector_states(prop, st, times))) <= 1e-12
        solved = [k for k, pair in enumerate(prop._pairs) if pair is not None]
        assert solved == [0 if start is dicke.css else 1]

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_coherent_window_is_a_narrow_run(self, n):
        block = dicke.TatPropagator(n / 2, 0.37)._blocks[0]
        kept, _, _ = sector_window(block, dicke._sector_split(dicke.css(n).amplitudes)[0])
        assert 60 <= kept.size <= 100  # of n/2 + 1 levels

    @pytest.mark.parametrize("n", [20, 101])
    def test_random_state_widens_to_whole_sectors(self, n):
        blocks = dicke.TatPropagator(n / 2, 0.37)._blocks
        sectors = dicke._sector_split(random_state(n, n).amplitudes)
        assert [z.size for z in sectors] == [n // 2 + 1, (n + 1) // 2]
        for block, z in zip(blocks, sectors, strict=True):
            vals, vecs, coeffs = sector_window(block, z)
            assert vals.size == z.size
            assert np.max(np.abs(dicke._real_product(vecs, coeffs) - z)) <= 1e-12

    def test_far_weight_widens_the_window(self):
        # the CSS plus 1e-3 of the sector's lowest eigenvector: that level lies
        # beyond three doublings of the first window, and no edge of the CSS's
        # run holds weight, yet the level's weight of 1e-6 is kept
        n, omega = 1000, 0.37
        block = dicke.TatPropagator(n / 2, omega)._blocks[0]
        vals, vecs = eigh_tridiagonal(*block)
        z = dicke._sector_split(dicke.css(n).amplitudes)[0] + 1e-3 * vecs[:, 0]
        e0, sigma = energy_spread(*block, z)
        assert e0 - vals[0] > 8 * dicke.WINDOW_SIGMAS * sigma
        kept, kept_vecs, coeffs = sector_window(block, z)
        assert kept[0] == pytest.approx(vals[0], rel=1e-12)
        assert np.max(np.abs(dicke._real_product(kept_vecs, coeffs) - z)) <= 1e-12

    def test_narrow_first_window_doubles_until_edges_are_empty(self, monkeypatch):
        n, omega = 1000, 0.37
        block = dicke.TatPropagator(n / 2, omega)._blocks[0]
        z = dicke._sector_split(dicke.css(n).amplitudes)[0]
        want = sector_window(block, z)
        monkeypatch.setattr(dicke, "WINDOW_SIGMAS", 0.5)
        got = sector_window(block, z)
        assert got[0].size >= want[0].size
        for vals, _, coeffs in (got, want):
            weights = np.abs(coeffs) ** 2
            assert max(weights[0], weights[-1]) <= dicke.WINDOW_EDGE_WEIGHT
            assert np.sum(weights) == pytest.approx(1.0, rel=0.0, abs=dicke.NORM_TOL)

    @pytest.mark.parametrize("n", [1, 2, 100, 101, 2000])
    @pytest.mark.parametrize("omega", [0.37, -1.3])
    def test_coherent_energy_and_spread(self, monkeypatch, n, omega):
        # H|CSS> = Omega (S^2 + Sz^2)|CSS>, and Sz is binomial with variance S/2;
        # the coherent kernel's window takes that spread for its |m' = S>
        S = n / 2
        sym = dicke._sector_split(dicke.css(n).amplitudes)[0]
        e0, sigma = energy_spread(*dicke.TatPropagator(S, omega)._blocks[0], sym)
        assert e0 == pytest.approx(omega * (S * S + S / 2), rel=1e-12)
        assert sigma == pytest.approx(abs(omega) * math.sqrt(S * S / 2 - S / 4), rel=1e-9)
        if n >= 100:  # -> |Omega| S / sqrt(2) for large S
            assert sigma == pytest.approx(abs(omega) * S / math.sqrt(2.0), rel=0.5 / S)
        spreads, window = [], dicke._energy_window

        def recorded(diag, off, vals, z, spread):
            spreads.append(spread)
            return window(diag, off, vals, z, spread)

        monkeypatch.setattr(dicke, "_energy_window", recorded)
        dicke.coherent_moments(small_params(n, omega), "tat")([0.0])
        assert spreads[0][1] == pytest.approx(sigma, rel=1e-9)

    def test_xi_matches_expm_multiply_above_the_old_limit(self):
        # dim 5001 is above TatPropagator's limit, so Krylov stepping is the
        # reference; Omega S t = 2 is near the squeezing optimum, and by 4.5
        # the mean spin has collapsed to 0.6 S
        n, omega = 5000, 0.37
        S = n / 2
        p = small_params(n, omega)
        taus = np.array([2.0, 4.5])
        moms = dicke.coherent_moments(p, "tat")(taus / (S * omega))
        assert moms.mean_x[1] < 0.7 * S
        xi = dicke.min_transverse_variance(moms)[0] / (S / 2)
        m = np.arange(n + 1) - S
        off = omega * S * 0.5 * np.sqrt((S - m[:-1]) * (S + m[:-1] + 1.0))
        h = sparse.diags([off, omega * m ** 2, off], [-1, 0, 1], format="csr")
        amps, prev = dicke.css(n).amplitudes, 0.0
        for tau, got in zip(taus, xi, strict=True):
            amps, prev = expm_multiply(-1j * (tau - prev) / (S * omega) * h, amps), tau
            want = xi_numeric(dicke.DickeState(S, amps / np.linalg.norm(amps)))
            assert got == pytest.approx(want, rel=1e-9)

    def test_kernel_raises_when_the_windows_exceed_the_limit(self, monkeypatch):
        # Omega S t = 4.5 takes the whole 11-level block, whose window keeps more than 5
        monkeypatch.setattr(dicke, "SPECTRAL_MAX_DIM", 5)
        kernel = dicke.coherent_moments(small_params(20, 0.37), "tat")
        with pytest.raises(NumericsError, match="more than 5 eigenvectors"):
            kernel([4.5 / (10 * 0.37)])

    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_kernel_time_grid_gates(self, protocol):
        kernel = dicke.coherent_moments(small_params(20), protocol)
        with pytest.raises(PhysicsError, match="time grid must be one-dimensional"):
            kernel(0.5)
        with pytest.raises(PhysicsError, match="time must be >= 0"):
            kernel([0.1, -0.1])
        with pytest.raises(NumericsError, match="non-finite time"):
            kernel([0.1, math.nan])


def recorded_solves(monkeypatch):
    """The block sizes of the coherent kernel's solves, recorded as they happen."""
    sizes, window = [], dicke._energy_window

    def recorded(diag, *args):
        sizes.append(diag.size)
        return window(diag, *args)

    monkeypatch.setattr(dicke, "_energy_window", recorded)
    return sizes


class TestTatBlock:
    # the coherent kernel keeps the top levels of its block in the mean-spin basis

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 20, 101, 2000])
    @pytest.mark.parametrize("omega", [0.37, -1.3])
    def test_matches_the_full_ladder_reference(self, n, omega):
        # n = 1 is a one-level block; Omega S t runs past the squeezing optimum to 4
        S = n / 2
        times = np.concatenate(([0.0], np.linspace(0.01, 4.0, 70))) / (S * abs(omega))
        got = dicke.coherent_moments(small_params(n, omega), "tat")(times)
        want = tat_ladder_moments(dicke.css(n), omega)(times)
        assert_moments_close(got, want, 1e-12 * S * S)
        (var_g, angle_g), (var_w, angle_w) = map(dicke.min_transverse_variance, (got, want))
        assert var_g == pytest.approx(var_w, rel=1e-10)
        assert angle_g == pytest.approx(angle_w, rel=0.0, abs=1e-10)

    def test_early_angle_matches_a_40_digit_reference(self):
        # near t = 0 the state is almost isotropic and its angle ill-conditioned;
        # the reference evolves the block's top 20 levels at 40 digits, where the
        # squeezed vacuum's tail bound tanh(r)^40 is below 1e-50
        n, omega = 2000, 0.37
        p = small_params(n, omega)
        taus = [1e-3, 5e-3, 0.05]
        got_variance, got_angle = dicke.min_transverse_variance(
            dicke.coherent_moments(p, "tat")(np.array(taus) / (p.spin_S * p.omega_twist)))
        with mpmath.workdps(40):
            S, levels = mpmath.mpf(n) / 2, 20
            k = [2 * mpmath.mpf(j) for j in range(levels)]  # S - m'
            lift = [mpmath.sqrt((a + 1) * (a + 2) * (2 * S - a) * (2 * S - a - 1)) for a in k[:-1]]
            h = mpmath.matrix(levels)
            for j in range(levels):
                h[j, j] = -k[j] ** 2 / 2
            for j in range(levels - 1):
                h[j, j + 1] = h[j + 1, j] = lift[j] / 4
            vals, vecs = mpmath.eigsy(h)
            for i, tau in enumerate(taus):
                theta = mpmath.mpf(tau) / S  # Omega t, with Omega factored out of h
                psi = [mpmath.fsum(vecs[i, j] * vecs[0, j] * mpmath.expj(-vals[j] * theta)
                                   for j in range(levels)) for i in range(levels)]
                shared = mpmath.fsum(abs(a) ** 2 * (S / 2 + b * (S - b / 2))
                                     for a, b in zip(psi, k))
                raised = mpmath.fsum(mpmath.conj(psi[j]) * lift[j] * psi[j + 1]
                                     for j in range(levels - 1))
                var_z, var_y = shared + raised.real / 2, shared - raised.real / 2
                angle = (mpmath.pi - mpmath.atan2(-raised.imag, var_y - var_z)) / 2
                variance = (var_z + var_y) / 2 - mpmath.hypot((var_z - var_y) / 2, raised.imag / 2)
                assert abs(got_angle[i] - float(angle)) <= 1e-11
                assert got_variance[i] == pytest.approx(float(variance), rel=1e-13)

    def test_variance_approaches_the_bosonic_limit_as_one_over_s(self):
        # paper scale: N = 1e6 keeps about 300 of its 500 001 block levels
        taus = np.array([0.25, 0.5, 1.0, 1.5])
        deviations = []
        for n in (10_000, 100_000, 1_000_000):
            p = small_params(n, 0.37)
            times = taus / (p.spin_S * 0.37)
            var = dicke.min_transverse_variance(dicke.coherent_moments(p, "tat")(times))[0]
            deviations.append(var / tat_variance_bosonic(p, times) - 1.0)
        assert np.all(deviations[-1] > 0) and np.all(deviations[-1] < 1e-5)
        for coarse, fine in zip(deviations, deviations[1:]):  # S grows tenfold
            assert coarse / fine == pytest.approx(10.0, rel=0.2)

    def test_grid_past_the_separatrix_takes_the_whole_block(self, monkeypatch):
        sizes = recorded_solves(monkeypatch)
        n, omega = 2000, 0.37
        kernel = dicke.coherent_moments(small_params(n, omega), "tat")
        kernel(np.array([1.0, 4.5]) / (n / 2 * omega))
        assert sizes == [n // 2 + 1]

    def test_first_block_follows_the_grid_end(self, monkeypatch):
        # the squeezed vacuum's tail at r = Omega S t sets the first size, far below
        # the 50 001 levels at N = 1e5, and the gate passes on it: no doubling, which
        # phase rounding would force without the shift by the top energy
        sizes = recorded_solves(monkeypatch)
        n, omega = 100_000, 0.37
        kernel = dicke.coherent_moments(small_params(n, omega), "tat")
        for tau in (0.25, 1.0, 1.5):
            kernel(np.linspace(0.0, tau, 9) / (n / 2 * omega))
        assert len(sizes) == 3 and sizes[0] < sizes[1] < sizes[2] < 400

    def test_a_failing_gate_doubles_the_block_up_to_the_whole(self, monkeypatch):
        # no population passes a zero gate, so the block doubles to its 201 levels
        sizes = recorded_solves(monkeypatch)
        n, omega = 400, 0.37
        p = small_params(n, omega)
        kernel = dicke.coherent_moments(p, "tat")
        monkeypatch.setattr(dicke, "WINDOW_EDGE_WEIGHT", 0.0)
        times = np.array([0.1, 0.25]) / (n / 2 * omega)
        got = kernel(times)
        first = sizes[0]
        assert sizes == [first, 2 * first, 4 * first, 8 * first, n // 2 + 1]
        assert_moments_close(got, tat_ladder_moments(dicke.css(n), omega)(times),
                             1e-12 * (n / 2) ** 2)

    @pytest.mark.parametrize("n", [101, 2000])
    def test_call_order_moves_results_only_within_the_gate(self, n):
        # short grid first solves a small block, then the long grid a larger one;
        # the long grid first solves the larger block, which the short grid reuses
        omega = 0.37
        p = small_params(n, omega)
        short, long = (np.linspace(0.0, tau, 11) / (n / 2 * omega) for tau in (0.5, 2.5))
        forward, backward = (dicke.coherent_moments(p, "tat") for _ in range(2))
        short_first = [forward(short), forward(long)]
        long_first = [backward(long), backward(short)]
        for grid, a, b in ((short, short_first[0], long_first[1]),
                           (long, short_first[1], long_first[0])):
            want = tat_ladder_moments(dicke.css(n), omega)(grid)
            assert_moments_close(a, b, 1e-12 * (n / 2) ** 2)
            assert_moments_close(a, want, 1e-12 * (n / 2) ** 2)

    def test_repeat_kernels_are_bitwise_identical(self):
        p = small_params(2000, 0.37)
        times = np.geomspace(1e-4, 1.0, 100) / (1000 * 0.37)
        first, second = (np.stack(astuple(dicke.coherent_moments(p, "tat")(times))[1:])
                         for _ in range(2))
        assert first.tobytes() == second.tobytes()


def scalar_min_variance(m, i):
    """The reduction of grid point i with math.hypot and math.atan2, the reference formula.

    The smallest eigenvalue of the (z, y) covariance and its angle in the
    cos(phi) Sy - sin(phi) Sz convention, folded to (-pi/2, pi/2], 0 where
    the transverse noise is isotropic to 1e-12.
    """
    var_z, var_y, cross = (float(getattr(m, key)[i]) for key in ("var_z", "var_y", "cross_zy"))
    half_sum = 0.5 * (var_z + var_y)
    radius = math.hypot(0.5 * (var_z - var_y), 0.5 * cross)
    if radius <= 1e-12 * max(1.0, half_sum):
        return half_sum - radius, 0.0
    angle = 0.5 * (math.pi - math.atan2(cross, var_y - var_z))
    return half_sum - radius, angle - math.pi if angle > math.pi / 2 else angle


class TestAmplitudeMoments:
    def test_a_batch_is_its_slices_bitwise(self, rng):
        # the oracle's (time, m, n) layout: one call gives each slice's moments
        amps = rng.normal(size=(5, 13, 4)) + 1j * rng.normal(size=(5, 13, 4))
        amps /= np.linalg.norm(amps, axis=(1, 2), keepdims=True)
        batch = dicke.amplitude_moments(amps, 6.0)
        want = stacked([dicke.amplitude_moments(slice_, 6.0) for slice_ in amps])
        for key in MOMENT_FIELDS:
            assert getattr(batch, key).tobytes() == getattr(want, key).tobytes(), key

    def test_one_state_gives_floats_and_an_empty_batch_empty_arrays(self):
        one = dicke.moments(dicke.css(4))
        assert all(np.ndim(getattr(one, key)) == 0 for key in MOMENT_FIELDS)
        empty = dicke.amplitude_moments(np.empty((0, 5, 3), dtype=complex), 2.0)
        assert all(getattr(empty, key).shape == (0,) for key in MOMENT_FIELDS)


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

    def test_degenerate_mean_is_infinite(self):
        # no transverse plane: an invalid point, not an error
        m = analytic.SpinMoments(spin_S=5.0, mean_x=0.0, mean_y=0.0, mean_z=0.0,
                                 var_z=2.5, var_y=2.5, cross_zy=0.0)
        assert dicke.min_transverse_variance(m)[0] == math.inf

    def test_degenerate_points_of_a_grid_are_infinite(self):
        # |<S>| <= 1e-9 S at the middle two points only; a degenerate point may
        # point anywhere, so its direction raises nothing
        m = analytic.SpinMoments(spin_S=5.0, mean_x=np.array([5.0, 0.0, 0.0, 3.0]),
                                 mean_y=np.array([0.0, 0.0, 4e-9, 0.0]), mean_z=np.zeros(4),
                                 var_z=np.full(4, 2.5), var_y=np.full(4, 3.1),
                                 cross_zy=np.zeros(4))
        variance, angle = dicke.min_transverse_variance(m)
        assert variance.shape == angle.shape == (4,)
        assert list(np.isinf(variance)) == [False, True, True, False]
        assert variance[[0, 3]] == pytest.approx([2.5, 2.5], rel=1e-12)

    def test_tilt_at_any_valid_point_of_a_grid_raises(self):
        m = analytic.SpinMoments(spin_S=5.0, mean_x=np.array([5.0, 3.0]),
                                 mean_y=np.array([0.0, 2.0]), mean_z=np.zeros(2),
                                 var_z=np.full(2, 2.5), var_y=np.full(2, 2.5),
                                 cross_zy=np.zeros(2))
        with pytest.raises(PhysicsError, match="tilted"):
            dicke.min_transverse_variance(m)

    def test_matches_the_scalar_reduction_at_every_point(self):
        # twisted and rotation-assisted grids, isotropic starts at t = 0 and
        # synthetic points: exactly and nearly isotropic, and each sign of the
        # cross term and of var_y - var_z
        p = small_params(1000, 0.37)
        times = np.concatenate(([0.0], np.geomspace(1e-4, 2.0, 60))) / (500 * 0.37)
        grids = [dicke.coherent_moments(p, protocol)(times) for protocol in ("oat", "tat")]
        var_z = np.array([2.5, 2.5, 2.5 + 1e-13, 2.5, 3.1, 2.0, 2.0, 1e-3])
        var_y = np.array([2.5, 2.5, 2.5, 3.1, 2.5, 3.0, 3.0, 4.0])
        cross = np.array([0.0, 1e-13, 0.0, 0.0, 0.0, 1.5, -1.5, -3.9])
        grids.append(analytic.SpinMoments(spin_S=5.0, mean_x=np.full(8, 5.0),
                                          mean_y=np.zeros(8), mean_z=np.zeros(8),
                                          var_z=var_z, var_y=var_y, cross_zy=cross))
        for m in grids:
            variance, angle = dicke.min_transverse_variance(m)
            for i in range(variance.size):
                want_variance, want_angle = scalar_min_variance(m, i)
                assert variance[i] == pytest.approx(want_variance, rel=1e-15, abs=0.0)
                assert angle[i] == pytest.approx(want_angle, rel=1e-15, abs=0.0)
        assert list(dicke.min_transverse_variance(grids[-1])[1][:3]) == [0.0] * 3  # tie-breaks

    def test_empty_grid(self):
        empty = np.empty(0)
        m = analytic.SpinMoments(spin_S=5.0, mean_x=empty, mean_y=empty, mean_z=empty,
                                 var_z=empty, var_y=empty, cross_zy=empty)
        variance, angle = dicke.min_transverse_variance(m)
        assert variance.shape == angle.shape == (0,)

    @pytest.mark.parametrize("protocol", ["oat", "tat"])
    def test_kernels_and_trace_on_an_empty_grid(self, protocol, full_noise):
        p = small_params(20)
        m = dicke.coherent_moments(p, protocol)([])
        for key in MOMENT_FIELDS:
            assert getattr(m, key).shape == (0,), key
        trace = dicke.squeezing_trace(p, [], full_noise, protocol=protocol)
        assert trace.xi_total.shape == trace.angle.shape == trace.mean_x.shape == (0,)

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
        assert xi_numeric(dicke.css(12)) == pytest.approx(1.0, rel=1e-12)

    def test_two_atoms_closed_form(self):
        p = small_params(2)
        st = dicke.evolve_oat(dicke.css(2), p.omega_twist, 0.2)
        assert xi_numeric(st) == pytest.approx(
            analytic.xi_unitary(p, 0.2).xi, rel=1e-12)


class TestApplyNoise:
    def test_grid_record_takes_the_grid(self, fig3a_params, full_noise):
        p = fig3a_params
        times = np.array([0.0, 0.2, 0.46])
        grid = dicke.coherent_moments(p, "oat")(times)
        noisy = dicke.apply_noise(grid, p, times, full_noise)
        added = analytic.noise_budget(p, times, full_noise).added_var
        assert noisy.var_z.tobytes() == (grid.var_z + added).tobytes()
        assert noisy.var_y.tobytes() == (grid.var_y + added).tobytes()
        assert noisy.cross_zy is grid.cross_zy

    def test_channels_off_is_identity(self, fig3a_params):
        m = dicke.moments(dicke.css(10_000))
        out = dicke.apply_noise(m, fig3a_params, 0.46, NoiseModel.none())
        assert vars(out) == vars(m)

    def test_css_plus_decay_at_half_life(self):
        # Gamma t = ln 2 maximizes the binomial variance: S/2 + S/4 on var_z
        n = 1000
        p = replace(small_params(n), gamma=0.9)
        t = math.log(2.0) / 0.9
        m = dicke.apply_noise(dicke.moments(dicke.css(n)), p, t,
                              NoiseModel(include_cavity_leak=False))
        S = n / 2
        assert m.var_z == pytest.approx(S / 2 + S / 4, rel=1e-12)
        assert m.var_y == pytest.approx(S / 2 + S / 4, rel=1e-12)

    def test_reproduces_total_xi_for_twisted_states(self, fig3a_params, full_noise):
        # isotropic addition shifts the minimal eigenvalue by exactly the
        # summed variances, reproducing the noise-included closed form
        p = fig3a_params
        t = 0.46
        st = dicke.evolve_oat(dicke.css(10_000), p.omega_twist, t)
        noisy = dicke.apply_noise(dicke.moments(st), p, t, full_noise)
        xi = dicke.min_transverse_variance(noisy)[0] / (p.spin_S / 2)
        assert xi == pytest.approx(analytic.xi_total(p, t, full_noise), rel=1e-6)


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
                prop = dicke.TatPropagator(S, float(rng.uniform(0.1, 1.0)))
                st = prop.evolve(st, float(rng.uniform(0.0, 0.5)))
            assert total_spin_sq(st) == pytest.approx(S * (S + 1), rel=1e-8)


class TestTraceAndDump:
    def test_trace_matches_analytic_tier(self, full_noise):
        n = 200
        p = replace(small_params(n, omega_twist=0.002), kappa=0.4, gamma=0.05)
        times = np.linspace(0.0, 30.0, 7)
        trace = dicke.squeezing_trace(p, times, full_noise, protocol="oat")
        ref = analytic.xi_total(p, times, full_noise)
        assert trace.xi_total == pytest.approx(ref, rel=1e-9)
        assert trace.model_tier == "dicke"

    def test_degenerate_mean_spin_raises_naming_its_time(self):
        # two atoms twisted: <Sx> = cos(Omega t) vanishes at Omega t = pi/2
        p = small_params(2)
        with pytest.raises(DegenerateMeanSpinError, match=f"at t={math.pi / 2!r}"):
            dicke.squeezing_trace(p, [0.1, math.pi / 2, 2.0], NoiseModel.none())

    def test_tat_beats_oat_at_matched_early_times(self):
        # the matched rotation accelerates squeezing: pointwise stronger
        # than pure twisting through the exponential window
        n = 1000
        p = small_params(n, omega_twist=0.001)
        prop = dicke.TatPropagator(n / 2, p.omega_twist)
        st = dicke.css(n)
        for phase in (0.1, 0.5, 1.0, 1.5):
            t = phase / (n / 2 * p.omega_twist)
            xi_tat = xi_numeric(prop.evolve(st, t))
            xi_oat = analytic.xi_unitary(p, t).xi
            assert xi_tat < xi_oat
