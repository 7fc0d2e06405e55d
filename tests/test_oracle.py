import math
from dataclasses import replace

import numpy as np
import pytest

from vacuumsq import (DegenerateMeanSpinError, LevelCrossingError, NumericsError, PhysicsError,
                      SystemParams)
from vacuumsq import analytic, dicke, oracle


def tc_config(n_atoms, delta_over_gn=200.0, g=1.0, cutoff=2):
    delta = delta_over_gn * g * math.sqrt(n_atoms)
    params = SystemParams(n_atoms=n_atoms, coupling_g=g, kappa=0.0, gamma=0.0,
                          delta=delta)
    return oracle.TCConfig(params=params, photon_cutoff=cutoff)


def shift_rows(cfg):
    """The light-shift table of ``cfg``, from a pass with no time points."""
    return oracle.light_shift_table(oracle.evolve_full(cfg, []))


class TestConfig:
    def test_caps(self):
        with pytest.raises(PhysicsError):
            tc_config(13)
        with pytest.raises(PhysicsError):
            oracle.TCConfig(params=tc_config(4).params, photon_cutoff=0)
        with pytest.raises(PhysicsError):
            oracle.TCConfig(params=tc_config(12).params, photon_cutoff=5000)


def reference_block(cfg, k):
    """The sector k of H, element by element: its m values ascending and its matrix.

    State i is |m_i, n = k - m_i>; diagonal n*Delta, off-diagonal
    g sqrt(n+1) sqrt((S+m)(S-m+1)) linking |m, n> to |m-1, n+1>.
    """
    S = cfg.spin_S
    n_max = cfg.photon_cutoff
    g = cfg.params.coupling_g
    delta = cfg.params.delta
    ms = np.array([m for m in cfg.m_values if 0 <= k - m <= n_max])
    H = np.zeros((ms.size, ms.size))
    for i, m in enumerate(ms):
        n = k - m
        H[i, i] = n * delta
        if i > 0 and ms[i - 1] == m - 1:
            element = g * math.sqrt(n + 1) * math.sqrt((S + m) * (S - m + 1))
            H[i, i - 1] = H[i - 1, i] = element
    return ms, H


def reference_branch(cfg, m):
    """Energy and eigenvector of the k = m sector with maximal overlap on |m, 0>.

    One ``eigh`` per sector; the eigenvector is signed so that its |m, 0>
    component is positive.
    """
    ms, H = reference_block(cfg, m)
    eigvals, eigvecs = np.linalg.eigh(H)
    idx = int(np.flatnonzero(ms == m)[0])
    j = int(np.argmax(np.abs(eigvecs[idx, :]) ** 2))
    return float(eigvals[j]), eigvecs[:, j] * math.copysign(1.0, eigvecs[idx, j])


def stacked_block(cfg, k):
    """The sector k = m as the stacked builder makes it, without its padding below the
    ladder: its m values and its matrix."""
    levels, H = oracle._stacked_blocks(cfg)
    b = int(np.flatnonzero(cfg.m_values == k)[0])
    keep = levels[b] >= 0
    return cfg.m_values[levels[b, keep]], H[b][np.ix_(keep, keep)]


class TestHamiltonian:
    def test_single_excitation_jaynes_cummings(self):
        # N=1, the k = 1/2 sector is the {|down,1>, |up,0>} doublet with
        # off-diagonal g
        cfg = tc_config(1, g=0.7)
        _, H = stacked_block(cfg, 0.5)
        assert H.shape == (2, 2)
        assert H[0, 1] == pytest.approx(0.7)
        assert H[1, 1] == 0.0  # |up, 0>
        assert H[0, 0] == pytest.approx(cfg.params.delta)

    def test_collective_enhancement_two_atoms(self):
        # S=1: <0,1|H|1,0> = g sqrt((S+1)(S-1+1)) = g sqrt(2)
        cfg = tc_config(2, g=1.3)
        ms, H = stacked_block(cfg, 1.0)
        i1 = int(np.flatnonzero(ms == 1.0)[0])
        i0 = int(np.flatnonzero(ms == 0.0)[0])
        assert H[i1, i0] == pytest.approx(1.3 * math.sqrt(2.0))

    def test_collective_enhancement_four_atoms(self):
        # S=2, m=0 -> m=-1 coupling is g sqrt(6)
        cfg = tc_config(4, g=0.9)
        ms, H = stacked_block(cfg, 0.0)
        i0 = int(np.flatnonzero(ms == 0.0)[0])
        im1 = int(np.flatnonzero(ms == -1.0)[0])
        assert H[i0, im1] == pytest.approx(0.9 * math.sqrt(6.0))

    def test_full_matrix_is_symmetric_and_block_diagonal(self):
        cfg = tc_config(4, cutoff=3)
        labels = []
        levels, stack = oracle._stacked_blocks(cfg)
        assert np.array_equal(stack, np.swapaxes(stack, 1, 2))  # exact symmetry, no rounding
        for row, H in zip(levels, stack):
            keep = row >= 0
            ms = cfg.m_values[row[keep]]
            k = ms[-1]
            assert H[np.ix_(keep, keep)].tobytes() == reference_block(cfg, k)[1].tobytes()
            # a padding level below the ladder links to no level
            assert not (H - np.diag(np.diag(H)))[~keep].any()
            labels += [(m, k - m) for m in ms]
        # the sectors k = m partition the (m, n) states with m + n <= S, the
        # ones the dressed |CSS> (x) |0> occupies: conserved excitation number
        assert sorted(labels) == [(m, n) for m in np.arange(-2.0, 3.0) for n in range(4)
                                  if m + n <= 2.0]

    def test_photon_ladder_factor(self):
        # <m-1, n+1|H|m, n> carries sqrt(n+1): in the k = 1 sector of S=1,
        # |0, 1> -> |-1, 2> is g sqrt(2) sqrt((S+0)(S-0+1)) = 2 g
        cfg = tc_config(2, g=1.0, cutoff=3)
        ms, H = stacked_block(cfg, 1.0)  # |-1, 2>, |0, 1> and |1, 0>
        i = int(np.flatnonzero(ms == 0.0)[0])
        j = int(np.flatnonzero(ms == -1.0)[0])
        assert H[i, j] == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0))

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    @pytest.mark.parametrize("ratio", [10.0, 60.0, 300.0, -60.0])
    def test_stacked_branches_match_per_sector_reference_bitwise(self, ratio, cutoff):
        # one eigh of the padded stack keeps each sector apart from its
        # unlinked padding, so energies and weighted vectors keep the per-sector bits
        for n_atoms in range(1, 13):
            cfg = tc_config(n_atoms, delta_over_gn=ratio, cutoff=cutoff)
            amps = dicke.css(n_atoms).amplitudes
            rows, cols, weighted, energies = oracle._branches(cfg, amps)
            got = np.zeros((n_atoms + 1, cutoff + 1), dtype=complex)
            got[rows, cols] = weighted
            want = np.zeros_like(got)
            for i, m in enumerate(cfg.m_values):
                energy, vec = reference_branch(cfg, m)
                assert energies[i] == energy
                ms = reference_block(cfg, m)[0]
                rows, cols = np.rint(ms + cfg.spin_S).astype(int), np.rint(m - ms).astype(int)
                want[rows, cols] = amps[i] * vec
            assert got.tobytes() == want.tobytes()


class TestVacuumLightShift:
    def test_edge_state_uncoupled(self):
        # |-S, 0> has (S+m) = 0: exact zero shift for every N
        for n in (1, 2, 5, 8):
            edge = shift_rows(tc_config(n))[0]
            assert edge["m"] == -n / 2
            assert edge["exact_shift"] == 0.0

    def test_two_atom_shifts_near_perturbative(self):
        cfg = tc_config(2)
        p = cfg.params
        rows = {r["m"]: r["exact_shift"] for r in shift_rows(cfg)}
        for m in (0.0, 1.0):
            exact = rows[m]
            pred = -p.omega_twist * (1 + m) * (1 - m + 1)
            assert exact == pytest.approx(pred, rel=5e-5)
            assert exact == pytest.approx(-2 * p.omega_twist, rel=1e-3)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_error_scales_as_inverse_delta_squared(self, n):
        def max_err(factor):
            cfg = tc_config(n, delta_over_gn=factor)
            rows = shift_rows(cfg)
            return max(r["rel_error"] for r in rows if r["m"] != -n / 2)

        e1, e2 = max_err(200.0), max_err(400.0)
        assert e1 <= 1e-3
        assert e2 / e1 == pytest.approx(0.25, rel=0.2)

    def test_small_detuning_flags_level_crossing(self):
        with pytest.raises(LevelCrossingError):
            shift_rows(tc_config(4, delta_over_gn=0.1))

    def test_table_is_stated_at_the_cutoff_used(self):
        # Delta/(g sqrt N) = 60 at N=12 escalates the cutoff from 2 to 3; the
        # table must hold the branch energies of the basis that passed the gate
        cfg = tc_config(12, delta_over_gn=60.0)
        report = oracle.verification_report(cfg)
        assert report["photon_cutoff_used"] == 3
        used = oracle.TCConfig(params=cfg.params, photon_cutoff=3)
        for row in report["light_shifts"]:
            assert row["exact_shift"] == reference_branch(used, row["m"])[0]


class TestEvolveFull:
    def test_decoupled_limit_constant_moments(self):
        # g -> 0 surrogate: tiny g, huge detuning; moments stay put
        params = SystemParams(n_atoms=4, coupling_g=1e-8, kappa=0.0, gamma=0.0,
                              delta=1.0)
        cfg = oracle.TCConfig(params=params)
        evo = oracle.evolve_full(cfg, [0.0, 5.0, 50.0])
        assert evo.moments.mean_x.shape == evo.moments.var_z.shape == (3,)
        assert evo.moments.mean_x == pytest.approx(np.full(3, 2.0), rel=1e-12)
        assert evo.moments.var_z == pytest.approx(np.full(3, 1.0), rel=1e-12)

    def test_matches_twisting_model(self):
        # xi agreement to 5 (g sqrt(N)/Delta)^2 relative at moderate phases
        cfg = tc_config(4, delta_over_gn=200.0)
        p = cfg.params
        phases = np.array([0.05, 0.1, 0.2])
        times = phases / abs(p.omega_twist)
        evo = oracle.evolve_full(cfg, times)
        tol = 5.0 * (p.collective_coupling / p.delta) ** 2
        xi_full = dicke.min_transverse_variance(evo.moments)[0] / (cfg.spin_S / 2)
        xi_model = analytic.xi_unitary(p, times).xi
        assert xi_full.shape == times.shape
        assert np.all(np.abs(xi_full - xi_model) / xi_model <= tol)

    def test_doubling_detuning_quarters_model_discrepancy(self):
        def worst(factor):
            cfg = tc_config(8, delta_over_gn=factor)
            p = cfg.params
            times = np.array([0.1, 0.2]) / abs(p.omega_twist)
            evo = oracle.evolve_full(cfg, times)
            xi_full = dicke.min_transverse_variance(evo.moments)[0] / (cfg.spin_S / 2)
            xi_model = analytic.xi_unitary(p, times).xi
            return float(np.max(np.abs(xi_full - xi_model) / xi_model))

        assert worst(400.0) / worst(200.0) == pytest.approx(0.25, rel=0.25)

    def test_photon_population_small_and_reported(self):
        cfg = tc_config(6, delta_over_gn=200.0)
        p = cfg.params
        times = np.array([0.05, 0.15]) / abs(p.omega_twist)
        evo = oracle.evolve_full(cfg, times)
        budget = cfg.n_atoms * (p.coupling_g / p.delta) ** 2
        assert np.all(evo.photon_population <= 2 * budget)
        assert np.all(evo.top_fock_population <= 1e-8)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_rejected(self, t):
        with pytest.raises(NumericsError, match="non-finite time"):
            oracle.evolve_full(tc_config(4), [0.1, t])

    def test_scalar_time_grid_is_physics_error(self):
        with pytest.raises(PhysicsError, match="time grid must be one-dimensional"):
            oracle.evolve_full(tc_config(4), 0.5)

    def test_cutoff_escalation(self):
        # at small detuning the n=1 cutoff is insufficient; it must grow
        params = SystemParams(n_atoms=2, coupling_g=1.0, kappa=0.0, gamma=0.0,
                              delta=6.0)
        cfg = oracle.TCConfig(params=params, photon_cutoff=1)
        evo = oracle.evolve_full(cfg, [2.0])
        assert evo.photon_cutoff > 1
        assert evo.top_fock_population <= 1e-8


class TestReport:
    def test_report_is_json_ready(self):
        import json
        report = oracle.verification_report(tc_config(4))
        text = json.dumps(report)
        assert "light_shifts" in text
        assert len(report["light_shifts"]) == 5
        assert all(r["rel_error"] <= 1e-3 for r in report["light_shifts"])
        assert report["regime_ok"]

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_tilted_mean_spin_is_physics_error(self, n):
        # At Delta/(g sqrt N) = 10 the residual O(eps^2) precession tilts the
        # mean spin past the transverse-plane tolerance; the report must say
        # so with a PhysicsError, not divide a missing variance.
        with pytest.raises(PhysicsError, match=r"tilted .* Delta/\(g sqrt\(N\)\) = 10"):
            oracle.verification_report(tc_config(n, delta_over_gn=10.0))

    def test_degenerate_mean_spin_raises(self, monkeypatch):
        # one time of the grid with a vanishing mean spin, which the one
        # reduction of the grid turns into +inf and the report refuses
        evolve_full = oracle.evolve_full

        def collapsed(cfg, t_grid):
            evo = evolve_full(cfg, t_grid)
            means = {key: getattr(evo.moments, key).copy()
                     for key in ("mean_x", "mean_y", "mean_z")}
            for value in means.values():
                value[3] = 0.0
            return replace(evo, moments=replace(evo.moments, **means))

        monkeypatch.setattr(oracle, "evolve_full", collapsed)
        with pytest.raises(DegenerateMeanSpinError, match="mean spin length ~ 0 at t="):
            oracle.verification_report(tc_config(4))

    def test_cli_oracle_tilted_mean_spin_exits_physics(self, tmp_path, capsys):
        import json
        from vacuumsq import cli
        config = {
            "schema_version": cli.SCHEMA_VERSION, "command": "oracle",
            "system": {"n_atoms": 8, "g_hz": 1.0, "kappa_hz": 0.0, "gamma_hz": 0.0,
                       "delta_hz": 1e3},
            "oracle": {"photon_cutoff": 2, "delta_over_collective": 10.0},
        }
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(config))
        code = cli.main(["oracle", "--config", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_PHYSICS == 3
        assert '"error": "PhysicsError"' in capsys.readouterr().err
        assert not list(tmp_path.glob("oracle_*"))


    @pytest.mark.parametrize("ratio, cutoff_used, eigh_calls",
                             [(60.0, 3, 2), (300.0, 2, 1)])
    def test_one_diagonalization_per_cutoff(self, monkeypatch, ratio, cutoff_used, eigh_calls):
        # N=12 has 13 blocks k = m, of sizes 1..c and c+1 at cutoff c, padded
        # to c+1 and solved by one stacked eigh: escalating from cutoff 2 to 3
        # takes 2 calls, and the moments of the default grid's 8 times are one call
        counts = {"eigh": 0, "moments": 0}
        eigh, moments = np.linalg.eigh, dicke.amplitude_moments

        def counting_eigh(*args, **kwargs):
            counts["eigh"] += 1
            return eigh(*args, **kwargs)

        def counting_moments(*args, **kwargs):
            counts["moments"] += 1
            return moments(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(dicke, "amplitude_moments", counting_moments)
        report = oracle.verification_report(tc_config(12, delta_over_gn=ratio))
        assert report["photon_cutoff_used"] == cutoff_used
        assert len(report["dynamics"]) == 8
        assert counts == {"eigh": eigh_calls, "moments": 1}
