import math

import numpy as np
import pytest

from vacuumsq import LevelCrossingError, PhysicsError, SystemParams, derive_params
from vacuumsq import analytic, oracle


def tc_config(n_atoms, delta_over_gn=200.0, g=1.0, cutoff=2):
    delta = delta_over_gn * g * math.sqrt(n_atoms)
    params = SystemParams(n_atoms=n_atoms, coupling_g=g, kappa=0.0, gamma=0.0,
                          delta=delta)
    return oracle.TCConfig(params=params, photon_cutoff=cutoff)


class TestConfig:
    def test_caps(self):
        with pytest.raises(PhysicsError):
            tc_config(13)
        with pytest.raises(PhysicsError):
            oracle.TCConfig(params=tc_config(4).params, photon_cutoff=0)
        with pytest.raises(PhysicsError):
            oracle.TCConfig(params=tc_config(12).params, photon_cutoff=5000)


class TestHamiltonian:
    def test_single_excitation_jaynes_cummings(self):
        # N=1, the k = 1/2 sector is the {|up,0>, |down,1>} doublet with
        # off-diagonal g
        cfg = tc_config(1, g=0.7)
        h = oracle.build_tc_hamiltonian(cfg)
        block = h.block_for(0.5)
        assert block.matrix.shape == (2, 2)
        assert block.matrix[0, 1] == pytest.approx(0.7)
        assert block.matrix[1, 1] == 0.0  # |up, 0>
        assert block.matrix[0, 0] == pytest.approx(cfg.params.delta)

    def test_collective_enhancement_two_atoms(self):
        # S=1: <0,1|H|1,0> = g sqrt((S+1)(S-1+1)) = g sqrt(2)
        cfg = tc_config(2, g=1.3)
        block = oracle.build_tc_hamiltonian(cfg).block_for(1.0)
        i1 = int(np.flatnonzero(block.m_values == 1.0)[0])
        i0 = int(np.flatnonzero(block.m_values == 0.0)[0])
        assert block.matrix[i1, i0] == pytest.approx(1.3 * math.sqrt(2.0))

    def test_collective_enhancement_four_atoms(self):
        # S=2, m=0 -> m=-1 coupling is g sqrt(6)
        cfg = tc_config(4, g=0.9)
        block = oracle.build_tc_hamiltonian(cfg).block_for(0.0)
        i0 = int(np.flatnonzero(block.m_values == 0.0)[0])
        im1 = int(np.flatnonzero(block.m_values == -1.0)[0])
        assert block.matrix[i0, im1] == pytest.approx(0.9 * math.sqrt(6.0))

    def test_full_matrix_is_symmetric_and_block_diagonal(self):
        cfg = tc_config(4, cutoff=3)
        h = oracle.build_tc_hamiltonian(cfg)
        labels = []
        for k in np.arange(-2.0, 6.0):
            block = h.block_for(k)
            assert np.array_equal(block.matrix, block.matrix.T)  # exact symmetry, no rounding
            labels += [(m, k - m) for m in block.m_values]
        # the blocks partition the (m, n) product basis: conserved excitation number
        assert sorted(labels) == [(m, n) for m in np.arange(-2.0, 3.0) for n in range(4)]

    def test_photon_ladder_factor(self):
        # <m-1, n+1|H|m, n> carries sqrt(n+1)
        cfg = tc_config(2, g=1.0, cutoff=3)
        block = oracle.build_tc_hamiltonian(cfg).block_for(2.0)  # |1, 1> and |0, 2>
        i = int(np.flatnonzero(block.m_values == 1.0)[0])
        j = int(np.flatnonzero(block.m_values == 0.0)[0])
        assert block.matrix[i, j] == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0))


class TestVacuumLightShift:
    def test_edge_state_uncoupled(self):
        # |-S, 0> has (S+m) = 0: exact zero shift for every N
        for n in (1, 2, 5, 8):
            cfg = tc_config(n)
            assert oracle.vacuum_light_shift(cfg, -n / 2) == 0.0

    def test_two_atom_shifts_near_perturbative(self):
        cfg = tc_config(2)
        d = cfg.derived()
        for m in (0.0, 1.0):
            exact = oracle.vacuum_light_shift(cfg, m)
            pred = -d.omega_twist * (1 + m) * (1 - m + 1)
            assert exact == pytest.approx(pred, rel=5e-5)
            assert exact == pytest.approx(-2 * d.omega_twist, rel=1e-3)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_error_scales_as_inverse_delta_squared(self, n):
        def max_err(factor):
            cfg = tc_config(n, delta_over_gn=factor)
            rows = oracle.light_shift_table(cfg)
            return max(r["rel_error"] for r in rows if r["m"] != -n / 2)

        e1, e2 = max_err(200.0), max_err(400.0)
        assert e1 <= 1e-3
        assert e2 / e1 == pytest.approx(0.25, rel=0.2)

    def test_small_detuning_flags_level_crossing(self):
        with pytest.raises(LevelCrossingError):
            oracle.vacuum_light_shift(tc_config(4, delta_over_gn=0.1), 2.0)

    def test_rejects_invalid_m(self):
        with pytest.raises(PhysicsError):
            oracle.vacuum_light_shift(tc_config(4), 2.5)


class TestEvolveFull:
    def test_decoupled_limit_constant_moments(self):
        # g -> 0 surrogate: tiny g, huge detuning; moments stay put
        params = SystemParams(n_atoms=4, coupling_g=1e-8, kappa=0.0, gamma=0.0,
                              delta=1.0)
        cfg = oracle.TCConfig(params=params)
        evo = oracle.evolve_full(cfg, [0.0, 5.0, 50.0])
        for mom in evo.moments:
            assert mom.mean_x == pytest.approx(2.0, rel=1e-12)
            assert mom.var_z == pytest.approx(1.0, rel=1e-12)

    def test_matches_twisting_model(self):
        # xi agreement to 5 (g sqrt(N)/Delta)^2 relative at moderate phases
        cfg = tc_config(4, delta_over_gn=200.0)
        d = cfg.derived()
        phases = np.array([0.05, 0.1, 0.2])
        times = phases / abs(d.omega_twist)
        evo = oracle.evolve_full(cfg, times)
        tol = 5.0 * (cfg.params.collective_coupling / cfg.params.delta) ** 2
        for t, mom in zip(times, evo.moments):
            xi_full = mom.min_transverse_var / (cfg.spin_S / 2)
            xi_model = analytic.xi_unitary(d, t).xi
            assert abs(xi_full - xi_model) / xi_model <= tol

    def test_doubling_detuning_quarters_model_discrepancy(self):
        def worst(factor):
            cfg = tc_config(8, delta_over_gn=factor)
            d = cfg.derived()
            times = np.array([0.1, 0.2]) / abs(d.omega_twist)
            evo = oracle.evolve_full(cfg, times)
            errs = []
            for t, mom in zip(times, evo.moments):
                xi_full = mom.min_transverse_var / (cfg.spin_S / 2)
                xi_model = analytic.xi_unitary(d, t).xi
                errs.append(abs(xi_full - xi_model) / xi_model)
            return max(errs)

        assert worst(400.0) / worst(200.0) == pytest.approx(0.25, rel=0.25)

    def test_photon_population_small_and_reported(self):
        cfg = tc_config(6, delta_over_gn=200.0)
        d = cfg.derived()
        times = np.array([0.05, 0.15]) / abs(d.omega_twist)
        evo = oracle.evolve_full(cfg, times)
        budget = cfg.n_atoms * (cfg.params.coupling_g / cfg.params.delta) ** 2
        assert np.all(evo.photon_population <= 2 * budget)
        assert np.all(evo.top_fock_population <= 1e-8)

    def test_cutoff_escalation(self):
        # at small detuning the n=1 cutoff is insufficient; it must grow
        params = SystemParams(n_atoms=2, coupling_g=1.0, kappa=0.0, gamma=0.0,
                              delta=6.0)
        cfg = oracle.TCConfig(params=params, photon_cutoff=1)
        evo = oracle.evolve_full(cfg, [2.0])
        assert evo.photon_cutoff > 1
        with pytest.raises(PhysicsError):
            oracle.evolve_full(cfg, [2.0], auto_escalate=False)

    def test_uncorrected_frame_shows_precession(self):
        cfg = tc_config(4, delta_over_gn=200.0)
        d = cfg.derived()
        t = 0.15 / abs(d.omega_twist)
        corrected = oracle.evolve_full(cfg, [t], frame_corrected=True)
        raw = oracle.evolve_full(cfg, [t], frame_corrected=False)
        # the residual -Omega Sz precession rotates the mean in the equator
        assert abs(raw.moments[0].mean_y) > 100 * abs(corrected.moments[0].mean_y)


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
