"""Brute-force Tavis-Cummings validation of the effective twisting model.

Builds the full atoms (x) truncated-photon Hamiltonian for small N in the
frame rotating at the atomic frequency:

    H = Delta c^dag c + g (c^dag S- + c S+),

restricted to the symmetric (maximal-S) subspace -- the collective
coupling and the initial coherent state never leave it.  The conserved
excitation number k = m + n block-diagonalizes H; blocks are diagonalized
exactly.  Two validations fall out:

* the dressed level adiabatically connected to |m> (x) |0> sits at
  -Omega (S+m)(S-m+1) + O((g sqrt(N)/Delta)^2 relative), the collective
  vacuum light shift driving the squeezing;
* full dynamics from the dressed state adiabatically connected to
  |CSS> (x) |0>, after removing the mean light-shift precession
  exp(-i Omega t Sz), reproduces the pure-twisting moments up to the same
  order.

The dynamics start dressed, not bare, because the clock pi/2 pulse that
prepares the CSS is slow next to 1/Delta.  Each |m> (x) |0> component goes
to the dressed eigenstate of its block, which then only picks up the phase
of its light shift.  The bare start would be a sudden quench: an added
photon oscillation of about 4 eps_m^2 sin^2(Delta t / 2), with
eps_m = g sqrt((S+m)(S-m+1)) / Delta, and an O(eps^2) error in xi that
depends on the phase Delta t.

The oracle runs in one pass: per photon cutoff tried, one stacked
eigensolve per block size diagonalizes every block k = m, and each
adiabatic branch (maximal overlap with |m, 0>) serves the cutoff decision,
the light-shift table and the dynamics alike.  Every branch is an
eigenstate, so the photon-number populations do not depend on time and the
top-Fock gate is read before any dynamics; the table is at the cutoff used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DerivedParams, LevelCrossingError, PhysicsError, SpinMoments, SystemParams,
                   derive_params)
from . import analytic, dicke

MAX_ATOMS = 12
MAX_DIM = 10_000
TOP_FOCK_TOL = 1e-8
MIN_BRANCH_OVERLAP = 0.9

__all__ = [
    "TCConfig", "perturbative_light_shift", "light_shift_table",
    "evolve_full", "FullEvolution", "verification_report",
]


@dataclass(frozen=True)
class TCConfig:
    """Oracle problem: system parameters plus the photon-space cutoff."""

    params: SystemParams
    photon_cutoff: int = 2

    def __post_init__(self):
        if self.params.n_atoms > MAX_ATOMS:
            raise PhysicsError(f"oracle is limited to N <= {MAX_ATOMS} atoms")
        if self.photon_cutoff < 1:
            raise PhysicsError("photon_cutoff must be >= 1")
        if self.dim > MAX_DIM:
            raise PhysicsError(f"Hilbert dimension {self.dim} exceeds the cap {MAX_DIM}")

    @property
    def n_atoms(self) -> int:
        return self.params.n_atoms

    @property
    def spin_S(self) -> float:
        return self.params.n_atoms / 2.0

    @property
    def dim(self) -> int:
        return (self.params.n_atoms + 1) * (self.photon_cutoff + 1)

    @property
    def m_values(self) -> np.ndarray:
        """Collective ladder m = -S..S, ascending."""
        return np.arange(self.n_atoms + 1, dtype=float) - self.spin_S

    def derived(self) -> DerivedParams:
        return derive_params(self.params)


def _stacked_blocks(cfg: TCConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """The excitation sectors k = m of H at the photon cutoff c of ``cfg``, stacked by size.

    Sector m holds |m', n = m - m'> for m' >= -S ascending and n <= c; it is
    real symmetric tridiagonal: diagonal n*Delta, off-diagonal
    g sqrt(n+1) sqrt((S+m')(S-m'+1)) linking |m', n> to |m'-1, n+1>.
    Returns one (levels, H) pair per size 1..c+1: the ladder indices of
    each sector's m' (its m last) and the matrices, views of one array.
    """
    S, g, delta, c = cfg.spin_S, cfg.params.coupling_g, cfg.params.delta, cfg.photon_cutoff
    n = np.arange(c, -1, -1)
    levels = np.arange(cfg.n_atoms + 1)[:, None] - n
    # a level below the ladder reads m' = -S, whose link (S+m') vanishes
    m = cfg.m_values[np.maximum(levels[:, 1:], 0)]
    H = np.zeros((cfg.n_atoms + 1, c + 1, c + 1))
    i = np.arange(c + 1)
    H[:, i, i] = n * delta
    H[:, i[1:], i[:-1]] = H[:, i[:-1], i[1:]] = (g * np.sqrt(n[1:] + 1.0)
                                               * np.sqrt((S + m) * (S - m + 1)))
    groups = []
    for size in range(1, min(c, cfg.n_atoms) + 2):
        # the c lowest m have one sector of each size 1..c, the others size c+1
        rows, lo = slice(size - 1, size if size <= c else None), c + 1 - size
        groups.append((levels[rows, lo:], H[rows, lo:, lo:]))
    return groups


def perturbative_light_shift(cfg: TCConfig, m):
    """Second-order vacuum shift of |m> (m a scalar or an array): -Omega (S+m)(S-m+1), rad/s."""
    S = cfg.spin_S
    omega = cfg.derived().omega_twist
    return -omega * (S + m) * (S - m + 1)


def _branches(cfg: TCConfig, amps: np.ndarray):
    """Adiabatic branches of the sectors k = m at the cutoff of ``cfg``, one ``eigh`` per size.

    Sector m's branch is its eigenvector of maximal overlap with |m, 0>,
    made positive there (``eigh`` fixes no sign) and weighted by the
    amplitude of |m> in ``amps``.  Overlap below ``MIN_BRANCH_OVERLAP``
    (detuning too small) raises :class:`LevelCrossingError` naming the
    lowest such m.  Returns flat (rows, cols, weighted vector) arrays into
    the (m, n) amplitudes and the energies E_m, m = -S..S.
    """
    c = cfg.photon_cutoff
    vals, vecs = np.zeros((cfg.n_atoms + 1, c + 1)), np.zeros((cfg.n_atoms + 1, c + 1, c + 1))
    for levels, H in _stacked_blocks(cfg):
        # a smaller sector's eigenpairs fill its trailing corner; the rest stays 0
        top, lo = levels[:, -1], c + 1 - H.shape[-1]
        vals[top, lo:], vecs[top, lo:, lo:] = np.linalg.eigh(H)
    at_m = vecs[:, -1, :]  # the components on |m, 0>
    overlaps = np.abs(at_m) ** 2
    b, j = np.arange(cfg.n_atoms + 1), np.argmax(overlaps, axis=1)
    low = np.flatnonzero(overlaps[b, j] < MIN_BRANCH_OVERLAP)
    if low.size:
        raise LevelCrossingError(
            f"largest overlap with |m={cfg.m_values[low[0]]}, 0> is "
            f"{overlaps[low[0], j[low[0]]]:.3f} < {MIN_BRANCH_OVERLAP}; "
            "detuning too small to identify the adiabatic branch")
    signed = vecs[b, :, j] * np.copysign(1.0, at_m[b, j])[:, None]
    n = np.arange(c, -1, -1)
    levels = b[:, None] - n
    on_ladder = levels >= 0
    return (levels[on_ladder], np.broadcast_to(n, levels.shape)[on_ladder],
            (amps[:, None] * signed)[on_ladder], vals[b, j])


@dataclass(frozen=True, eq=False)
class FullEvolution:
    """Exact dynamics of the dressed |CSS> (x) |0> with photon-space diagnostics.

    Everything here comes from one set of adiabatic branches.  ``config``
    is the oracle problem at the photon cutoff actually used, and
    ``light_shifts`` holds the branch energies E_m for m = -S..S ascending
    (the bare energy is 0 in this frame, so each is the exact vacuum light
    shift of |m>).  ``moments`` is one record over ``times``, each field an
    array of the grid, reported in the twisting frame: the coherent
    light-shift precession exp(-i Omega t Sz) left over after adiabatic
    elimination is removed, so they compare directly against the pure
    twisting model.  Each branch is an eigenstate, so the photon-number
    populations do not depend on time: ``photon_population`` is
    <c^dag c> ~= (g/Delta)^2 <S+ S-> = N(N+1)/4 (g/Delta)^2 for the CSS, and
    ``top_fock_population`` at the cutoff is the truncation diagnostic.
    """

    config: TCConfig
    times: np.ndarray
    moments: SpinMoments
    light_shifts: np.ndarray
    photon_population: float
    top_fock_population: float

    @property
    def photon_cutoff(self) -> int:
        return self.config.photon_cutoff


def _dressed_css(cfg: TCConfig):
    """The :func:`_branches` carrying |CSS> (x) |0>, at the first cutoff that holds.

    Photon-number populations do not depend on time, so the top-Fock gate
    is read here: above ``TOP_FOCK_TOL`` the cutoff is raised by one, until
    the :class:`TCConfig` dimension cap raises :class:`PhysicsError`.
    Returns the config used, the branches and each photon number's population.
    """
    amps = dicke.css(cfg.n_atoms).amplitudes
    while True:
        rows, cols, weighted, _ = branches = _branches(cfg, amps)
        pops = np.zeros((cfg.n_atoms + 1, cfg.photon_cutoff + 1))
        pops[rows, cols] = np.abs(weighted) ** 2
        fock_pops = np.sum(pops, axis=0)
        if fock_pops[-1] <= TOP_FOCK_TOL:
            return cfg, branches, fock_pops
        cfg = TCConfig(params=cfg.params, photon_cutoff=cfg.photon_cutoff + 1)


def evolve_full(cfg: TCConfig, t_grid) -> FullEvolution:
    """Exact unitary dynamics of the dressed |CSS> (x) |0> over a time grid.

    The evolution starts in the dressed state adiabatically connected to
    |CSS> (x) |0>, built in one pass by ``_dressed_css``, which also raises
    the photon cutoff while the population at the cutoff exceeds 1e-8 (a
    :class:`PhysicsError` once the dimension cap is reached).  Each branch
    then only picks up the phase exp(-i E_m t), so the (time, m, n)
    amplitudes of the grid are one scatter, then turned into the twisting
    frame by exp(-i Omega t m), and their moments one
    ``dicke.amplitude_moments`` call.
    An unidentifiable branch raises :class:`LevelCrossingError` (CLI exit
    4), a grid that is not one-dimensional or a negative time
    :class:`PhysicsError` and a non-finite one :class:`NumericsError`
    (see :func:`dicke.time_grid`).
    """
    times = dicke.time_grid(t_grid)
    used, (rows, cols, weighted, energies), fock_pops = _dressed_css(cfg)
    omega = used.derived().omega_twist
    psi = np.zeros((times.size, used.n_atoms + 1, used.photon_cutoff + 1), dtype=complex)
    # a branch element |m', n> belongs to the block of m = m' + n
    psi[:, rows, cols] = np.exp(np.multiply.outer(times, -1j * energies))[:, rows + cols] * weighted
    psi *= np.exp(np.multiply.outer(-1j * omega * times, used.m_values))[:, :, None]
    n_vals = np.arange(fock_pops.size, dtype=float)
    return FullEvolution(config=used, times=times,
                         moments=dicke.amplitude_moments(psi, used.spin_S),
                         light_shifts=energies,
                         photon_population=float(np.dot(n_vals, fock_pops)),
                         top_fock_population=float(fock_pops[-1]))


def light_shift_table(evo: FullEvolution) -> list[dict]:
    """Per-m comparison of the exact shifts of ``evo`` against -Omega (S+m)(S-m+1).

    The exact shifts are the branch energies at the cutoff ``evo`` used,
    the same branches that carried its dynamics.
    """
    cfg = evo.config
    rows = []
    for m, exact, pert in zip(cfg.m_values, evo.light_shifts,
                              perturbative_light_shift(cfg, cfg.m_values)):
        exact = float(exact)
        rel = 0.0 if pert == exact else abs(exact - pert) / max(abs(pert), 1e-300)
        rows.append({"m": float(m), "exact_shift": exact,
                     "perturbative_shift": pert, "rel_error": rel})
    return rows


def verification_report(cfg: TCConfig, t_grid=None) -> dict:
    """JSON-ready validation summary: shift table plus dynamics discrepancy.

    One :func:`evolve_full` pass yields both: the shift table is read from
    its branch energies at ``photon_cutoff_used``.  The discrepancy curve
    compares the full-model squeezing parameter against the closed-form
    twisting value; both should agree to O((g sqrt(N)/Delta)^2) relative.

    The frame correction removes exp(-i Omega t Sz), but the exact mean
    precession differs from Omega by O((g sqrt(N)/Delta)^2), so the mean
    spin tilts off the x axis as t grows.  The grid's moments are reduced
    once by ``dicke.min_transverse_variance``.  When a tilt exceeds the 1e-3
    it accepts -- in practice below Delta/(g sqrt(N)) of about 25 -- the
    report raises :class:`PhysicsError` naming the largest tilt, its time
    and Delta/(g sqrt(N)); a degenerate mean spin raises
    :class:`core.DegenerateMeanSpinError`.
    """
    d = cfg.derived()
    if t_grid is None:
        # Cover twisting phases up to S*Omega*t = 0.2, where xi is O(1).
        t_end = 0.2 / (cfg.spin_S * abs(d.omega_twist))
        t_grid = np.linspace(0.0, t_end, 9)[1:]
    evo = evolve_full(cfg, t_grid)
    ratio = abs(cfg.params.delta) / cfg.params.collective_coupling
    mom = evo.moments
    try:
        variance, _ = dicke.min_transverse_variance(mom)
    except PhysicsError as exc:
        tilt = np.arctan2(np.hypot(mom.mean_y, mom.mean_z), mom.mean_x)
        worst = int(np.argmax(tilt))
        raise PhysicsError(
            f"mean spin tilted {tilt[worst]:.3g} rad off the x axis at t={evo.times[worst]:.6g} s "
            f"with Delta/(g sqrt(N)) = {ratio:.3g}: the residual light-shift precession "
            "leaves no well-defined transverse plane; increase the detuning") from exc
    analytic._require_plane(np.isinf(variance), evo.times)
    xi_full = variance / (cfg.spin_S / 2.0)
    xi_model = analytic.xi_unitary(d, evo.times).xi
    rel = np.abs(xi_full - xi_model) / np.maximum(np.abs(xi_model), 1e-300)
    columns = {"t_seconds": evo.times, "xi_full": xi_full, "xi_twisting_model": xi_model,
               "rel_discrepancy": rel}
    discrepancy = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    scale = (cfg.params.collective_coupling / cfg.params.delta) ** 2
    return {
        "n_atoms": cfg.n_atoms,
        "photon_cutoff_used": evo.photon_cutoff,
        "delta_over_collective_coupling": ratio,
        "expected_relative_scale": scale,
        "regime_ok": cfg.params.regime_ok,
        "light_shifts": light_shift_table(evo),
        "dynamics": discrepancy,
        "max_photon_population": evo.photon_population,
    }
