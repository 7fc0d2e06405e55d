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

The oracle runs in one pass: each block k = m is diagonalized once per
photon cutoff tried, and its adiabatic branch (maximal overlap with
|m, 0>) serves the cutoff decision, the light-shift table and the
dynamics alike.  Every branch is an eigenstate, so the photon-number
populations do not depend on time and the top-Fock gate is read before
any dynamics; the table is stated at the cutoff the run used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DerivedParams, LevelCrossingError, PhysicsError, SystemParams, derive_params
from .analytic import SpinMoments
from . import analytic, dicke

MAX_ATOMS = 12
MAX_DIM = 10_000
TOP_FOCK_TOL = 1e-8
MIN_BRANCH_OVERLAP = 0.9

__all__ = [
    "TCConfig", "ExcitationBlock", "perturbative_light_shift", "light_shift_table",
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


@dataclass(frozen=True, eq=False)
class ExcitationBlock:
    """One conserved-excitation sector k = m + n.

    ``m_values`` ascending; state i is |m_i, n = k - m_i>.  The matrix is
    real symmetric tridiagonal: diagonal n*Delta, off-diagonal
    g sqrt(n+1) sqrt((S+m)(S-m+1)) linking |m, n> to |m-1, n+1>.
    """

    k: float
    m_values: np.ndarray
    matrix: np.ndarray


def _block(cfg: TCConfig, k: float) -> ExcitationBlock:
    """The excitation sector k of H at the photon cutoff of ``cfg``."""
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
    return ExcitationBlock(k=float(k), m_values=ms, matrix=H)


def perturbative_light_shift(cfg: TCConfig, m) -> float:
    """Second-order vacuum shift of |m>: -Omega (S+m)(S-m+1), rad/s."""
    S = cfg.spin_S
    omega = cfg.derived().omega_twist
    return -omega * (S + m) * (S - m + 1)


def _adiabatic_branch(cfg: TCConfig, m) -> tuple[ExcitationBlock, float, np.ndarray]:
    """Dressed eigenstate of the k = m block adiabatically connected to |m, 0>.

    Returns the block, the eigenvalue and the eigenvector, picked as the one
    with maximal overlap on |m, 0> and signed so that its |m, 0> component
    is positive (``eigh`` fixes no sign).  Overlap below
    ``MIN_BRANCH_OVERLAP`` means the detuning is too small to identify the
    adiabatic branch and raises :class:`LevelCrossingError`.
    """
    block = _block(cfg, m)
    eigvals, eigvecs = np.linalg.eigh(block.matrix)
    idx = int(np.flatnonzero(block.m_values == m)[0])
    overlaps = np.abs(eigvecs[idx, :]) ** 2
    j = int(np.argmax(overlaps))
    if overlaps[j] < MIN_BRANCH_OVERLAP:
        raise LevelCrossingError(
            f"largest overlap with |m={m}, 0> is {overlaps[j]:.3f} < {MIN_BRANCH_OVERLAP}; "
            "detuning too small to identify the adiabatic branch")
    vec = eigvecs[:, j] * math.copysign(1.0, eigvecs[idx, j])
    return block, float(eigvals[j]), vec


@dataclass(frozen=True, eq=False)
class FullEvolution:
    """Exact dynamics of the dressed |CSS> (x) |0> with photon-space diagnostics.

    Everything here comes from one set of adiabatic branches.  ``config``
    is the oracle problem at the photon cutoff actually used, and
    ``light_shifts`` holds the branch energies E_m for m = -S..S ascending
    (the bare energy is 0 in this frame, so each is the exact vacuum light
    shift of |m>).  Moments are reported in the twisting frame: the
    coherent light-shift precession exp(-i Omega t Sz) left over after
    adiabatic elimination is removed, so they compare directly against the
    pure twisting model.  Each branch is an eigenstate, so the photon-number
    populations do not depend on time: ``photon_population`` is
    <c^dag c> ~= (g/Delta)^2 <S+ S-> = N(N+1)/4 (g/Delta)^2 for the CSS, and
    ``top_fock_population`` at the cutoff is the truncation diagnostic.
    """

    config: TCConfig
    times: np.ndarray
    moments: list[SpinMoments]
    light_shifts: np.ndarray
    photon_population: float
    top_fock_population: float

    @property
    def photon_cutoff(self) -> int:
        return self.config.photon_cutoff


def _dressed_css(cfg: TCConfig):
    """Adiabatic branches carrying |CSS> (x) |0>, at the first cutoff that holds.

    Each block k = m is diagonalized once per cutoff tried, and its branch
    carries the CSS amplitude of |m>.  The populations per photon number
    do not depend on time, so the top-Fock gate is read here, before any
    dynamics: above ``TOP_FOCK_TOL`` the cutoff is raised by one, until the
    dimension cap of :class:`TCConfig` raises :class:`PhysicsError`.

    Returns the config at the cutoff used, the branches as (rows, cols,
    energy, amplitude-weighted eigenvector) into the (m, n) amplitude
    array, and the population of each photon number.
    """
    S = cfg.spin_S
    css_amps = dicke.css(cfg.n_atoms).amplitudes
    while True:
        branches = []
        pops = np.zeros((cfg.n_atoms + 1, cfg.photon_cutoff + 1))
        for amp, m in zip(css_amps, cfg.m_values):
            block, energy, vec = _adiabatic_branch(cfg, m)
            rows = np.rint(block.m_values + S).astype(int)
            cols = np.rint(m - block.m_values).astype(int)
            vec = amp * vec
            pops[rows, cols] = np.abs(vec) ** 2
            branches.append((rows, cols, energy, vec))
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
    then only picks up the phase exp(-i E_m t).  When some block has no
    eigenvector with overlap >= ``MIN_BRANCH_OVERLAP`` on |m, 0> the branch
    cannot be identified and :class:`LevelCrossingError` is raised (CLI
    exit 4).
    """
    times = np.asarray(t_grid, dtype=float)
    if np.any(times < 0):
        raise PhysicsError("times must be >= 0")
    used, branches, fock_pops = _dressed_css(cfg)
    S = used.spin_S
    omega = used.derived().omega_twist
    m_all = used.m_values
    moments_out = []
    for t in times:
        psi = np.zeros((m_all.size, used.photon_cutoff + 1), dtype=complex)
        for rows, cols, energy, vec in branches:
            psi[rows, cols] = np.exp(-1j * energy * t) * vec
        psi = psi * np.exp(-1j * omega * t * m_all)[:, None]
        moments_out.append(dicke.amplitude_moments(psi, S))
    n_vals = np.arange(fock_pops.size, dtype=float)
    return FullEvolution(config=used, times=times, moments=moments_out,
                         light_shifts=np.array([energy for _, _, energy, _ in branches]),
                         photon_population=float(np.dot(n_vals, fock_pops)),
                         top_fock_population=float(fock_pops[-1]))


def light_shift_table(evo: FullEvolution) -> list[dict]:
    """Per-m comparison of the exact shifts of ``evo`` against -Omega (S+m)(S-m+1).

    The exact shifts are the branch energies at the cutoff ``evo`` used,
    the same branches that carried its dynamics.
    """
    cfg = evo.config
    rows = []
    for m, exact in zip(cfg.m_values, evo.light_shifts):
        exact = float(exact)
        pert = perturbative_light_shift(cfg, m)
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
    spin tilts off the x axis as t grows.  When the tilt exceeds the 1e-3
    that ``dicke.min_transverse_variance`` accepts -- in practice below
    Delta/(g sqrt(N)) of about 25 -- the report raises :class:`PhysicsError`
    naming the tilt, the time and Delta/(g sqrt(N)).
    """
    d = cfg.derived()
    if t_grid is None:
        # Cover twisting phases up to S*Omega*t = 0.2, where xi is O(1).
        t_end = 0.2 / (cfg.spin_S * abs(d.omega_twist))
        t_grid = np.linspace(0.0, t_end, 9)[1:]
    evo = evolve_full(cfg, t_grid)
    ratio = abs(cfg.params.delta) / cfg.params.collective_coupling
    discrepancy = []
    for t, mom in zip(evo.times, evo.moments):
        try:
            variance, _ = dicke.min_transverse_variance(mom)
        except PhysicsError as exc:
            tilt = math.atan2(math.hypot(mom.mean_y, mom.mean_z), mom.mean_x)
            raise PhysicsError(
                f"mean spin tilted {tilt:.3g} rad off the x axis at t={t:.6g} s with "
                f"Delta/(g sqrt(N)) = {ratio:.3g}: the residual light-shift precession "
                "leaves no well-defined transverse plane; increase the detuning") from exc
        xi_full = variance / (cfg.spin_S / 2.0)
        xi_model = float(analytic.xi_unitary(d, t).xi)
        rel = abs(xi_full - xi_model) / max(abs(xi_model), 1e-300)
        discrepancy.append({"t_seconds": float(t), "xi_full": float(xi_full),
                            "xi_twisting_model": xi_model, "rel_discrepancy": rel})
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
