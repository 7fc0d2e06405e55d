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
depends on the phase Delta t.  The same branch pick (maximal overlap with
|m, 0>) serves the light-shift table and the dynamics.
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
    "TCConfig", "ExcitationBlock", "TCHamiltonian", "build_tc_hamiltonian",
    "vacuum_light_shift", "perturbative_light_shift", "light_shift_table",
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


@dataclass(frozen=True, eq=False)
class TCHamiltonian:
    config: TCConfig
    blocks: list[ExcitationBlock]

    def block_for(self, k) -> ExcitationBlock:
        for block in self.blocks:
            if block.k == k:
                return block
        raise KeyError(f"no excitation block k={k}")


def _block(cfg: TCConfig, k: float) -> ExcitationBlock:
    S = cfg.spin_S
    n_max = cfg.photon_cutoff
    g = cfg.params.coupling_g
    delta = cfg.params.delta
    all_m = np.arange(cfg.n_atoms + 1, dtype=float) - S
    ms = np.array([m for m in all_m if 0 <= k - m <= n_max])
    if ms.size == 0:
        raise KeyError(f"excitation sector k={k} is empty at cutoff {n_max}")
    H = np.zeros((ms.size, ms.size))
    for i, m in enumerate(ms):
        n = k - m
        H[i, i] = n * delta
        if i > 0 and ms[i - 1] == m - 1:
            element = g * math.sqrt(n + 1) * math.sqrt((S + m) * (S - m + 1))
            H[i, i - 1] = H[i - 1, i] = element
    return ExcitationBlock(k=float(k), m_values=ms, matrix=H)


def build_tc_hamiltonian(cfg: TCConfig) -> TCHamiltonian:
    """All excitation blocks from k = -S (vacuum edge) to k = S + n_max."""
    S = cfg.spin_S
    ks = np.arange(-S, S + cfg.photon_cutoff + 1)
    return TCHamiltonian(config=cfg, blocks=[_block(cfg, k) for k in ks])


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


def vacuum_light_shift(cfg: TCConfig, m) -> float:
    """Exact vacuum light shift of the dressed state connected to |m, 0>.

    Diagonalizes the k = m excitation block and picks the adiabatic branch
    (see ``_adiabatic_branch``; the bare energy is 0 in this frame, so the
    eigenvalue is the shift).  Overlap below 0.9 with |m, 0> means the
    detuning is too small to identify the branch: :class:`LevelCrossingError`.
    """
    S = cfg.spin_S
    if abs(m) > S or int(round(2 * (m + S))) != 2 * (m + S):
        raise PhysicsError(f"m must be one of -S..S, got {m}")
    return _adiabatic_branch(cfg, m)[1]


def light_shift_table(cfg: TCConfig) -> list[dict]:
    """Per-m comparison of the exact shift against -Omega (S+m)(S-m+1)."""
    S = cfg.spin_S
    rows = []
    for m in np.arange(cfg.n_atoms + 1, dtype=float) - S:
        exact = vacuum_light_shift(cfg, m)
        pert = perturbative_light_shift(cfg, m)
        rel = 0.0 if pert == exact else abs(exact - pert) / max(abs(pert), 1e-300)
        rows.append({"m": float(m), "exact_shift": exact,
                     "perturbative_shift": pert, "rel_error": rel})
    return rows


@dataclass(frozen=True, eq=False)
class FullEvolution:
    """Exact dynamics of the dressed |CSS> (x) |0> with photon-space diagnostics.

    The state starts in the dressed state adiabatically connected to
    |CSS> (x) |0>.  Moments are reported in the twisting frame: the
    coherent light-shift precession exp(-i Omega t Sz) left over after
    adiabatic elimination is removed (``frame_corrected``) so they compare
    directly against the pure twisting model.  ``photon_population`` is
    <c^dag c> ~= (g/Delta)^2 <S+ S-> = N(N+1)/4 (g/Delta)^2 for the CSS,
    constant in time; ``top_fock_population`` at the cutoff is the
    truncation diagnostic.
    """

    times: np.ndarray
    moments: list[SpinMoments]
    photon_population: np.ndarray
    top_fock_population: np.ndarray
    photon_cutoff: int
    frame_corrected: bool


def _evolve_once(cfg: TCConfig, times: np.ndarray, frame_corrected: bool) -> FullEvolution:
    S = cfg.spin_S
    n_max = cfg.photon_cutoff
    omega = cfg.derived().omega_twist
    m_all = np.arange(cfg.n_atoms + 1, dtype=float) - S
    css_amps = dicke.css(cfg.n_atoms).amplitudes

    # The CSS amplitude on |m, 0> starts the dressed eigenstate of block
    # k = m, which then only picks up the phase exp(-i E_m t).
    branches = []
    for amp, m in zip(css_amps, m_all):
        block, energy, vec = _adiabatic_branch(cfg, m)
        rows = np.rint(block.m_values + S).astype(int)
        cols = np.rint(m - block.m_values).astype(int)
        branches.append((rows, cols, energy, amp * vec))

    moments_out = []
    photon = np.empty(times.size)
    top_fock = np.empty(times.size)
    n_vals = np.arange(n_max + 1, dtype=float)
    for j, t in enumerate(times):
        psi = np.zeros((m_all.size, n_max + 1), dtype=complex)
        for rows, cols, energy, vec in branches:
            psi[rows, cols] = np.exp(-1j * energy * t) * vec
        col_pops = np.sum(np.abs(psi) ** 2, axis=0)
        photon[j] = float(np.dot(n_vals, col_pops))
        top_fock[j] = float(col_pops[-1])
        if frame_corrected:
            psi = psi * np.exp(-1j * omega * t * m_all)[:, None]
        moments_out.append(dicke.amplitude_moments(psi, S))
    return FullEvolution(times=times, moments=moments_out, photon_population=photon,
                         top_fock_population=top_fock, photon_cutoff=n_max,
                         frame_corrected=frame_corrected)


def evolve_full(cfg: TCConfig, t_grid, frame_corrected: bool = True,
                auto_escalate: bool = True) -> FullEvolution:
    """Exact unitary dynamics of the dressed |CSS> (x) |0> over a time grid.

    The evolution starts in the dressed state adiabatically connected to
    |CSS> (x) |0>: each excitation block k = m is diagonalized once and
    its adiabatic branch carries the CSS amplitude of |m>.  When the
    population at the Fock cutoff exceeds 1e-8 the cutoff is raised and
    the evolution redone (``auto_escalate``), else that is a
    :class:`PhysicsError`.  When some block has no eigenvector with overlap
    >= ``MIN_BRANCH_OVERLAP`` on |m, 0> the branch cannot be identified and
    :class:`LevelCrossingError` is raised (CLI exit 4).
    """
    times = np.asarray(t_grid, dtype=float)
    if np.any(times < 0):
        raise PhysicsError("times must be >= 0")
    cutoff = cfg.photon_cutoff
    while True:
        result = _evolve_once(
            TCConfig(params=cfg.params, photon_cutoff=cutoff), times, frame_corrected)
        worst = float(result.top_fock_population.max()) if times.size else 0.0
        if worst <= TOP_FOCK_TOL:
            return result
        if not auto_escalate:
            raise PhysicsError(
                f"top-Fock population {worst:.2e} > {TOP_FOCK_TOL}; raise photon_cutoff")
        cutoff += 1
        TCConfig(params=cfg.params, photon_cutoff=cutoff)  # re-check dimension cap


def verification_report(cfg: TCConfig, t_grid=None) -> dict:
    """JSON-ready validation summary: shift table plus dynamics discrepancy.

    The discrepancy curve compares the full-model squeezing parameter
    against the closed-form twisting value; both should agree to
    O((g sqrt(N)/Delta)^2) relative.

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
    times = np.asarray(t_grid, dtype=float)
    evo = evolve_full(cfg, times)
    ratio = abs(cfg.params.delta) / cfg.params.collective_coupling
    discrepancy = []
    for t, mom in zip(times, evo.moments):
        if mom.min_transverse_var is None:
            tilt = math.atan2(math.hypot(mom.mean_y, mom.mean_z), mom.mean_x)
            raise PhysicsError(
                f"mean spin tilted {tilt:.3g} rad off the x axis at t={t:.6g} s with "
                f"Delta/(g sqrt(N)) = {ratio:.3g}: the residual light-shift precession "
                "leaves no well-defined transverse plane; increase the detuning")
        xi_full = mom.min_transverse_var / (cfg.spin_S / 2.0)
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
        "light_shifts": light_shift_table(cfg),
        "dynamics": discrepancy,
        "max_photon_population": float(evo.photon_population.max()) if times.size else 0.0,
    }
