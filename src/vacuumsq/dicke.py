"""Numerically exact collective-spin dynamics on the Dicke ladder.

States live on the (2S+1)-dimensional symmetric subspace, stored as a
dense complex amplitude vector c_m, m = -S..S ascending.  Twisting
(Omega Sz^2) is diagonal and applied exactly; rotation-assisted twisting
(Omega (S Sx + Sz^2)) is real symmetric tridiagonal.  For a general state,
:class:`TatPropagator` splits it by the reflection R|m> = |-m>, which
commutes with H, into a symmetric and an antisymmetric sector, two
tridiagonal eigenproblems of about dim/2 each.  On the full ladder their
spectra interleave into near-degenerate tunnelling doublets (gaps below
1e-10 of the spread at dim 2001), which an eigensolver must resolve as
clusters; within one sector the levels stay well separated.  The
propagator solves each occupied sector in full, once, and is exact for any
t on ladders of up to ``SPECTRAL_MAX_DIM`` levels.  No package code forms
TAT states: the propagator is the reference that the coherent kernel below
is tested against.

The coherent state along +x needs neither the ladder nor its sectors.  In
the mean-spin basis x -> z', z -> x', y -> -y', H = Omega (S Sz' + Sx'^2)
and the coherent state is |m' = S>.  Sx'^2 keeps the parity of S - m', so
the state lives on one tridiagonal block, the levels m' = S, S - 2, ...: the
symmetric sector above in another basis (R is a pi rotation about x, the
parity of S - m'), with its size and spectrum.  The squeezed state stays
near the top of the block: in the bosonic limit it is a squeezed vacuum
with r = |Omega| S t, whose level m' = S - 2j holds at most tanh(r)^(2j).
So the kernel keeps the top K levels of the block, K from that bound at
the grid's last time, and gates every grid on the population of the two
last kept levels: above ``WINDOW_EDGE_WEIGHT`` at any time, K doubles, up
to the whole block.  At N = 1e4 to 1e6 a grid up to Omega S t = 1.5 keeps
303 levels and a window of about 60 eigenvectors.  The block is shifted by
its top level's energy, a global phase.  Unshifted, lambda t reaches about
S Omega S t, 7.5e4 rad at N = 1e5 and Omega S t = 1.5, and the rounding of
those phases alone holds the edge population above the gate: K doubles
from 303 to 4848 there.

One moments kernel, :func:`amplitude_moments`, serves ladder vectors and
the oracle's joint (time, m, n) amplitude arrays alike.  A
:class:`SpinMoments` holds moments only, for one state or, as arrays, for a
whole time grid; each consumer reduces a grid once with the vectorized
:func:`min_transverse_variance`.  One grid kernel, :func:`coherent_moments`,
gives the evolved coherent state's moments along a time grid for both
protocols, as one record, to :func:`squeezing_trace` and the optimizer's
Dicke objective, without forming the evolved state.  Rotation-assisted
twisting takes them in the eigenbasis of the truncated block's energy
window, where the spin operators are small real matrices formed once per
solve (see :func:`_tat_coherent_kernel`).

Twisting over a time grid turns c_m by exp(-i Omega t m^2), so the Sz
moments do not depend on t, and the others are sums of pair weights
c*_{m+k} c_m (k = 1, 2) turned by a phase of t and the level difference.
The weights live on the coherent state's nonzero band, the levels whose
amplitude does not underflow to 0 (17 187 of 100 001 levels at N = 1e5).
The band is exact, not a truncation: a pair weight with a zero amplitude
vanishes.  The weights and the norm-drift gate are evaluated once per
kernel: the twist keeps sum |c_m|^2 at every t, so a per-point check would
only see the rounding of |exp(i theta)|, about 1e-16.  The phases are
arithmetic in m, so each factors into a row phase and an in-row step: a
time point takes about 4 sqrt(n) exponentials for n band levels (530 at
N = 1e5), and a block of 64 times takes two matrix products.

The scipy imports sit inside the functions that call them: ``optimize``
imports this module, and loading scipy's linear algebra and special
functions would add about 0.3 s to each start of the analytic ``optimize``,
``scaling`` and ``feasibility`` commands, which call none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (DerivedParams, NoiseModel, NormDriftError, NumericsError, PhysicsError,
                   SpinMoments, SqueezingTrace, resolve_tier)
from . import analytic

NORM_TOL = 1e-12        # invariant: sum |c_m|^2 = 1 within this, always
NORM_DRIFT_GATE = 1e-9  # propagation drift beyond this is an error
# The most real eigenvectors a TAT solve keeps, else NumericsError: over the
# two reflection sectors of TatPropagator's ladder, of about dim/2 levels
# each (2 x 33.6 MB at dim 4096), and in the energy window of the coherent
# kernel's truncated block, which keeps fewer than 100 up to Omega S t = 2.
SPECTRAL_MAX_DIM = 4096
WINDOW_SIGMAS = 64.0       # first half-width of a TAT energy window, in energy spreads
# An edge eigenvector weighing more doubles an energy window; a last kept
# level of the coherent kernel's block populated more doubles the block.
WINDOW_EDGE_WEIGHT = 1e-26
_GRID_BLOCK = 64         # time columns per grid product (TAT temporaries <= 4 MiB)

__all__ = [
    "DickeState", "css", "evolve_oat",
    "amplitude_moments", "moments", "min_transverse_variance", "coherent_moments",
    "apply_noise", "squeezing_trace",
]


@dataclass(frozen=True, eq=False)
class DickeState:
    """Amplitudes over the collective ladder |m>, m = -S..S ascending."""

    spin_S: float
    amplitudes: np.ndarray

    def __post_init__(self):
        S = float(self.spin_S)
        dim = int(round(2 * S + 1))
        if abs(2 * S + 1 - dim) > 1e-9 or dim < 2:
            raise PhysicsError(f"spin must be a half-integer >= 1/2, got {S}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise PhysicsError(f"expected {dim} amplitudes for S={S}, got shape {amps.shape}")
        _check_unit_norm(amps)
        object.__setattr__(self, "spin_S", S)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float) - self.spin_S


def time_grid(times) -> np.ndarray:
    """A time grid as a float array: one-dimensional, >= 0 and finite.

    A grid of any other shape, a 0-d scalar included, or a negative time
    raises :class:`PhysicsError`; a NaN or infinite time
    :class:`NumericsError`.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise PhysicsError("time grid must be one-dimensional")
    if np.any(times < 0):
        raise PhysicsError("time must be >= 0")
    if not np.all(np.isfinite(times)):
        raise NumericsError("non-finite time")
    return times


def _check_unit_norm(amps: np.ndarray) -> None:
    """The state invariant: finite amplitudes with sum |c|^2 = 1 within NORM_TOL."""
    if not np.all(np.isfinite(amps.view(float))):
        raise NumericsError("non-finite amplitudes (overflow during propagation?)")
    norm = float(np.sum(np.abs(amps) ** 2))
    if abs(norm - 1.0) > NORM_TOL:
        raise NumericsError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")


def _drift_gated(norm: float) -> float:
    """The norm of propagated amplitudes if within the drift gate, else raise NormDriftError."""
    if not math.isfinite(norm):
        raise NumericsError("non-finite amplitudes (overflow during propagation?)")
    if abs(norm - 1.0) > NORM_DRIFT_GATE:
        raise NormDriftError(
            f"norm drifted to {norm!r} (gate {NORM_DRIFT_GATE}); propagation lost unitarity")
    return norm


def _gated_state(spin_S, amps) -> DickeState:
    """Propagated amplitudes as a state, renormalized within the drift gate."""
    return DickeState(spin_S, amps / math.sqrt(_drift_gated(float(np.sum(np.abs(amps) ** 2)))))


def css(n_atoms: int) -> DickeState:
    """Coherent spin state along +x: c_m = sqrt(C(2S, m+S) / 2^(2S)).

    Binomial weights are evaluated in log space so that N up to 1e5 is
    exact to rounding (no overflow of the raw binomials).
    """
    from scipy.special import gammaln

    if n_atoms < 1 or int(n_atoms) != n_atoms:
        raise PhysicsError(f"n_atoms must be a positive integer, got {n_atoms}")
    S = n_atoms / 2.0
    m = np.arange(n_atoms + 1, dtype=float) - S
    # m is exactly antisymmetric, so S - m + 1 is S + m + 1 reversed.  The
    # mirrored terms as one sum: addition commutes, so c_m and c_-m are
    # bitwise equal, and TatPropagator solves only the symmetric sector.
    up = gammaln(S + m + 1)
    log_amp = 0.5 * (gammaln(2 * S + 1) - (up + up[::-1]) - 2 * S * math.log(2.0))
    amps = np.exp(log_amp).astype(complex)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return DickeState(S, amps)


def evolve_oat(state: DickeState, omega_twist: float, t: float) -> DickeState:
    """Twisting evolution: c_m -> exp(-i Omega m^2 t) c_m, exactly diagonal."""
    if t < 0:
        raise PhysicsError("time must be >= 0")
    if not math.isfinite(t):
        raise NumericsError("non-finite time")
    phases = np.exp(-1j * omega_twist * t * state.m_values ** 2)
    return _gated_state(state.spin_S, phases * state.amplitudes)


def _nonzero_band(amps: np.ndarray) -> slice:
    """The levels from the first to the last nonzero amplitude."""
    nonzero = np.flatnonzero(amps)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1)


def _oat_band_kernel(state0: DickeState, omega_twist: float):
    """The moments kernel of the twisted state0 along a time grid, on its nonzero band.

    Formed once: the band norm n, the Sz moments, <S+S- + S-S+> =
    2<S(S+1) - Sz^2>, and the pair weights over n, w1_m = <m+1|S+|m> c*_{m+1} c_m,
    (2m+1) w1_m and w2_m = <m+2|S+^2|m> c*_{m+2} c_m.  The kernel maps a grid of
    finite times >= 0 to one :class:`SpinMoments` of arrays over the grid, once
    n passes the drift gate (1e-9).  At theta = Omega t the moments are
    <S+> = sum_j exp(i theta phi_j) w1_j,
    <{Sz, S+}> the same over (2m+1) w1 and <S+^2> = sum_j exp(i theta psi_j) w2_j,
    with the pair phases phi_j = (m+1)^2 - m^2 = phi_0 + 2j and psi_j = (m+2)^2 - m^2
    = psi_0 + 4j of the band levels m = m_0 + j.  Both are arithmetic, so with
    j = B a + b and B = ceil(sqrt(levels)) each exponential factors into a row
    phase exp(i theta (phi_0 + 2Ba)) and an in-row step exp(2i theta b): the
    weights are zero-padded to A full rows of B, and each block of up to 64
    times takes one product of the stacked w1 rows and one of the w2 rows with
    their steps, then a sum over rows turned by their row phases.  A point
    costs 2(A + B) exponentials, about 4 sqrt(levels), and the temporaries
    stay at about B x 64 x 16 B.  Each moment is within 1e-14 S^2 of a 40-digit
    reference (random complex start, N = 301, Omega t <= 2).  The grid must be
    one-dimensional (see :func:`time_grid`).
    """
    band = _nonzero_band(state0.amplitudes)
    S, amps, m = state0.spin_S, state0.amplitudes[band], state0.m_values[band]
    pop = np.abs(amps) ** 2
    norm = float(np.sum(pop))
    mean_z, sz_sq = float(np.dot(m, pop)) / norm, float(np.dot(m ** 2, pop)) / norm
    up = np.sqrt((S - m[:-1]) * (S + m[:-1] + 1.0))  # <m+1| S+ |m>
    w1 = up * amps[1:].conj() * amps[:-1] / norm
    w2 = up[:-1] * up[1:] * amps[2:].conj() * amps[:-2] / norm
    sym = 2.0 * (S * (S + 1.0) - sz_sq)  # <S+S- + S-S+>
    width = math.isqrt(m.size - 1) + 1  # B = ceil(sqrt(levels))
    rows = -(-w1.size // width)  # A, enough for the longer w1

    def padded(w):
        out = np.zeros(rows * width, dtype=complex)
        out[:w.size] = w
        return out.reshape(rows, width)

    phi0 = 2.0 * m[0] + 1.0
    w1_rows = np.concatenate((padded(w1), padded((2.0 * m[:-1] + 1.0) * w1)))
    w2_rows = padded(w2)
    row = np.arange(rows) * float(width)
    phi_rows, psi_rows = phi0 + 2.0 * row, (2.0 * phi0 + 2.0) + 4.0 * row
    phi_steps = 2.0 * np.arange(width, dtype=float)
    psi_steps = 2.0 * phi_steps

    def turns(phases, theta):
        return np.exp(1j * np.multiply.outer(phases, theta))

    def moments_at(times) -> SpinMoments:
        times = time_grid(times)
        _drift_gated(norm)
        sp, sz_sp, sp_sq = np.empty((3, times.size), dtype=complex)
        for lo in range(0, times.size, _GRID_BLOCK):
            cols = slice(lo, lo + _GRID_BLOCK)
            theta = omega_twist * times[cols]
            turned = (w1_rows @ turns(phi_steps, theta)).reshape(2, rows, theta.size)
            sp[cols], sz_sp[cols] = np.sum(turns(phi_rows, theta) * turned, axis=1)
            sp_sq[cols] = np.sum(turns(psi_rows, theta) * (w2_rows @ turns(psi_steps, theta)), 0)
        return SpinMoments(spin_S=S, mean_x=sp.real, mean_y=sp.imag,
                           mean_z=np.full(times.size, mean_z),
                           var_z=np.full(times.size, sz_sq - mean_z * mean_z),
                           var_y=0.25 * (sym - 2.0 * sp_sq.real) - sp.imag * sp.imag,
                           cross_zy=sz_sp.imag - 2.0 * mean_z * sp.imag)
    return moments_at


def _sx_offdiag(S: float, m: np.ndarray) -> np.ndarray:
    """Matrix elements <m+1|Sx|m> = (1/2) sqrt((S-m)(S+m+1)) for m[:-1]."""
    return 0.5 * np.sqrt((S - m[:-1]) * (S + m[:-1] + 1.0))


_SQRT_HALF = math.sqrt(0.5)


def _parity_sectors(diag: np.ndarray, off: np.ndarray):
    """The tridiagonal blocks of a ladder matrix on the two sectors of R|m> = |-m>.

    ``diag`` and ``off`` must be invariant under m -> -m, as Omega m^2 and
    the Sx elements are, so that the matrix commutes with R.  Returns
    (diag, off) of the symmetric sector, on |0> (integer S) and
    (|m> + |-m>)/sqrt(2) for m > 0, and of the antisymmetric one, on
    (|m> - |-m>)/sqrt(2) for m > 0.  For integer S the link of |0> to the
    m = 1 pair carries a factor sqrt(2); for half-integer S the +-1/2 link
    becomes +-link on the first diagonal element.
    """
    dim = diag.size
    pos = dim - dim // 2  # index of the lowest level m > 0
    d_pos, e_pos, link = diag[pos:], off[pos:], off[pos - 1]
    if dim % 2:
        return ((np.concatenate(([diag[pos - 1]], d_pos)),
                 np.concatenate(([math.sqrt(2.0) * link], e_pos))),
                (d_pos, e_pos))
    shift = np.zeros_like(d_pos)
    shift[0] = link
    return (d_pos + shift, e_pos), (d_pos - shift, e_pos)


def _real_product(vecs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """vecs @ z for a real ``vecs`` and complex ``z``, without a complex copy of vecs."""
    return vecs @ z.real + 1j * (vecs @ z.imag)


def _sector_split(amps: np.ndarray):
    """The (symmetric, antisymmetric) projections of ladder amplitudes, first axis m = -S..S.

    The sector bases are those of :func:`_parity_sectors`.
    """
    half, pos = amps.shape[0] // 2, amps.shape[0] - amps.shape[0] // 2  # [half:pos] is m = 0
    upper, lower = amps[pos:], amps[half - 1::-1]  # m > 0 and their mirrors -m
    return (np.concatenate((amps[half:pos], _SQRT_HALF * (upper + lower))),
            _SQRT_HALF * (upper - lower))


def _sector_join(sym: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """The ladder array (first axis m = -S..S) of its two sector projections."""
    # one symmetric level per m >= 0 and one antisymmetric per m > 0
    pos, half = sym.shape[0], anti.shape[0]
    out = np.empty((pos + half,) + sym.shape[1:], dtype=np.result_type(sym, anti))
    out[half:pos] = sym[:pos - half]
    out[pos:] = _SQRT_HALF * (sym[pos - half:] + anti)
    out[half - 1::-1] = _SQRT_HALF * (sym[pos - half:] - anti)
    return out


def _energy_window(diag: np.ndarray, off: np.ndarray, vals: np.ndarray, z: np.ndarray,
                   spread: tuple[float, float]):
    """(vals, vecs, V^T z) of the eigenpairs of the tridiagonal T that carry z.

    ``vals`` are all eigenvalues of T = (diag, off), ascending, and
    ``spread`` is (E0, sigma), the mean energy <z|T|z> / |z|^2 and the
    spread |(T - E0) z| / |z| of z: (diag[0], |off[0]|) for the first unit
    vector, the coherent kernel's |m' = S>.  The window holds the levels
    within W sigma of E0, and at least the level nearest E0.  W starts at
    ``WINDOW_SIGMAS`` and doubles, with at least one more level on each
    side, while an edge eigenvector that is not T's own edge weighs
    |V^T z|^2 > ``WINDOW_EDGE_WEIGHT`` or the kept weights fall short of
    |z|^2 by more than ``NORM_TOL`` (weight far from E0).  A window over all
    of T is one full ``eigh_tridiagonal``.  Raises :class:`NumericsError` once the
    window would keep more than ``SPECTRAL_MAX_DIM`` eigenvectors.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dstein

    e0, sigma = spread
    weight_z = float(np.vdot(z, z).real)
    lo = int(np.argmin(np.abs(vals - e0)))
    hi, width = lo + 1, WINDOW_SIGMAS
    while True:
        lo = min(lo, int(np.searchsorted(vals, e0 - width * sigma)))
        hi = max(hi, int(np.searchsorted(vals, e0 + width * sigma, side="right")))
        if hi - lo > SPECTRAL_MAX_DIM:
            raise NumericsError(
                f"the energy window keeps more than {SPECTRAL_MAX_DIM} eigenvectors")
        if hi - lo == vals.size:
            full_vals, vecs = eigh_tridiagonal(diag, off)
            return full_vals, vecs, _real_product(vecs.T, z)
        # inverse iteration on T as one unsplit block: no link of a TAT block is zero
        vecs, info = dstein(diag, off, vals[lo:hi], np.ones(vals.size, dtype=np.int32),
                            np.full(vals.size, vals.size, dtype=np.int32))
        if info:
            raise NumericsError(f"inverse iteration left {info} TAT eigenvectors unconverged")
        coeffs = _real_product(vecs.T, z)
        weight = np.abs(coeffs) ** 2
        if not (weight_z - float(np.sum(weight)) > NORM_TOL
                or (lo > 0 and weight[0] > WINDOW_EDGE_WEIGHT)
                or (hi < vals.size and weight[-1] > WINDOW_EDGE_WEIGHT)):
            return vals[lo:hi], vecs, coeffs
        lo, hi, width = max(lo - 1, 0), min(hi + 1, vals.size), 2.0 * width


class TatPropagator:
    """Exact propagator for H = Omega (S Sx + Sz^2), reusable across states and time grids.

    Each reflection sector a state occupies (see :func:`_parity_sectors`) is
    solved in full by ``eigh_tridiagonal`` on first use, and its eigenpairs
    are kept for later states and grids.  A sector the state does not occupy
    is skipped: its product V 0 is exactly 0.  A ladder of more than
    ``SPECTRAL_MAX_DIM`` levels raises :class:`NumericsError`.
    """

    def __init__(self, spin_S: float, omega_twist: float):
        dim = int(round(2 * spin_S + 1))
        if dim > SPECTRAL_MAX_DIM:
            raise NumericsError(
                f"a ladder of {dim} levels exceeds the propagator's limit of {SPECTRAL_MAX_DIM}")
        self.spin_S = float(spin_S)
        m = np.arange(dim, dtype=float) - spin_S
        self._blocks = _parity_sectors(omega_twist * m ** 2,
                                       omega_twist * spin_S * _sx_offdiag(spin_S, m))
        self._pairs = [None, None]  # (vals, vecs) per sector, solved on first use

    def evolve(self, state: DickeState, t: float) -> DickeState:
        """The state at one time t >= 0: :meth:`evolve_grid` of the grid [t]."""
        return self.evolve_grid(state, [t])[0]

    def evolve_grid(self, state: DickeState, times) -> list[DickeState]:
        """exp(-iHt) of one initial state at each time of a grid, as gated states.

        Each sector's projection z is expanded once, c = V^T z.  Each block
        of up to 64 times takes V (c exp(-i lambda t)) per occupied sector,
        as V a + i V b so that numpy never upcasts the real V, and joins the
        pair into ladder columns.  Norm drift beyond 1e-9 raises, smaller
        drift is renormalized away.  A grid that is not one-dimensional
        raises :class:`PhysicsError`, a NaN or infinite time
        :class:`NumericsError`, both up front (see :func:`time_grid`).
        """
        from scipy.linalg import eigh_tridiagonal

        times = time_grid(times)
        sectors = []
        for k, z in enumerate(_sector_split(state.amplitudes)):
            if not z.any():  # no eigenvectors, and products that are zeros
                sectors.append((np.empty(0), np.empty((z.size, 0)), np.empty(0, dtype=complex)))
                continue
            if self._pairs[k] is None:
                self._pairs[k] = eigh_tridiagonal(*self._blocks[k])
            vals, vecs = self._pairs[k]
            sectors.append((vals, vecs, _real_product(vecs.T, z)))
        out = np.empty((state.dim, times.size), dtype=complex)
        for lo in range(0, times.size, _GRID_BLOCK):
            cols = slice(lo, lo + _GRID_BLOCK)
            out[:, cols] = _sector_join(*(
                _real_product(vecs, np.exp(-1j * np.outer(vals, times[cols])) * coeffs[:, None])
                for vals, vecs, coeffs in sectors))
        return [_gated_state(state.spin_S, out[:, j]) for j in range(times.size)]


def _ladder_applications(amps: np.ndarray, spin_S: float):
    """Sz c, Sy c, Sx c along the ladder axis -2 (m = -S..S) of ``amps``; O(size) each."""
    m = (np.arange(amps.shape[-2], dtype=float) - spin_S)[:, None]
    up = np.sqrt((spin_S - m[:-1]) * (spin_S + m[:-1] + 1.0))  # <m+1| S+ |m>
    sp_c = np.zeros_like(amps)
    sp_c[..., 1:, :] = up * amps[..., :-1, :]
    sm_c = np.zeros_like(amps)
    sm_c[..., :-1, :] = up * amps[..., 1:, :]
    return m * amps, (sp_c - sm_c) / 2j, (sp_c + sm_c) / 2.0


def amplitude_moments(amps: np.ndarray, spin_S: float) -> SpinMoments:
    """Spin moments of amplitudes shaped (dim,) or (..., dim, n_photon).

    The axis of length dim is the ladder m = -S..S, and the photon axis is
    traced out.  Leading axes are grid axes: each field is an array of their
    shape, a scalar for one state.  Returns all first moments and the
    transverse (z, y) second moments.
    """
    amps = amps[:, None] if amps.ndim == 1 else amps
    grid, size = amps.shape[:-2], amps.shape[-2] * amps.shape[-1]
    sz_c, sy_c, sx_c = _ladder_applications(amps, spin_S)

    def inner(a, b):  # Re <a|b> per grid point: a row-by-column product sums as np.vdot does
        return np.real(a.reshape(grid + (1, size)).conj() @ b.reshape(grid + (size, 1)))[..., 0, 0]

    mx, my, mz = inner(amps, sx_c), inner(amps, sy_c), inner(amps, sz_c)
    return SpinMoments(spin_S=spin_S, mean_x=mx, mean_y=my, mean_z=mz,
                       var_z=inner(sz_c, sz_c) - mz * mz,
                       var_y=inner(sy_c, sy_c) - my * my,
                       cross_zy=2.0 * inner(sz_c, sy_c) - 2.0 * mz * my)


def moments(state: DickeState) -> SpinMoments:
    """Spin moments of a ladder state (see :func:`amplitude_moments`)."""
    return amplitude_moments(state.amplitudes, state.spin_S)


def _tat_coherent_kernel(spin_S: float, omega_twist: float):
    """The moments kernel of the coherent state under rotation-assisted twisting.

    In the mean-spin basis x -> z', z -> x', y -> -y', H = Omega (S Sz' +
    Sx'^2) and the coherent state is |m' = S>.  Sx'^2 keeps the parity of
    n = S - m', so the state stays on the tridiagonal block of the levels
    n = 0, 2, 4, ..., with H - Omega (S^2 + S/2) = -Omega n^2 / 2 on its
    diagonal and Omega <m'|S'+^2|m'-2> / 4 on its links: the shift by the
    top level's energy is a global phase that keeps lambda t small (see the
    module docstring).

    A solve keeps the top K levels of the block and expands |m' = S> in the
    eigenpairs of its energy window (see :func:`_energy_window`), with E0 = 0
    and sigma = |off[0]|: psi(t) = sum_j u_j(t) L_j with u_j = c_j exp(-i
    lambda_j t), c_j = L_j[0], whose kept weight sum |c_j|^2 passes the drift
    gate (1e-9) on every call.  Each call also gates its grid: the two last kept
    levels must stay at most ``WINDOW_EDGE_WEIGHT`` populated at every
    time, or K doubles, up to the whole block, which needs no gate.  The
    first K follows the bosonic limit, a squeezed vacuum with r = |Omega| S t
    at the grid's last time, whose population of level n = 2j is at most
    tanh(r)^(2j).  The kernel keeps its largest solve for later calls.

    The moments are quadratic forms in u over real k x k matrices, formed
    once per solve: <n>, <D> with D = (S'+S'- + S'-S'+)/4 = S/2 + n (S - n/2),
    the diagonal that Sx'^2 and Sy'^2 share, and <S'+^2>.  Then <Sx> = S - <n>,
    var_z = <Sx'^2> = <D> + Re <S'+^2> / 2, var_y = <Sy'^2> = <D> - Re <S'+^2> / 2,
    cross_zy = -<{Sx', Sy'}> = -Im <S'+^2>, and <Sy> = <Sz> = 0 exactly:
    Sx' and Sy' leave the block.  A block of up to 64 times takes one
    product of the stacked forms with the real and imaginary parts of u.  The
    grid must be one-dimensional with times >= 0 (see :func:`time_grid`),
    and an empty one takes no solve;
    :class:`NumericsError` when the window exceeds ``SPECTRAL_MAX_DIM``.
    """
    S = float(spin_S)
    levels = int(round(2 * S)) // 2 + 1  # m' = S, S - 2, ... >= -S
    need = -math.log(WINDOW_EDGE_WEIGHT)
    solved = None  # the largest solve: (K, vals, coeffs, forms, the last two kept rows)

    def first_size(r):  # K = j + 2 for the first j with tanh(r)^(2j) <= WINDOW_EDGE_WEIGHT
        rate = -2.0 * math.log(math.tanh(r)) if r > 0 else math.inf  # 0 once tanh(r) rounds to 1
        return levels if rate * levels <= need else min(levels, max(1, math.ceil(need / rate)) + 2)

    def solve(size):
        from scipy.linalg import eigh_tridiagonal

        n = 2.0 * np.arange(size)  # S - m' of the kept levels
        lift = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0) * (2 * S - n[:-1]) * (2 * S - n[:-1] - 1.0))
        diag, off = -0.5 * omega_twist * n * n, 0.25 * omega_twist * lift
        top = np.zeros(size)
        top[0] = 1.0
        sigma = abs(float(off[0])) if size > 1 else 0.0
        vals = eigh_tridiagonal(diag, off, eigvals_only=True)
        vals, vecs, coeffs = _energy_window(diag, off, vals, top, (0.0, sigma))
        raised = np.zeros_like(vecs)  # S'+^2 L
        raised[:-1] = lift[:, None] * vecs[1:]
        shared = S / 2.0 + n * (S - n / 2.0)  # the diagonal D of Sx'^2 and Sy'^2
        images = np.concatenate((n[:, None] * vecs, shared[:, None] * vecs, raised), axis=1)
        return size, vals, coeffs, images.T @ vecs, vecs[-2:]  # forms: n, D and (L^T S'+^2 L)^T

    def turned(solve, times):  # (columns, u = c exp(-i lambda t)), up to 64 columns at a time
        _, vals, coeffs, _, _ = solve
        for lo in range(0, times.size, _GRID_BLOCK):
            cols = slice(lo, lo + _GRID_BLOCK)
            yield cols, coeffs[:, None] * np.exp(-1j * np.outer(vals, times[cols]))

    def edge_weight(solve, times):  # the largest population of the two last kept levels
        return max(float(np.max(np.abs(_real_product(solve[4], u)) ** 2))
                   for _, u in turned(solve, times))

    def moments_at(times) -> SpinMoments:
        nonlocal solved
        times = time_grid(times)
        quad, im = np.empty((3, times.size)), np.empty(times.size)  # <n>, <D>, Re and Im <S'+^2>
        if times.size:
            size = first_size(abs(omega_twist) * S * float(np.max(times)))
            if solved is None or solved[0] < size:
                solved = solve(size)
            while solved[0] < levels and edge_weight(solved, times) > WINDOW_EDGE_WEIGHT:
                solved = solve(min(2 * solved[0], levels))
            _, vals, coeffs, forms, _ = solved
            norm = _drift_gated(float(np.sum(np.abs(coeffs) ** 2)))
            for cols, u in turned(solved, times):
                a, b = u.real, u.imag
                products = forms @ np.concatenate((a, b), axis=1)  # F a and F b of each form F
                fa, fb = np.split(products.reshape(3, vals.size, -1), 2, axis=2)
                quad[:, cols] = np.sum(a * fa + b * fb, axis=1) / norm
                im[cols] = np.sum(b * fa[2] - a * fb[2], axis=0) / norm
        shared, re = quad[1], quad[2]
        return SpinMoments(spin_S=S, mean_x=S - quad[0], mean_y=np.zeros(times.size),
                           mean_z=np.zeros(times.size), var_z=shared + 0.5 * re,
                           var_y=shared - 0.5 * re, cross_zy=-im)
    return moments_at


# Relative tilt of the mean spin away from x beyond which the stored
# (z, y) block no longer spans the transverse plane.
_TILT_TOL = 1e-3
_ISOTROPY_TOL = 1e-12


def min_transverse_variance(m: SpinMoments):
    """Smallest transverse variance and its quadrature angle at each point of ``m``.

    Diagonalizes the 2x2 covariance of (Sz, Sy) in the plane orthogonal to
    the mean spin: arrays for a grid record, floats for one state.  A
    degenerate mean (|<S>| <= 1e-9 S) gives variance +inf; any other must
    lie along +-x to within 1e-3 relative -- the only states produced here
    -- or :class:`PhysicsError` is raised.  The angle convention matches
    ``analytic.xi_unitary`` exactly (quadrature cos(phi) Sy - sin(phi) Sz,
    isotropic tie-break 0).
    """
    length = np.sqrt(np.square(m.mean_x) + np.square(m.mean_y) + np.square(m.mean_z))
    degenerate = length <= 1e-9 * m.spin_S  # as analytic.squeezing_trace
    if np.any((np.hypot(m.mean_y, m.mean_z) > _TILT_TOL * length) & ~degenerate):
        raise PhysicsError(
            "mean spin tilted away from the x axis; the stored (z, y) block "
            "does not span its transverse plane")
    half_sum = 0.5 * (m.var_z + m.var_y)
    radius = np.hypot(0.5 * (m.var_z - m.var_y), 0.5 * m.cross_zy)
    variance = analytic._where(degenerate, math.inf, half_sum - radius)
    angle = 0.5 * (math.pi - np.arctan2(m.cross_zy, m.var_y - m.var_z))
    angle = analytic._where(angle > math.pi / 2, angle - math.pi, angle)  # fold to (-pi/2, pi/2]
    # isotropic: any angle, report 0 by tie-break
    return variance, analytic._where(radius <= _ISOTROPY_TOL * np.maximum(1.0, half_sum), 0.0,
                                     angle)


def coherent_moments(d: DerivedParams, protocol: str):
    """Moments of the evolved coherent spin state, as a function of a time grid.

    ``protocol`` is "oat" or "tat", as resolved by :func:`core.resolve_tier`.
    The function maps a one-dimensional grid of times >= 0 to one
    :class:`SpinMoments` of arrays over the grid.  Twisting turns the
    coherent state's pair weights, formed here once (see
    :func:`_oat_band_kernel`).  Rotation-assisted twisting starts from
    |m' = S> in the mean-spin basis and turns its
    eigen-coefficients in the energy window of the top K levels of its block;
    the spin matrices are formed once per K, and K grows with the grid's last
    time and doubles while the last kept levels are populated beyond
    ``WINDOW_EDGE_WEIGHT`` (see :func:`_tat_coherent_kernel`).  The function
    keeps its largest solve, so a later grid that ends sooner reuses it.
    """
    if protocol == "oat":
        return _oat_band_kernel(css(d.params.n_atoms), d.omega_twist)
    return _tat_coherent_kernel(d.spin_S, d.omega_twist)


def apply_noise(m: SpinMoments, d: DerivedParams, t, noise: NoiseModel) -> SpinMoments:
    """Add the decoherence variances isotropically in the transverse plane.

    Both channel variances go onto var_z and var_y (cross terms
    untouched), which shifts each covariance eigenvalue by the same
    amount and therefore adds exactly [dS2_leak + dS2_decay]/(S/2) to xi.
    ``t`` is a time for one state, or the grid of a grid record.
    :func:`squeezing_trace` adds the same variance to the minimal one
    directly.
    """
    added = analytic.noise_budget(d, t, noise).added_var
    return replace(m, var_z=m.var_z + added, var_y=m.var_y + added)


def squeezing_trace(d: DerivedParams, times, noise: NoiseModel,
                    protocol: str = "oat") -> SqueezingTrace:
    """Numerically exact squeezing trace over a time grid (dicke tier).

    The coherent moments of the grid come from one :func:`coherent_moments`
    call and are reduced once by :func:`min_transverse_variance`; a time
    whose mean spin defines no transverse plane raises
    :class:`DegenerateMeanSpinError`.  The noise budget is one array call;
    its added variance goes onto the minimal one, xi_total = (var +
    added)/(S/2), as in :func:`apply_noise`.
    """
    _, protocol = resolve_tier("dicke", protocol)
    times = np.asarray(times, dtype=float)
    added = analytic.noise_budget(d, times, noise).added_var
    mom = coherent_moments(d, protocol)(times)
    variance, angle = min_transverse_variance(mom)
    analytic._require_plane(np.isinf(variance), times)
    half_S = d.spin_S / 2.0
    xi_tot = (variance + added) / half_S
    return SqueezingTrace(times=times, xi_unitary=variance / half_S,
                          xi_total=xi_tot, mean_x=mom.mean_x, var_min=xi_tot * half_S,
                          angle=angle, model_tier="dicke", protocol=protocol)
