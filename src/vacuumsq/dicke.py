"""Numerically exact collective-spin dynamics on the Dicke ladder.

States live on the (2S+1)-dimensional symmetric subspace, stored as a
dense complex amplitude vector c_m, m = -S..S ascending.  Twisting
(Omega Sz^2) is diagonal and applied exactly; rotation-assisted twisting
(Omega (S Sx + Sz^2)) is real symmetric tridiagonal and propagated either
through one spectral decomposition reused across a time grid or, for
large ladders, through Krylov stepping (``expm_multiply`` picks its own
sub-steps).  The spectral path multiplies its real eigenvectors only by
real operands (real and imaginary parts apart) and takes a time grid in
blocks of 64 columns, one matrix product per block, so its temporaries
stay below 4 MiB up to ``SPECTRAL_MAX_DIM``.  Both paths must pass a
norm gate of 1e-9 before the state is renormalized.  One moments kernel,
:func:`amplitude_moments`, serves ladder vectors and the oracle's joint
(m, n) amplitude arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from .core import (DerivedParams, DegenerateMeanSpinError, NormDriftError,
                   NumericsError, PhysicsError, resolve_tier)
from .analytic import NoiseModel, SpinMoments, SqueezingTrace
from . import analytic

NORM_TOL = 1e-12        # invariant: sum |c_m|^2 = 1 within this, always
NORM_DRIFT_GATE = 1e-9  # propagation drift beyond this is an error
SPECTRAL_MAX_DIM = 4096  # larger ladders use Krylov stepping (memory)
_GRID_BLOCK = 64         # time columns per spectral product (temporaries <= 4 MiB)

__all__ = [
    "DickeState", "css", "evolve_oat", "evolve_tat", "TatPropagator",
    "amplitude_moments", "moments", "min_transverse_variance", "xi_numeric",
    "apply_noise", "total_spin_sq", "squeezing_trace",
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
        if not np.all(np.isfinite(amps.view(float))):
            raise NumericsError("non-finite amplitudes (overflow during propagation?)")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericsError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "spin_S", S)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float) - self.spin_S

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def _gated_state(spin_S, amps) -> DickeState:
    """Renormalize within the drift gate, else raise NormDriftError."""
    norm = float(np.sum(np.abs(amps) ** 2))
    if not math.isfinite(norm):
        raise NumericsError("non-finite amplitudes (overflow during propagation?)")
    if abs(norm - 1.0) > NORM_DRIFT_GATE:
        raise NormDriftError(
            f"norm drifted to {norm!r} (gate {NORM_DRIFT_GATE}); propagation lost unitarity")
    return DickeState(spin_S, amps / math.sqrt(norm))


def css(n_atoms: int) -> DickeState:
    """Coherent spin state along +x: c_m = sqrt(C(2S, m+S) / 2^(2S)).

    Binomial weights are evaluated in log space so that N up to 1e5 is
    exact to rounding (no overflow of the raw binomials).
    """
    if n_atoms < 1 or int(n_atoms) != n_atoms:
        raise PhysicsError(f"n_atoms must be a positive integer, got {n_atoms}")
    S = n_atoms / 2.0
    m = np.arange(n_atoms + 1, dtype=float) - S
    log_amp = 0.5 * (gammaln(2 * S + 1) - gammaln(S + m + 1) - gammaln(S - m + 1)
                     - 2 * S * math.log(2.0))
    amps = np.exp(log_amp).astype(complex)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return DickeState(S, amps)


def evolve_oat(state: DickeState, omega_twist: float, t: float) -> DickeState:
    """Twisting evolution: c_m -> exp(-i Omega m^2 t) c_m, exactly diagonal."""
    if t < 0:
        raise PhysicsError("time must be >= 0")
    phases = np.exp(-1j * omega_twist * t * state.m_values ** 2)
    return _gated_state(state.spin_S, phases * state.amplitudes)


def _sx_offdiag(S: float, m: np.ndarray) -> np.ndarray:
    """Matrix elements <m+1|Sx|m> = (1/2) sqrt((S-m)(S+m+1)) for m[:-1]."""
    return 0.5 * np.sqrt((S - m[:-1]) * (S + m[:-1] + 1.0))


class TatPropagator:
    """Propagator for H = Omega (S Sx + Sz^2), reusable across a time grid.

    ``method``: "spectral" (one tridiagonal eigendecomposition, exact for
    any t), "krylov" (sparse ``expm_multiply``, which chooses its own
    sub-steps; memory-light for big ladders), or "auto" (spectral up to
    dim 4096).  The spectral path multiplies the real eigenvector matrix
    only by real operands, so it never holds a complex copy of it, and it
    takes a time grid in blocks of 64 columns, one matrix product each:
    its complex temporaries stay at dim x 64 x 16 B <= 4 MiB.
    :meth:`evolve_grid` returns one gated state per time.
    """

    def __init__(self, spin_S: float, omega_twist: float, method: str = "auto"):
        dim = int(round(2 * spin_S + 1))
        self.spin_S = float(spin_S)
        self.omega_twist = float(omega_twist)
        m = np.arange(dim, dtype=float) - spin_S
        diag = omega_twist * m ** 2
        off = omega_twist * spin_S * _sx_offdiag(spin_S, m)
        if method == "auto":
            method = "spectral" if dim <= SPECTRAL_MAX_DIM else "krylov"
        if method not in ("spectral", "krylov"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        if method == "spectral":
            self._eigvals, self._eigvecs = eigh_tridiagonal(diag, off)
        else:
            self._h = sparse.diags([off, diag, off], [-1, 0, 1], format="csr")

    def evolve(self, state: DickeState, t: float) -> DickeState:
        if t < 0:
            raise PhysicsError("time must be >= 0")
        if self.method == "spectral":
            amps = self._spectral(state.amplitudes, np.array([t], dtype=float))[:, 0]
        else:
            amps = self._krylov_step(state.amplitudes, t)
        return _gated_state(state.spin_S, amps)

    def _spectral(self, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
        """exp(-iHt) amps for every t, as the columns of a (dim, T) array.

        Each product of the real eigenvectors V with a complex operand z is
        taken as V z.real + i V z.imag, so numpy never upcasts V.
        """
        vecs = self._eigvecs
        coeffs = vecs.T @ amps.real + 1j * (vecs.T @ amps.imag)
        out = np.empty((amps.size, times.size), dtype=complex)
        for lo in range(0, times.size, _GRID_BLOCK):
            cols = slice(lo, lo + _GRID_BLOCK)
            rotated = np.exp(-1j * np.outer(self._eigvals, times[cols])) * coeffs[:, None]
            out[:, cols] = vecs @ rotated.real + 1j * (vecs @ rotated.imag)
        return out

    def _krylov_step(self, amps, dt):
        if dt == 0.0:
            return amps.copy()
        return expm_multiply(-1j * dt * self._h, amps)

    def evolve_grid(self, state: DickeState, times) -> list[DickeState]:
        """States at the given (ascending, >= 0) times from one initial state.

        The spectral path evaluates the grid in blocks of matrix products
        (see :meth:`_spectral`).  The Krylov path steps sequentially
        between grid points, so a full curve costs about the same as one
        evolution to the final time.
        """
        times = np.asarray(times, dtype=float)
        if times.size and (np.any(times < 0) or np.any(np.diff(times) < 0)):
            raise PhysicsError("times must be ascending and >= 0")
        if self.method == "spectral":
            block = self._spectral(state.amplitudes, times)
            return [_gated_state(state.spin_S, block[:, j]) for j in range(times.size)]
        out = []
        amps = state.amplitudes
        prev = 0.0
        for t in times:
            amps = self._krylov_step(amps, t - prev)
            prev = t
            out.append(_gated_state(state.spin_S, amps))
        return out


def evolve_tat(state: DickeState, omega_twist: float, t: float) -> DickeState:
    """Rotation-assisted twisting under H = Omega (S Sx + Sz^2).

    Norm drift beyond 1e-9 raises; smaller drift is renormalized away.
    """
    return TatPropagator(state.spin_S, omega_twist).evolve(state, t)


def _ladder_applications(amps: np.ndarray, spin_S: float):
    """Sz c, Sy c, Sx c along the first (m) axis of ``amps``; O(size) each."""
    m = (np.arange(amps.shape[0], dtype=float) - spin_S).reshape((-1,) + (1,) * (amps.ndim - 1))
    up = np.sqrt((spin_S - m[:-1]) * (spin_S + m[:-1] + 1.0))  # <m+1| S+ |m>
    sp_c = np.zeros_like(amps)
    sp_c[1:] = up * amps[:-1]
    sm_c = np.zeros_like(amps)
    sm_c[:-1] = up * amps[1:]
    return m * amps, (sp_c - sm_c) / 2j, (sp_c + sm_c) / 2.0


def amplitude_moments(amps: np.ndarray, spin_S: float) -> SpinMoments:
    """Spin moments of amplitudes shaped (dim,) or (dim, n_photon).

    The first axis is the ladder m = -S..S; any trailing (photon) axis is
    traced out, because ``np.vdot`` flattens both operands.  Returns all
    first moments and the transverse (z, y) second moments, with
    ``min_transverse_var``/``optimal_angle`` filled via
    :func:`min_transverse_variance` when the mean spin defines a usable
    transverse plane, else left as None.
    """
    sz_c, sy_c, sx_c = _ladder_applications(amps, spin_S)

    def inner(a, b):
        return float(np.real(np.vdot(a, b)))

    mx, my, mz = inner(amps, sx_c), inner(amps, sy_c), inner(amps, sz_c)
    mom = SpinMoments(spin_S=spin_S, mean_x=mx, mean_y=my, mean_z=mz,
                      var_z=inner(sz_c, sz_c) - mz * mz,
                      var_y=inner(sy_c, sy_c) - my * my,
                      cross_zy=2.0 * inner(sz_c, sy_c) - 2.0 * mz * my)
    try:
        variance, angle = min_transverse_variance(mom)
    except PhysicsError:
        return mom
    return replace(mom, min_transverse_var=variance, optimal_angle=angle)


def moments(state: DickeState) -> SpinMoments:
    """Spin moments of a ladder state (see :func:`amplitude_moments`)."""
    return amplitude_moments(state.amplitudes, state.spin_S)


# Relative tilt of the mean spin away from x beyond which the stored
# (z, y) block no longer spans the transverse plane.
_TILT_TOL = 1e-3
_ISOTROPY_TOL = 1e-12


def min_transverse_variance(m: SpinMoments) -> tuple[float, float]:
    """Smallest transverse variance and its quadrature angle.

    Diagonalizes the 2x2 covariance of (Sz, Sy) in the plane orthogonal to
    the mean spin.  The mean must be well defined (|<S>| > 1e-9 S) and lie
    along +-x to within 1e-3 relative -- the only states produced here;
    the angle convention matches ``analytic.xi_unitary`` exactly
    (quadrature cos(phi) Sy - sin(phi) Sz, isotropic tie-break 0).
    """
    length = math.sqrt(m.mean_x ** 2 + m.mean_y ** 2 + m.mean_z ** 2)
    if length <= 1e-9 * m.spin_S:
        raise DegenerateMeanSpinError(
            f"mean spin length {length!r} ~ 0: transverse plane undefined")
    if math.hypot(m.mean_y, m.mean_z) > _TILT_TOL * length:
        raise PhysicsError(
            "mean spin tilted away from the x axis; the stored (z, y) block "
            "does not span its transverse plane")
    half_sum = 0.5 * (m.var_z + m.var_y)
    radius = math.hypot(0.5 * (m.var_z - m.var_y), 0.5 * m.cross_zy)
    variance = half_sum - radius
    if radius <= _ISOTROPY_TOL * max(1.0, half_sum):
        return variance, 0.0  # isotropic: any angle, report 0 by tie-break
    angle = 0.5 * (math.pi - math.atan2(m.cross_zy, m.var_y - m.var_z))
    if angle > math.pi / 2:
        angle -= math.pi  # fold to (-pi/2, pi/2]
    return variance, angle


def xi_numeric(state: DickeState) -> float:
    """Squeezing parameter of a ladder state: min transverse var / (S/2)."""
    variance, _ = min_transverse_variance(moments(state))
    return variance / (state.spin_S / 2.0)


def apply_noise(m: SpinMoments, d: DerivedParams, t, noise: NoiseModel) -> SpinMoments:
    """Add the decoherence variances isotropically in the transverse plane.

    Both channel variances go onto var_z and var_y (cross terms
    untouched), which shifts each covariance eigenvalue by the same
    amount and therefore adds exactly [dS2_leak + dS2_decay]/(S/2) to xi.
    The same rule is applied to twisting and rotation-assisted states.
    """
    added = float(analytic.noise_budget(d, t, noise).added_var)
    new_min = None if m.min_transverse_var is None else m.min_transverse_var + added
    return replace(m, var_z=m.var_z + added, var_y=m.var_y + added,
                   min_transverse_var=new_min)


def total_spin_sq(state: DickeState) -> float:
    """<S^2> computed from the ladder operators (conserved: S(S+1))."""
    sz_c, sy_c, sx_c = _ladder_applications(state.amplitudes, state.spin_S)
    return float(np.real(np.vdot(sx_c, sx_c) + np.vdot(sy_c, sy_c)
                         + np.vdot(sz_c, sz_c)))


def squeezing_trace(d: DerivedParams, times, noise: NoiseModel,
                    protocol: str = "oat") -> SqueezingTrace:
    """Numerically exact squeezing trace over a time grid (dicke tier).

    Twisting states are produced one at a time and reduced to moments at
    once, so at most one ladder vector is alive.
    """
    _, protocol = resolve_tier("dicke", protocol)
    times = np.asarray(times, dtype=float)
    state0 = css(d.params.n_atoms)
    if protocol == "oat":
        states = (evolve_oat(state0, d.omega_twist, t) for t in times)
    else:
        states = TatPropagator(state0.spin_S, d.omega_twist).evolve_grid(state0, times)
    xi_u = np.empty_like(times)
    xi_tot = np.empty_like(times)
    mean_x = np.empty_like(times)
    angle = np.empty_like(times)
    for i, (t, st) in enumerate(zip(times, states)):
        mom = moments(st)
        if mom.min_transverse_var is None:
            raise NumericsError(f"transverse plane undefined at t={t}")
        xi_u[i] = mom.min_transverse_var / (d.spin_S / 2.0)
        noisy = apply_noise(mom, d, t, noise)
        xi_tot[i] = noisy.min_transverse_var / (d.spin_S / 2.0)
        mean_x[i] = mom.mean_x
        angle[i] = noisy.optimal_angle
    return SqueezingTrace(times=times, xi_unitary=xi_u, xi_total=xi_tot,
                          mean_x=mean_x, var_min=xi_tot * (d.spin_S / 2.0),
                          angle=angle, model_tier="dicke", protocol=protocol)
