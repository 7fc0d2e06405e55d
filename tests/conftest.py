import math

import numpy as np
import pytest

from vacuumsq import NoiseModel, NumericsError, PhysicsError, SystemParams, derive_params
from vacuumsq import analytic, core, dicke


@pytest.fixture(scope="session")
def fig3a_params():
    """The eta=10 working point: N=1e4, kappa/2pi=100 kHz, Gamma/2pi=7 mHz,
    Delta/2pi=11.2 MHz, g fixed implicitly by the cooperativity."""
    return SystemParams.from_frequencies(
        10_000, kappa_hz=1e5, gamma_hz=7e-3, delta_hz=11.2e6, eta=10.0)


@pytest.fixture(scope="session")
def fig3a_derived(fig3a_params):
    return derive_params(fig3a_params)


@pytest.fixture(scope="session")
def full_noise():
    return NoiseModel(include_free_space=True, include_cavity_leak=True)


def small_params(n_atoms, omega_twist=1.0):
    """Params whose twisting rate is exactly ``omega_twist`` rad/s."""
    delta = 4.0 / omega_twist
    return SystemParams(n_atoms=n_atoms, coupling_g=2.0, kappa=0.0, gamma=0.0,
                        delta=delta)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


def oat_moments(d, t):
    """Closed-form twisting moments at a scalar time t, the reference formula.

    Kitagawa & Ueda, PRA 47, 5138 (1993), with A and B as in the
    ``analytic`` module docstring: <Sx> = S cos^(2S-1)(Omega t), var_z =
    S/2, var_y = S/2 + (S/2)(S - 1/2) A, cross_zy = (S/2)(S - 1/2) B.
    """
    if t < 0:
        raise PhysicsError("time must be >= 0")
    S = d.spin_S
    x = d.omega_twist * t
    mean_x = S * analytic.cos_pow(x, int(2 * S - 1))
    if S == 0.5:
        var_y, cross = S / 2.0, 0.0
    else:
        a = 1.0 - analytic.cos_pow(2.0 * x, int(2 * S - 2))
        b = 4.0 * math.sin(x) * analytic.cos_pow(x, int(2 * S - 2))
        var_y = S / 2.0 + 0.5 * S * (S - 0.5) * a
        cross = (S / 2.0) * (S - 0.5) * b
    return analytic.SpinMoments(spin_S=S, mean_x=float(mean_x), mean_y=0.0, mean_z=0.0,
                                var_z=S / 2.0, var_y=float(var_y), cross_zy=float(cross))


def xi_approx(d, t, detector_efficiency_q=0.0):
    """Small-decoherence expansion of xi_total, the reference formula.

    The three-term sum 1/(2 S Omega t)^2 + 2(1-q) S g^2 kappa t / Delta^2
    + 2 Gamma t, whose joint minimum over t and Delta is
    ``analytic.xi_bound``; it diverges at t = 0.
    """
    t = np.asarray(t, dtype=float)
    S, p = d.spin_S, d.params
    with np.errstate(divide="ignore"):
        unitary = 1.0 / (2.0 * S * d.omega_twist * t) ** 2
    leak = 2.0 * (1.0 - detector_efficiency_q) * S * (d.omega_twist / p.delta) * p.kappa * t
    return unitary + leak + 2.0 * p.gamma * t


def tat_variance_bosonic(d, t):
    """Minimal variance of rotation-assisted twisting in the bosonic limit.

    var = (S/2) exp(-2 S |Omega| t): the matched rotation squeezes one fixed
    quadrature exponentially at the collective rate S Omega, while the
    depletion of the mean spin is small.
    """
    return (d.spin_S / 2.0) * np.exp(-2.0 * d.spin_S * abs(d.omega_twist) * t)


def xi_numeric(state):
    """Squeezing parameter of a ladder state: min transverse var / (S/2)."""
    variance, _ = dicke.min_transverse_variance(dicke.moments(state))
    return variance / (state.spin_S / 2.0)


def tat_window_moments(state0, omega_twist):
    """Moments of state0 under rotation-assisted twisting on the full ladder, the reference kernel.

    The state is projected once (see ``dicke.TatPropagator._project``), so
    psi(t) = sum_j u_j(t) L_j with u_j(t) = c_j exp(-i lambda_j t) over the kept
    eigenvectors L_j of each occupied sector, mapped to the ladder (real), and
    the norm n = sum |c_j|^2 passes the drift gate (1e-9) once per kernel.
    With Sz L = Z, Sx L = X and Sy L = i Y, where Y = (S- L - S+ L)/2 (all
    real, from ``dicke._ladder_shifts``), the moments are quadratic forms in u over
    real k x k matrices formed here once per occupied sector: <Sx> over L^T X,
    <Sz^2> over Z^T Z, <Sy^2> over Y^T Y, and Re <Sz Sy> = -Im u^dag (Z^T Y) u.
    Sz and Sy flip the reflection sector, so <Sz> and <Sy> vanish unless both
    sectors are occupied; then they come from the cross blocks L_s^T Z_a and
    L_s^T Y_a as 2 Re w_z and -2 Im w_y, w = u_s^dag K u_a.  A block of up to 64
    times takes one product of the stacked forms with the real and imaginary
    parts of u per occupied sector, and one of the cross blocks.  The grid
    must be one-dimensional with times >= 0 (see ``core.time_grid``);
    ``NumericsError`` when the windows exceed ``SPECTRAL_MAX_DIM``.
    """
    S = state0.spin_S
    sectors = dicke.TatPropagator(S, omega_twist)._project(state0.amplitudes)
    if sectors is None:
        raise NumericsError(
            f"the state's energy windows keep more than {dicke.SPECTRAL_MAX_DIM} eigenvectors")
    sizes = [vecs.shape[0] for _, vecs, _ in sectors]
    occupied, images = [], []
    for k, (vals, vecs, coeffs) in enumerate(sectors):
        if not vals.size:
            continue
        parts = [np.zeros((size, vals.size)) for size in sizes]
        parts[k] = vecs
        ladder = dicke._sector_join(*parts)  # the kept eigenvectors on the ladder
        m, sp, sm = dicke._ladder_shifts(ladder, S)
        sz, sy, sx = m * ladder, (sm - sp) / 2.0, (sp + sm) / 2.0  # Sy L = (S+ - S-) L / 2i = i Y
        occupied.append((vals, coeffs,
                         np.concatenate((ladder.T @ sx, sz.T @ sz, sy.T @ sy, sz.T @ sy))))
        images.append((ladder, sz, sy))
    cross = None
    if len(images) == 2:  # Sz and Sy link the two sectors
        (ladder, _, _), (_, sz, sy) = images
        cross = np.concatenate((ladder.T @ sz, ladder.T @ sy))
    norm = sum(float(np.sum(np.abs(coeffs) ** 2)) for _, coeffs, _ in occupied)

    def moments_at(times):
        times = core.time_grid(times)
        dicke._drift_gated(norm)
        for lo in range(0, times.size, dicke._GRID_BLOCK):
            t = times[lo:lo + dicke._GRID_BLOCK]
            quad, amps = np.zeros((4, t.size)), []
            for vals, coeffs, forms in occupied:
                u = coeffs[:, None] * np.exp(-1j * np.outer(vals, t))
                a, b = u.real, u.imag
                products = forms @ np.concatenate((a, b), axis=1)  # F a and F b of each form F
                fa, fb = np.split(products.reshape(4, -1, 2 * t.size), 2, axis=2)
                quad[:3] += np.sum(a * fa[:3] + b * fb[:3], axis=1)
                quad[3] += np.sum(b * fa[3] - a * fb[3], axis=0)  # Re <Sz psi| Sy psi>
                amps.append(u)
            quad /= norm
            mean_z, mean_y = np.zeros(t.size), np.zeros(t.size)
            if cross is not None:
                ka = dicke._real_product(cross, amps[1]).reshape(2, -1, t.size)
                w = np.sum(amps[0].conj() * ka, axis=1) / norm
                mean_z, mean_y = 2.0 * w[0].real, -2.0 * w[1].imag
            for k in range(t.size):
                mx, my, mz = float(quad[0, k]), float(mean_y[k]), float(mean_z[k])
                yield analytic.SpinMoments(spin_S=S, mean_x=mx, mean_y=my, mean_z=mz,
                                           var_z=float(quad[1, k]) - mz * mz,
                                           var_y=float(quad[2, k]) - my * my,
                                           cross_zy=2.0 * float(quad[3, k]) - 2.0 * mz * my)
    return moments_at
