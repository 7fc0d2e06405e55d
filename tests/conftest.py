import math

import numpy as np
import pytest

from vacuumsq import NoiseModel, PhysicsError, SystemParams, derive_params
from vacuumsq import analytic, dicke


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


MOMENT_FIELDS = ("mean_x", "mean_y", "mean_z", "var_z", "var_y", "cross_zy")


def stacked(records):
    """Per-state (or per-grid) SpinMoments joined into one grid record, in order."""
    return analytic.SpinMoments(
        spin_S=records[0].spin_S,
        **{key: np.concatenate([np.atleast_1d(getattr(r, key)) for r in records])
           for key in MOMENT_FIELDS})


def tat_ladder_moments(state0, omega_twist):
    """Moments of state0 under rotation-assisted twisting along a time grid, the reference kernel.

    Each state comes from the full reflection-sector solves of
    ``dicke.TatPropagator`` and its moments from one ``dicke.moments`` call
    per state: no energy window and no batched moments are involved.  The
    grid's moments are returned as one record.
    """
    prop = dicke.TatPropagator(state0.spin_S, omega_twist)
    return lambda times: stacked([dicke.moments(st) for st in prop.evolve_grid(state0, times)])
