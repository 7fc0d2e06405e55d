"""Seeded workload definitions: each workload is a list of CLI operations.

Seed 0 gives the pinned configs below.  Any other seed jitters the atom
number N by up to 1 % and eta, Delta and the time-grid end points by up to
3 %.  N gets the narrower range because Dicke-ladder cost grows as N^2, so
a wider jitter would show up as timing spread between seeds rather than as
a change of the program.  The oracle's N in {4, ..., 12} is too small to
jitter by a few percent and stays fixed; its detuning ratios are jittered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The fig3a working point: N=1e4, eta=10, kappa/2pi=100 kHz,
# Gamma/2pi=7 mHz, Delta/2pi=11.2 MHz.
FIG3A = {"n_atoms": 10_000, "eta": 10.0, "kappa_hz": 1e5, "gamma_hz": 7e-3,
         "delta_hz": 11.2e6}

ORACLE_ATOMS = (4, 6, 8, 10, 12)
# Cases with delta_over_collective <= 40, and N=4 at 50, crash with a
# TypeError in oracle.verification_report (ROADMAP item 1); the frontier
# lies between 50 and 52.  The sweep keeps every ratio at 60 or above, so
# that no operation fails at any seed, jitter included.
ORACLE_DETUNING_RATIOS = (60, 75, 100, 150, 200, 300)


@dataclass(frozen=True)
class Operation:
    """One ``vacuumsq <command> --config <name>.json`` call of a pass."""

    name: str
    command: str
    config: dict


class _Jitter:
    """Deterministic multiplicative jitter; the identity at seed 0."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._active = seed != 0

    def scale(self, value: float, share: float = 0.03) -> float:
        if not self._active:
            return value
        return value * (1.0 + share * (2.0 * self._rng.random() - 1.0))

    def atoms(self, n: int) -> int:
        return int(round(self.scale(n, 0.01)))

    def widen(self, n: int, direction: int) -> int:
        """Move a scan end point outward by 1 atom up to 1 %."""
        if not self._active:
            return n
        return n + direction * max(1, int(round(0.01 * n * self._rng.random())))


def _system(jit: _Jitter, **overrides) -> dict:
    system = dict(FIG3A, **overrides)
    system["n_atoms"] = jit.atoms(system["n_atoms"])
    system["eta"] = jit.scale(system["eta"])
    system["delta_hz"] = jit.scale(system["delta_hz"])
    return system


def _log_grid(jit: _Jitter, start: float, stop: float, points: int) -> dict:
    return {"start": jit.scale(start), "stop": jit.scale(stop), "points": points,
            "spacing": "log"}


def _op(name: str, command: str, body: dict) -> Operation:
    config = {"schema_version": 1, **body,
              "output": {"csv": f"{name}.csv", "summary": f"{name}.json"}}
    return Operation(name=name, command=command, config=config)


def _oat_fig3a(jit: _Jitter) -> list[Operation]:
    # The scalar analytic objective inside the nested (t, Delta) optimizer
    # and the scaling scan do almost all the work; dicke and oracle idle.
    # The 1000-row evolve is the only sizeable CSV formatting.
    # The scan must span two decades of N*eta: one eta for all points, and
    # end points that only move outward.
    eta = jit.scale(10.0)
    scaling_points = [[jit.widen(1_000, -1), eta], [jit.atoms(10_000), eta],
                      [jit.widen(100_000, +1), eta]]
    return [
        _op("optimize-fig3a", "optimize",
            {"system": _system(jit), "optimize": {"scan_detuning": True}}),
        _op("scaling-fig3a", "scaling",
            {"system": _system(jit), "scaling": {"points": scaling_points}}),
        _op("evolve-fig3a", "evolve",
            {"system": _system(jit), "time_grid": _log_grid(jit, 1e-4, 10.0, 1000)}),
    ]


def _tat_ladder(jit: _Jitter) -> list[Operation]:
    # Dicke-ladder propagation is over 90 % of the time; the optimizer runs
    # with expensive evaluations, so adding evaluations shows here.
    return [
        _op("evolve-tat", "evolve",
            {"protocol": "tat", "system": _system(jit, n_atoms=2_000),
             "time_grid": _log_grid(jit, 1e-4, 1.0, 100)}),
        _op("optimize-tat", "optimize",
            {"protocol": "tat", "system": _system(jit, n_atoms=1_000)}),
    ]


def _tier_crosscheck(jit: _Jitter) -> list[Operation]:
    # Dicke OAT without eigendecomposition (phase step plus moments per
    # point, all 200 states kept) and the only Tavis-Cummings oracle sweep.
    ops = [_op("evolve-dicke", "evolve",
               {"tier": "dicke", "system": _system(jit, n_atoms=100_000),
                "time_grid": _log_grid(jit, 1e-4, 10.0, 200)})]
    # Lossless oracle: g follows from the fig3a eta (g = sqrt(eta Gamma kappa)/2),
    # Delta is then set by delta_over_collective.
    eta = jit.scale(FIG3A["eta"])
    g_hz = math.sqrt(eta * FIG3A["gamma_hz"] * FIG3A["kappa_hz"]) / 2.0
    for n in ORACLE_ATOMS:
        for ratio in ORACLE_DETUNING_RATIOS:
            ops.append(_op(f"oracle-n{n}-r{ratio}", "oracle", {
                "system": {"n_atoms": n, "g_hz": g_hz, "kappa_hz": 0.0, "gamma_hz": 0.0,
                           "delta_hz": FIG3A["delta_hz"]},
                "oracle": {"photon_cutoff": 2, "delta_over_collective": jit.scale(ratio)},
            }))
    return ops


_BUILDERS = {"oat-fig3a": _oat_fig3a, "tat-ladder": _tat_ladder,
             "tier-crosscheck": _tier_crosscheck}
NAMES = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass of ``workload`` at ``seed``."""
    return _BUILDERS[workload](_Jitter(seed))
