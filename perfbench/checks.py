"""Output checks that do not use the code being measured.

Every reference value here comes from this file's own closed forms or from
``scipy.sparse.linalg.expm_multiply``; ``vacuumsq`` is never imported.
Inputs are taken from the generated configs, not from the program's echo
of them.  Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

TWO_PI = 2.0 * math.pi
MAX_EXPOSURE = 0.5  # the additive noise model's validity limit

# Relative tolerances, each set from the agreement measured at seed 0 with a
# wide margin.  Deep squeezing at N=1e5 costs digits in the Dicke moments
# (measured 2.7e-7), against 2.7e-9 at N=1e4.
CLOSED_FORM_RTOL = 1e-9    # program's analytic tier against this file's closed form
DICKE_OAT_RTOL = 2e-6      # Dicke OAT ladder against the closed form, N=1e5
TAT_RTOL = 1e-9            # spectral TAT propagation against expm_multiply
LIGHT_SHIFT_FACTOR = 1.5   # oracle rel_error <= factor * (g sqrt(N) / Delta)^2
SHIFT_RTOL = 1e-12         # perturbative light shift against -Omega (S+m)(S-m+1)
GRID_POINTS = (400, 2000)  # dense (Delta, t) reference grid of the fig3a optimum
SCALING_REL_TOL = 1e-3     # the optimizer's default; scaling rows do not report theirs


class Params:
    """Angular rates of one generated ``system`` config section."""

    def __init__(self, system: dict, n_atoms=None, eta=None, delta=None):
        self.n = int(n_atoms if n_atoms is not None else system["n_atoms"])
        self.S = self.n / 2.0
        self.kappa = TWO_PI * system["kappa_hz"]
        self.gamma = TWO_PI * system["gamma_hz"]
        if "g_hz" in system:
            self.g = TWO_PI * system["g_hz"]
        else:
            eta = system["eta"] if eta is None else eta
            self.g = math.sqrt(eta * self.gamma * self.kappa) / 2.0
        self.delta = TWO_PI * system["delta_hz"] if delta is None else delta

    @property
    def omega(self):
        return self.g ** 2 / self.delta


def _cos_pow(x, p: int):
    c = np.cos(x)
    with np.errstate(divide="ignore"):
        out = np.exp(p * np.log(np.abs(c)))
    return out * np.sign(c) if p % 2 else out


def oat_xi_unitary(S, omega, t):
    """Kitagawa-Ueda one-axis twisting: 1 - (S-1/2)/2 (sqrt(A^2+B^2) - A)."""
    x = omega * np.asarray(t, dtype=float)
    p = int(round(2 * S - 2))
    a = 1.0 - _cos_pow(2.0 * x, p)
    b = 4.0 * np.sin(x) * _cos_pow(x, p)
    return 1.0 - 0.5 * (S - 0.5) * b * b / (np.hypot(a, b) + a)


def noise(S, omega, delta, kappa, gamma, t):
    """(added xi, exposures valid) of cavity leak plus free-space decay."""
    t = np.asarray(t, dtype=float)
    p_leak = np.tanh(S * (omega / delta) * kappa * t)
    p_decay = -np.expm1(-gamma * t)
    added = (p_leak * (1.0 - p_leak) + p_decay * (1.0 - p_decay)) * 2.0
    return added, (p_leak <= MAX_EXPOSURE) & (p_decay <= MAX_EXPOSURE)


def oat_xi_total(p: Params, t, delta=None):
    delta = p.delta if delta is None else delta
    omega = p.g ** 2 / delta
    added, valid = noise(p.S, omega, delta, p.kappa, p.gamma, t)
    return oat_xi_unitary(p.S, omega, t) + added, valid


def grid_minimum(p: Params) -> float:
    """Smallest valid xi_total over the optimizer's default (Delta, t) bracket."""
    t_max = 10.0 / p.gamma
    times = np.geomspace(t_max * 1e-8, t_max, GRID_POINTS[1])
    best = math.inf
    for deltas in np.array_split(np.geomspace(p.kappa, 1e4 * p.kappa, GRID_POINTS[0]), 8):
        xi, valid = oat_xi_total(p, times[None, :], delta=deltas[:, None])
        best = min(best, float(np.min(np.where(valid, xi, np.inf))))
    return best


def css(n: int) -> np.ndarray:
    S = n / 2.0
    m = np.arange(n + 1) - S
    log_amp = 0.5 * (gammaln(n + 1) - gammaln(S + m + 1) - gammaln(S - m + 1)
                     - n * math.log(2.0))
    amps = np.exp(log_amp)
    return (amps / np.linalg.norm(amps)).astype(complex)


def tat_states(p: Params, times) -> list[np.ndarray]:
    """States exp(-i H t)|CSS> for H = Omega (S Sx + Sz^2), by expm_multiply."""
    S = p.S
    m = np.arange(p.n + 1) - S
    off = p.omega * S * 0.5 * np.sqrt((S - m[:-1]) * (S + m[:-1] + 1.0))
    h = diags([off, p.omega * m ** 2, off], [-1, 0, 1], format="csr")
    psi0 = css(p.n)
    return [expm_multiply(-1j * t * h, psi0) for t in times]


def ladder_xi(psi: np.ndarray, S: float) -> float:
    """Minimal variance transverse to a mean spin along x, over S/2."""
    m = np.arange(psi.size) - S
    up = np.sqrt((S - m[:-1]) * (S + m[:-1] + 1.0))
    sp = np.zeros_like(psi)
    sp[1:] = up * psi[:-1]
    sm = np.zeros_like(psi)
    sm[:-1] = up * psi[1:]
    sx, sy, sz = (sp + sm) / 2.0, (sp - sm) / 2j, m * psi
    mx, my, mz = (float(np.vdot(psi, v).real) for v in (sx, sy, sz))
    if math.hypot(my, mz) > 1e-9 * abs(mx):
        raise ValueError("mean spin left the x axis")
    vyy = float(np.vdot(sy, sy).real) - my * my
    vzz = float(np.vdot(sz, sz).real) - mz * mz
    vyz = float(np.vdot(sy, sz).real) - my * mz
    var = 0.5 * (vyy + vzz) - math.hypot(0.5 * (vyy - vzz), vyz)
    return var / (S / 2.0)


# --------------------------------------------------------------------------
# artifact access

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _max_rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


# --------------------------------------------------------------------------
# per-operation checks

def _check_oat_optimum(label, p: Params, xi_min, t_opt, delta_opt, rel_tol):
    xi_ref, valid = oat_xi_total(p, t_opt, delta=delta_opt)
    grid = grid_minimum(p)
    ok = bool(valid) and _rel(xi_min, float(xi_ref)) <= CLOSED_FORM_RTOL \
        and xi_min <= grid * (1.0 + rel_tol)
    return (f"{label}: optimum", ok,
            f"xi_min={xi_min:.6g} closed form there={float(xi_ref):.6g} "
            f"dense-grid minimum={grid:.6g} rel_tol={rel_tol}")


def _check_optimize_fig3a(op, outdir):
    result = _read_json(os.path.join(outdir, op["name"] + ".json"))["result"]
    p = Params(op["config"]["system"])
    checks = [(f"{op['name']}: no edge flags", not result["flags"], str(result["flags"]))]
    checks.append(_check_oat_optimum(op["name"], p, result["xi_min"], result["t_opt_seconds"],
                                     TWO_PI * result["delta_opt_hz"], result["rel_tol"]))
    return checks


def _check_scaling(op, outdir):
    summary = _read_json(os.path.join(outdir, op["name"] + ".json"))
    checks = []
    for (n, eta), row in zip(op["config"]["scaling"]["points"], summary["points"]):
        p = Params(op["config"]["system"], n_atoms=n, eta=eta)
        floor = 6.0 * (n * eta) ** (-1.0 / 3.0)
        checks.append((f"{op['name']}: N={n} floor", _rel(row["floor"], floor) <= SHIFT_RTOL,
                       f"{row['floor']!r} vs {floor!r}"))
        checks.append(_check_oat_optimum(f"{op['name']} N={n}", p, row["xi_min"], row["t_opt"],
                                         row["delta_opt"], SCALING_REL_TOL))
    ok = len(summary["points"]) == len(op["config"]["scaling"]["points"])
    return checks + [(f"{op['name']}: row count", ok, str(len(summary["points"])))]


def _evolve_rows(op, outdir):
    rows = _read_csv(os.path.join(outdir, op["name"] + ".csv"))
    grid = op["config"]["time_grid"]
    times = np.geomspace(grid["start"], grid["stop"], grid["points"])
    t = _column(rows, "t_seconds")
    ok = t.size == times.size and _max_rel(t, times) <= 1e-12
    return rows, t, (f"{op['name']}: time grid", ok, f"{t.size} rows")


def _check_evolve_closed_form(op, outdir, rtol):
    rows, t, grid_check = _evolve_rows(op, outdir)
    p = Params(op["config"]["system"])
    xi_u = oat_xi_unitary(p.S, p.omega, t)
    added, _ = noise(p.S, p.omega, p.delta, p.kappa, p.gamma, t)
    err_u = _max_rel(_column(rows, "xi_unitary"), xi_u)
    err_t = _max_rel(_column(rows, "xi_total"), xi_u + added)
    return [grid_check,
            (f"{op['name']}: xi against closed form", max(err_u, err_t) <= rtol,
             f"max rel error unitary={err_u:.2e} total={err_t:.2e} (tol {rtol:.0e})")]


def _check_evolve_tat(op, outdir):
    rows, t, grid_check = _evolve_rows(op, outdir)
    p = Params(op["config"]["system"])
    picks = [0, len(rows) // 3, 2 * len(rows) // 3, len(rows) - 1]
    ref = np.array([ladder_xi(psi, p.S) for psi in tat_states(p, t[picks])])
    added, _ = noise(p.S, p.omega, p.delta, p.kappa, p.gamma, t[picks])
    err_u = _max_rel(_column(rows, "xi_unitary")[picks], ref)
    err_t = _max_rel(_column(rows, "xi_total")[picks], ref + added)
    return [grid_check,
            (f"{op['name']}: xi against expm_multiply", max(err_u, err_t) <= TAT_RTOL,
             f"max rel error unitary={err_u:.2e} total={err_t:.2e} at {len(picks)} times "
             f"(tol {TAT_RTOL:.0e})")]


def _check_optimize_tat(op, outdir):
    result = _read_json(os.path.join(outdir, op["name"] + ".json"))["result"]
    p = Params(op["config"]["system"])
    t_opt, xi_min = result["t_opt_seconds"], result["xi_min"]
    # The optimum and two neighbours 5 % away, which must not be lower.
    times = np.array([t_opt, 0.95 * t_opt, 1.05 * t_opt])
    added, valid = noise(p.S, p.omega, p.delta, p.kappa, p.gamma, times)
    ref = np.array([ladder_xi(psi, p.S) for psi in tat_states(p, times)]) + added
    ok = (not result["flags"] and bool(valid[0]) and _rel(xi_min, ref[0]) <= TAT_RTOL
          and bool(np.all(ref[1:] >= xi_min)))
    return [(f"{op['name']}: optimum", ok,
             f"flags={result['flags']} xi_min={xi_min:.6g} reference={ref[0]:.6g} "
             f"neighbours={ref[1]:.6g},{ref[2]:.6g}")]


def _check_oracle(op, outdir):
    cfg = op["config"]
    ratio = cfg["oracle"]["delta_over_collective"]
    system = cfg["system"]
    g = TWO_PI * system["g_hz"]
    n = system["n_atoms"]
    p = Params(system, delta=ratio * g * math.sqrt(n))
    scale = ratio ** -2.0
    report = _read_json(os.path.join(outdir, op["name"] + ".json"))["report"]
    rows = _read_csv(os.path.join(outdir, op["name"] + ".csv"))
    m = _column(rows, "m")
    pert_ref = -p.omega * (p.S + m) * (p.S - m + 1)
    pert, exact = _column(rows, "perturbative_shift"), _column(rows, "exact_shift")
    rel_error = _column(rows, "rel_error")
    coupled = pert != 0.0  # m = -S has no shift; its rel_error is 0 by definition
    shift_ok = (m.size == n + 1 and np.allclose(pert, pert_ref, rtol=SHIFT_RTOL, atol=0.0)
                and np.allclose(rel_error[coupled],
                                np.abs(exact - pert)[coupled] / np.abs(pert[coupled]),
                                rtol=1e-9, atol=0.0))
    worst = float(np.max(rel_error))
    ok = (shift_ok and _rel(report["expected_relative_scale"], scale) <= 1e-9
          and worst <= LIGHT_SHIFT_FACTOR * scale)
    return [(f"{op['name']}: light shifts", ok,
             f"max rel_error={worst:.3e} expected scale={scale:.3e}")]


def check_operations(ops, records, outdir):
    """Checks of one pass's artifacts; a failed operation fails its check."""
    failed = {r["name"] for r in records if r["error"]}
    dispatch = {
        "optimize-fig3a": _check_optimize_fig3a,
        "scaling-fig3a": _check_scaling,
        "evolve-fig3a": lambda op, out: _check_evolve_closed_form(op, out, CLOSED_FORM_RTOL),
        "evolve-tat": _check_evolve_tat,
        "optimize-tat": _check_optimize_tat,
        "evolve-dicke": lambda op, out: _check_evolve_closed_form(op, out, DICKE_OAT_RTOL),
    }
    checks = []
    for op in ops:
        op = {**op, "config": _read_json(op["config"])}
        if op["name"] in failed:
            checks.append((f"{op['name']}: ran", False, "operation failed"))
            continue
        check = _check_oracle if op["command"] == "oracle" else dispatch[op["name"]]
        try:
            checks.extend(check(op, outdir))
        except Exception as exc:  # unreadable or malformed artifact
            checks.append((f"{op['name']}: artifacts", False, f"{type(exc).__name__}: {exc}"))
    return checks


def check_determinism(pass_dirs):
    """Every pass must write the same files with the same bytes."""
    first = pass_dirs[0]
    names = sorted(os.listdir(first))
    for other in pass_dirs[1:]:
        if sorted(os.listdir(other)) != names:
            return ("determinism", False, f"{other} holds other files than {first}")
        _, mismatch, errors = filecmp.cmpfiles(first, other, names, shallow=False)
        if mismatch or errors:
            return ("determinism", False, f"{other} differs in {sorted(mismatch + errors)}")
    return ("determinism", len(pass_dirs) >= 2,
            f"{len(pass_dirs)} passes, {len(names)} files each, byte-identical")
