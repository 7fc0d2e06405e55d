"""Batch front-end: JSON run configurations in, CSV/JSON artifacts out.

Commands (``vacuumsq <command> --config <path>``):

* ``evolve``      squeezing trace over a time grid -> CSV + JSON summary
* ``optimize``    optimal time (optionally nested detuning) -> JSON
* ``scaling``     optimum-vs-N*eta table -> CSV + JSON
* ``oracle``      light-shift table and dynamics discrepancy -> CSV + JSON
* ``feasibility`` robustness arithmetic -> JSON
* ``validate``    parse + physics checks only, prints derived parameters

Exit codes: 0 ok, 2 config error, 3 physics validation, 4 numerical gate,
5 I/O.  Errors additionally emit one machine-readable JSON line on stderr.
Outputs are deterministic for a fixed config (full round-trip float
precision) and written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .core import (ConfigError, FeasibilityParams, NumericsError, PhysicsError,
                   SystemParams, TWO_PI, angular_to_hz, derive_params, resolve_tier)
from .analytic import NoiseModel
from . import __version__, analytic, dicke, optimize, oracle

SCHEMA_VERSION = 1
OUTDIR_ENV = "VACUUMSQ_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4
EXIT_IO = 5

CSV_COLUMNS = ["t_seconds", "xi_unitary", "xi_total", "xi_db", "mean_x",
               "var_min", "angle_rad", "model_tier", "xi_db_3dp"]


# --------------------------------------------------------------------------
# config parsing

_KNOWN_TOP = {"schema_version", "command", "system", "protocol", "tier", "noise",
              "time_grid", "optimize", "scaling", "oracle", "feasibility", "output"}
_KNOWN_SYSTEM = {"n_atoms", "g_hz", "eta", "kappa_hz", "gamma_hz", "delta_hz", "omega0_hz"}
_KNOWN_NOISE = {"free_space", "cavity_leak", "detector_efficiency_q"}
_KNOWN_GRID = {"start", "stop", "points", "spacing"}
_KNOWN_OPTIMIZE = {"scan_detuning", "t_max_s", "delta_bracket_hz"}
_KNOWN_SCALING = {"points", "q", "protocol", "noiseless"}
_KNOWN_ORACLE = {"photon_cutoff", "delta_over_collective", "n_times"}
_KNOWN_FEAS = {"fsr_hz", "fsr_jitter_hz", "noise_bandwidth_hz", "squeeze_time_s"}
_KNOWN_OUTPUT = {"csv", "summary"}


def _require_keys(section, mapping, known, required=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be an object")
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ConfigError(f"missing keys in {section}: {missing}")


def _number(section, key, value):
    """``value`` if it is a JSON number (booleans excluded), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    return value


def _pair(section, key, value) -> tuple:
    """A two-element list of numbers, as a tuple."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{section}.{key} must be a list of two numbers, got {value!r}")
    return tuple(_number(section, key, v) for v in value)


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require_keys("config", cfg, _KNOWN_TOP, required=("schema_version", "system"))
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r} "
                          f"(this build reads {SCHEMA_VERSION})")
    return cfg


def _build_system(cfg) -> SystemParams:
    sec = cfg["system"]
    _require_keys("system", sec, _KNOWN_SYSTEM)
    num = {k: _number("system", k, v) for k, v in sec.items() if v is not None}
    _require_keys("system", num, _KNOWN_SYSTEM,
                  required=("n_atoms", "kappa_hz", "gamma_hz", "delta_hz"))
    return SystemParams.from_frequencies(
        num["n_atoms"], kappa_hz=num["kappa_hz"], gamma_hz=num["gamma_hz"],
        delta_hz=num["delta_hz"], g_hz=num.get("g_hz"), eta=num.get("eta"),
        omega0_hz=num.get("omega0_hz"))


def _build_noise(cfg) -> NoiseModel:
    sec = cfg.get("noise", {})
    _require_keys("noise", sec, _KNOWN_NOISE)
    q = _number("noise", "detector_efficiency_q", sec.get("detector_efficiency_q", 0.0))
    return NoiseModel(include_free_space=bool(sec.get("free_space", True)),
                      include_cavity_leak=bool(sec.get("cavity_leak", True)),
                      detector_efficiency_q=float(q))


def _build_time_grid(cfg) -> np.ndarray:
    sec = cfg.get("time_grid")
    if sec is None:
        raise ConfigError("this command needs a time_grid section")
    _require_keys("time_grid", sec, _KNOWN_GRID, required=("start", "stop", "points"))
    start, stop, points = (_number("time_grid", k, sec[k]) for k in ("start", "stop", "points"))
    start, stop, points = float(start), float(stop), int(points)
    spacing = sec.get("spacing", "linear")
    if points < 2:
        raise ConfigError("time_grid.points must be >= 2")
    if not (math.isfinite(stop) and stop > start >= 0):
        raise ConfigError("time_grid requires finite stop > start >= 0")
    if spacing == "linear":
        return np.linspace(start, stop, points)
    if spacing == "log":
        if start <= 0:
            raise ConfigError("log spacing requires start > 0")
        return np.geomspace(start, stop, points)
    raise ConfigError(f"unknown time_grid.spacing {spacing!r}")


def _build_optimize(cfg) -> tuple[bool, float | None, tuple | None]:
    """(scan_detuning, t_max in s, Delta bracket in rad/s) of the optimize section."""
    sec = cfg.get("optimize", {})
    _require_keys("optimize", sec, _KNOWN_OPTIMIZE)
    t_max = sec.get("t_max_s")
    if t_max is not None:
        _number("optimize", "t_max_s", t_max)
        if not (math.isfinite(t_max) and t_max > 0):
            raise ConfigError(f"optimize.t_max_s must be finite and > 0, got {t_max!r}")
    bracket = sec.get("delta_bracket_hz")
    if bracket is not None:
        lo, hi = _pair("optimize", "delta_bracket_hz", bracket)
        if not (math.isfinite(hi) and 0 < lo < hi):
            raise ConfigError("optimize.delta_bracket_hz must be finite [lo, hi] "
                              f"with 0 < lo < hi, got {bracket!r}")
        bracket = (TWO_PI * lo, TWO_PI * hi)
    return bool(sec.get("scan_detuning", False)), t_max, bracket


def _resolved_config(cfg, command, params: SystemParams) -> dict:
    """Echo of the config with derived g/eta both filled (round-trip safe)."""
    d = derive_params(params)
    out = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    out["schema_version"] = SCHEMA_VERSION
    out["command"] = command
    out["system"]["g_hz"] = angular_to_hz(params.coupling_g)
    if math.isfinite(d.eta):
        out["system"]["eta"] = d.eta
    return out


def _derived_block(params: SystemParams) -> dict:
    d = derive_params(params)
    return {
        "spin_S": d.spin_S,
        "eta": d.eta if math.isfinite(d.eta) else None,
        "g_hz": angular_to_hz(params.coupling_g),
        "omega_twist_rad_s": d.omega_twist,
        "omega_twist_hz": angular_to_hz(d.omega_twist),
        "collective_coupling_hz": angular_to_hz(params.collective_coupling),
        "regime_ok": params.regime_ok,
    }


# --------------------------------------------------------------------------
# deterministic artifact writing

def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".vacuumsq-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Default (csv, summary) file names per command; cfg["output"] overrides.
_OUTPUT_NAMES = {
    "evolve": ("evolve.csv", "evolve_summary.json"),
    "optimize": (None, "optimize_summary.json"),
    "scaling": ("scaling.csv", "scaling_summary.json"),
    "oracle": ("oracle_shifts.csv", "oracle_summary.json"),
    "feasibility": (None, "feasibility.json"),
}


def _write_artifacts(cfg, command, params, outdir, body, table=None, derived=True):
    """Write a command's CSV (``table`` = (columns, rows)) and summary JSON.

    The summary is ``body`` inside the shared envelope: schema and package
    version, command, resolved config, the derived parameters (unless
    ``derived`` is False) and, next to a CSV, its file name under
    ``artifacts``.  Returns the written paths, CSV first.
    """
    output = cfg.get("output", {})
    _require_keys("output", output, _KNOWN_OUTPUT)
    csv_name, summary_name = _OUTPUT_NAMES[command]
    summary = {"schema_version": SCHEMA_VERSION, "command": command,
               "package_version": __version__,
               "resolved_config": _resolved_config(cfg, command, params)}
    if derived:
        summary["derived"] = _derived_block(params)
    paths = []
    if table is not None:
        paths.append(os.path.join(outdir, output.get("csv", csv_name)))
        write_csv(paths[0], *table)
        summary["artifacts"] = {"csv": os.path.basename(paths[0])}
    paths.append(os.path.join(outdir, output.get("summary", summary_name)))
    write_json(paths[-1], {**summary, **body})
    return paths


# --------------------------------------------------------------------------
# commands

def _trace_rows(trace):
    rows = []
    for i, t in enumerate(trace.times):
        xi_db = float(analytic.to_db(trace.xi_total[i]))
        rows.append({
            "t_seconds": float(t),
            "xi_unitary": float(trace.xi_unitary[i]),
            "xi_total": float(trace.xi_total[i]),
            "xi_db": xi_db,
            "mean_x": float(trace.mean_x[i]),
            "var_min": float(trace.var_min[i]),
            "angle_rad": float(trace.angle[i]),
            "model_tier": trace.model_tier,
            "xi_db_3dp": f"{xi_db:.3f}",
        })
    return rows


def cmd_evolve(cfg, outdir):
    params = _build_system(cfg)
    noise = _build_noise(cfg)
    times = _build_time_grid(cfg)
    tier, protocol = resolve_tier(cfg.get("tier", "auto"), cfg.get("protocol", "oat"))
    d = derive_params(params)
    if tier == "analytic":
        trace = analytic.squeezing_trace(d, times, noise)
    else:
        trace = dicke.squeezing_trace(d, times, noise, protocol=protocol)
    i_min = int(np.argmin(trace.xi_total))
    return _write_artifacts(cfg, "evolve", params, outdir, {
        "model_tier": trace.model_tier,
        "protocol": trace.protocol,
        "grid_minimum": {
            "t_seconds": float(times[i_min]),
            "xi_total": float(trace.xi_total[i_min]),
            "xi_db": float(analytic.to_db(trace.xi_total[i_min])),
        },
        "bounds": _bounds_block(params, noise),
    }, table=(CSV_COLUMNS, _trace_rows(trace)))


def _bounds_block(params, noise):
    d = derive_params(params)
    if not math.isfinite(d.eta):
        return None
    q = noise.detector_efficiency_q
    bound = analytic.xi_bound(params.n_atoms, d.eta, q)
    floor = analytic.tat_xi_floor(params.n_atoms, d.eta, q)
    return {
        "twisting_bound": bound,
        "twisting_bound_db": float(analytic.to_db(bound)) if bound > 0 else None,
        "rotation_assisted_floor": floor,
        "rotation_assisted_floor_db": float(analytic.to_db(floor)) if floor > 0 else None,
    }


def cmd_optimize(cfg, outdir):
    params = _build_system(cfg)
    noise = _build_noise(cfg)
    tier, protocol = resolve_tier(cfg.get("tier", "auto"), cfg.get("protocol", "oat"))
    scan_detuning, t_max, bracket = _build_optimize(cfg)
    if scan_detuning:
        result = optimize.optimal_detuning(params.coupling_g, params.kappa, params.gamma,
                                           params.n_atoms, noise, tier=tier,
                                           protocol=protocol, bracket=bracket, t_max=t_max)
    else:
        result = optimize.optimal_time(derive_params(params), noise, tier=tier,
                                       protocol=protocol, t_max=t_max)
    return _write_artifacts(cfg, "optimize", params, outdir, {
        "result": {
            "t_opt_seconds": result.t_opt,
            "xi_min": result.xi_min,
            "xi_min_db": result.xi_min_db,
            "delta_opt_hz": None if result.delta_opt is None else angular_to_hz(result.delta_opt),
            "model_tier": result.model_tier,
            "protocol": result.protocol,
            "flags": list(result.flags),
            "rel_tol": result.rel_tol,
            "bracket_t_seconds": list(result.bracket_t),
            "bracket_delta_hz": None if result.bracket_delta is None
                                else [angular_to_hz(result.bracket_delta[0]),
                                      angular_to_hz(result.bracket_delta[1])],
        },
        "bounds": _bounds_block(params, noise),
    })


def cmd_scaling(cfg, outdir):
    params = _build_system(cfg)  # kappa/gamma anchor the scan
    sec = cfg.get("scaling")
    if sec is None:
        raise ConfigError("scaling command needs a scaling section")
    _require_keys("scaling", sec, _KNOWN_SCALING, required=("points",))
    if not isinstance(sec["points"], list):
        raise ConfigError("scaling.points must be a list of [n_atoms, eta] pairs")
    points = [_pair("scaling", "points", point) for point in sec["points"]]
    q = float(_number("scaling", "q", sec.get("q", 0.0)))
    noise = NoiseModel.none() if sec.get("noiseless", False) \
        else NoiseModel(detector_efficiency_q=q)
    scan = optimize.scaling_scan(points, q=q, protocol=sec.get("protocol", "oat"),
                                 kappa=params.kappa, gamma=params.gamma, noise=noise)
    columns = ["n_atoms", "eta", "n_eta", "xi_min", "xi_min_db", "floor",
               "t_opt", "delta_opt_hz"]
    rows = []
    for p in scan.points:
        rows.append({"n_atoms": p.n_atoms, "eta": p.eta, "n_eta": p.n_eta,
                     "xi_min": p.xi_min, "xi_min_db": p.xi_min_db, "floor": p.floor,
                     "t_opt": p.t_opt,
                     "delta_opt_hz": "" if p.delta_opt is None else repr(angular_to_hz(p.delta_opt))})
    return _write_artifacts(cfg, "scaling", params, outdir, {
        "fitted_loglog_slope": scan.slope,
        "protocol": scan.protocol,
        "points": scan.rows(),
    }, table=(columns, rows), derived=False)


def cmd_oracle(cfg, outdir):
    params = _build_system(cfg)
    sec = cfg.get("oracle", {})
    _require_keys("oracle", sec, _KNOWN_ORACLE)
    cutoff = int(_number("oracle", "photon_cutoff", sec.get("photon_cutoff", 2)))
    factor = sec.get("delta_over_collective")
    if factor is not None:
        # Convenience: place the detuning at a multiple of g*sqrt(N).
        delta = float(_number("oracle", "delta_over_collective", factor)) \
            * params.collective_coupling
        params = SystemParams(n_atoms=params.n_atoms, coupling_g=params.coupling_g,
                              kappa=params.kappa, gamma=params.gamma, delta=delta,
                              omega0=params.omega0)
    report = oracle.verification_report(oracle.TCConfig(params=params, photon_cutoff=cutoff))
    shift_columns = ["m", "exact_shift", "perturbative_shift", "rel_error"]
    return _write_artifacts(cfg, "oracle", params, outdir, {"report": report},
                            table=(shift_columns, report["light_shifts"]))


def cmd_feasibility(cfg, outdir):
    params = _build_system(cfg)
    sec = cfg.get("feasibility")
    if sec is None:
        raise ConfigError("feasibility command needs a feasibility section")
    _require_keys("feasibility", sec, _KNOWN_FEAS, required=tuple(_KNOWN_FEAS))
    feas = FeasibilityParams.from_frequencies(
        **{k: _number("feasibility", k, v) for k, v in sec.items()})
    report = optimize.feasibility_report(params, feas)
    return _write_artifacts(cfg, "feasibility", params, outdir, {
        "report": {
            "omega_twist_hz": report.omega_twist_hz,
            "squeeze_phase_rel_error": report.squeeze_phase_rel_error,
            "suppression_factor": report.suppression_factor,
            "clock_shift_during_squeeze_rad_s": report.clock_shift_during_squeeze,
            "fractional_accuracy": report.fractional_accuracy,
        },
    })


def cmd_validate(cfg, outdir):
    params = _build_system(cfg)
    _build_noise(cfg)
    resolve_tier(cfg.get("tier", "auto"), cfg.get("protocol", "oat"))
    if "time_grid" in cfg:
        _build_time_grid(cfg)
    if "optimize" in cfg:
        _build_optimize(cfg)
    diagnostics = {
        "schema_version": SCHEMA_VERSION,
        "valid": True,
        "derived": _derived_block(params),
        "resolved_config": _resolved_config(cfg, cfg.get("command", "validate"), params),
    }
    print(json.dumps(diagnostics, indent=2, sort_keys=True))
    return []


COMMANDS = {
    "evolve": cmd_evolve,
    "optimize": cmd_optimize,
    "scaling": cmd_scaling,
    "oracle": cmd_oracle,
    "feasibility": cmd_feasibility,
    "validate": cmd_validate,
}


# --------------------------------------------------------------------------
# entry point

def _error_line(exc, code):
    payload = {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}
    print("VACUUMSQ-ERROR " + json.dumps(payload, sort_keys=True), file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vacuumsq",
        description="Cavity-vacuum spin squeezing simulator and optimizer.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=None,
                         help=f"output directory (default: ${OUTDIR_ENV} or cwd)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = args.out or os.environ.get(OUTDIR_ENV) or os.getcwd()
    try:
        cfg = load_config(args.config)
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r} but {args.command!r} was invoked")
        artifacts = COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        _error_line(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except PhysicsError as exc:
        _error_line(exc, EXIT_PHYSICS)
        return EXIT_PHYSICS
    except NumericsError as exc:
        _error_line(exc, EXIT_NUMERICS)
        return EXIT_NUMERICS
    except OSError as exc:
        _error_line(exc, EXIT_IO)
        return EXIT_IO
    for path in artifacts:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
