"""Batch front-end: JSON run configurations in, CSV/JSON artifacts out.

Commands (``vacuumsq <command> --config <path>``):

* ``evolve``      squeezing trace over a time grid -> CSV + JSON summary
* ``optimize``    optimal time (optionally with the detuning) -> JSON
* ``scaling``     optimum-vs-N*eta table -> CSV + JSON
* ``oracle``      light-shift table and dynamics discrepancy -> CSV + JSON
* ``feasibility`` robustness arithmetic -> JSON
* ``validate``    parse + physics checks only, prints derived parameters

Each command refuses the top-level config keys it does not read.
Exit codes: 0 ok, 2 config error, 3 physics validation, 4 numerical gate,
5 I/O.  Errors additionally emit one machine-readable JSON line on stderr.
Outputs are deterministic for a fixed config (full round-trip float
precision) and written atomically (temp file + rename).  CSV tables are
column-major: a command hands over one sequence per column, and each float
is written as its ``repr``.

At module level this imports only ``core`` and the standard library, and
each command imports the tier it runs once its config has parsed:
``validate`` and config errors load no numpy, the analytic tier (``evolve``
and ``optimize`` at tier analytic, ``scaling`` of twisting,
``feasibility``) loads no scipy, and the Dicke tier and the oracle load
scipy on first use.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
import tempfile

from .core import (ConfigError, FeasibilityParams, NoiseModel, NumericsError, PhysicsError,
                   SystemParams, TWO_PI, T_BOTTOM, angular_to_hz, derive_params, resolve_tier,
                   valid_t_max)
from . import __version__

SCHEMA_VERSION = 1
OUTDIR_ENV = "VACUUMSQ_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4
EXIT_IO = 5

# --------------------------------------------------------------------------
# config parsing

_KNOWN_SYSTEM = {"n_atoms", "g_hz", "eta", "kappa_hz", "gamma_hz", "delta_hz", "omega0_hz"}
_KNOWN_NOISE = {"free_space", "cavity_leak", "detector_efficiency_q"}
_KNOWN_GRID = {"start", "stop", "points", "spacing"}
_KNOWN_OPTIMIZE = {"scan_detuning", "t_max_s", "delta_bracket_hz"}
_KNOWN_SCALING = {"points", "q", "protocol", "noiseless"}
_KNOWN_ORACLE = {"photon_cutoff", "delta_over_collective"}
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
    """``value`` if it is a JSON number a float can hold (booleans excluded), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{section}.{key} is too large for a float") from None
    return value


def _integer(section, key, value) -> int:
    """``value`` as an int if it is an integral JSON number, else ConfigError."""
    if not float(_number(section, key, value)).is_integer():
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(value)


def _flag(section, key, value) -> bool:
    """``value`` if it is a JSON boolean, else ConfigError (no truthiness of strings)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be true or false, got {value!r}")
    return value


def _pair(section, key, value) -> tuple:
    """A two-element list of numbers, as a tuple."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{section}.{key} must be a list of two numbers, got {value!r}")
    return tuple(_number(section, key, v) for v in value)


def load_config(path, command: str) -> dict:
    """The parsed config at ``path``, refusing top-level keys ``command`` does not read."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require_keys(f"the {command} config", cfg,
                  {"schema_version", "command", "system", "output"} | _COMMAND_KEYS[command],
                  required=("schema_version", "system"))
    if _integer("config", "schema_version", cfg["schema_version"]) != SCHEMA_VERSION:
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
        _integer("system", "n_atoms", num["n_atoms"]), kappa_hz=num["kappa_hz"],
        gamma_hz=num["gamma_hz"], delta_hz=num["delta_hz"], g_hz=num.get("g_hz"),
        eta=num.get("eta"), omega0_hz=num.get("omega0_hz"))


def _build_noise(cfg) -> NoiseModel:
    sec = cfg.get("noise", {})
    _require_keys("noise", sec, _KNOWN_NOISE)
    q = _number("noise", "detector_efficiency_q", sec.get("detector_efficiency_q", 0.0))
    return NoiseModel(include_free_space=_flag("noise", "free_space", sec.get("free_space", True)),
                      include_cavity_leak=_flag("noise", "cavity_leak",
                                                sec.get("cavity_leak", True)),
                      detector_efficiency_q=float(q))


def _build_time_grid(cfg) -> tuple[float, float, int, str]:
    """(start, stop, points, spacing) of the time_grid section, checked."""
    sec = cfg.get("time_grid")
    if sec is None:
        raise ConfigError("this command needs a time_grid section")
    _require_keys("time_grid", sec, _KNOWN_GRID, required=("start", "stop", "points"))
    start, stop = (float(_number("time_grid", k, sec[k])) for k in ("start", "stop"))
    points = _integer("time_grid", "points", sec["points"])
    spacing = sec.get("spacing", "linear")
    if points < 2:
        raise ConfigError("time_grid.points must be >= 2")
    if not (math.isfinite(stop) and stop > start >= 0):
        raise ConfigError("time_grid requires finite stop > start >= 0")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"unknown time_grid.spacing {spacing!r}")
    if spacing == "log" and start <= 0:
        raise ConfigError("log spacing requires start > 0")
    return start, stop, points, spacing


def _build_optimize(cfg) -> tuple[bool, float | None, tuple | None]:
    """(scan_detuning, t_max in s, Delta bracket in rad/s) of the optimize section."""
    sec = cfg.get("optimize", {})
    _require_keys("optimize", sec, _KNOWN_OPTIMIZE)
    t_max = sec.get("t_max_s")
    if t_max is not None:
        _number("optimize", "t_max_s", t_max)
        if not valid_t_max(t_max):
            raise ConfigError(f"optimize.t_max_s must be finite with t_max_s * "
                              f"{T_BOTTOM!r} a normal float, got {t_max!r}")
    bracket = sec.get("delta_bracket_hz")
    if bracket is not None:
        lo, hi = _pair("optimize", "delta_bracket_hz", bracket)
        if not (math.isfinite(hi) and 0 < lo < hi):
            raise ConfigError("optimize.delta_bracket_hz must be finite [lo, hi] "
                              f"with 0 < lo < hi, got {bracket!r}")
        bracket = (TWO_PI * lo, TWO_PI * hi)
    scan_detuning = _flag("optimize", "scan_detuning", sec.get("scan_detuning", False))
    if bracket is not None and not scan_detuning:
        raise ConfigError("optimize.delta_bracket_hz needs \"scan_detuning\": true")
    return scan_detuning, t_max, bracket


def _build_scaling(cfg) -> tuple[list, str, NoiseModel]:
    """(points, protocol, noise model) of the scaling section."""
    sec = cfg.get("scaling")
    if sec is None:
        raise ConfigError("scaling command needs a scaling section")
    _require_keys("scaling", sec, _KNOWN_SCALING, required=("points",))
    if not isinstance(sec["points"], list):
        raise ConfigError("scaling.points must be a list of [n_atoms, eta] pairs")
    points = [(_integer("scaling", f"points[{i}][0]", n), eta) for i, (n, eta)
              in enumerate(_pair("scaling", "points", point) for point in sec["points"])]
    _, protocol = resolve_tier("auto", sec.get("protocol", "oat"))
    q = float(_number("scaling", "q", sec.get("q", 0.0)))
    noiseless = _flag("scaling", "noiseless", sec.get("noiseless", False))
    if noiseless and "q" in sec:
        raise ConfigError("scaling.q sets the cavity leak, which \"noiseless\": true turns off")
    return points, protocol, NoiseModel.none() if noiseless else NoiseModel(detector_efficiency_q=q)


def _build_oracle(cfg, params: SystemParams) -> tuple[SystemParams, int]:
    """The oracle's system (its detuning set by delta_over_collective) and photon cutoff."""
    if cfg.get("protocol", "oat") != "oat":
        raise ConfigError(f"the oracle runs one-axis twisting only, got protocol "
                          f"{cfg['protocol']!r}")
    sec = cfg.get("oracle", {})
    _require_keys("oracle", sec, _KNOWN_ORACLE)
    cutoff = _integer("oracle", "photon_cutoff", sec.get("photon_cutoff", 2))
    factor = sec.get("delta_over_collective")
    if factor is not None:
        # Convenience: place the detuning at a multiple of g*sqrt(N).
        delta = float(_number("oracle", "delta_over_collective", factor)) \
            * params.collective_coupling
        params = SystemParams(n_atoms=params.n_atoms, coupling_g=params.coupling_g,
                              kappa=params.kappa, gamma=params.gamma, delta=delta,
                              omega0=params.omega0)
    return params, cutoff


def _build_feasibility(cfg) -> FeasibilityParams:
    sec = cfg.get("feasibility")
    if sec is None:
        raise ConfigError("feasibility command needs a feasibility section")
    _require_keys("feasibility", sec, _KNOWN_FEAS, required=tuple(_KNOWN_FEAS))
    return FeasibilityParams.from_frequencies(
        **{k: _number("feasibility", k, v) for k, v in sec.items()})


def _build_output(cfg) -> dict:
    """The output section: file names that override a command's defaults."""
    sec = cfg.get("output", {})
    _require_keys("output", sec, _KNOWN_OUTPUT)
    for key, name in sec.items():
        if not (isinstance(name, str) and name):
            raise ConfigError(f"output.{key} must be a non-empty file name, got {name!r}")
    return sec


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
    if isinstance(value, numbers.Integral):  # np.integer included
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


def write_csv(path, table):
    """Write ``table``, a mapping of column name to the column's values, as CSV.

    The table is column-major: each column is formatted on its own, a float
    array as the ``repr`` of each element and any other sequence cell by
    cell, and the rows are joined from the formatted columns.
    """
    cells = [map(repr, col.tolist())
             if getattr(getattr(col, "dtype", None), "kind", None) == "f"
             else map(_format_cell, col) for col in table.values()]
    lines = [",".join(table), *map(",".join, zip(*cells, strict=True))]
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
    """Write a command's CSV (``table``, as :func:`write_csv` takes it) and summary JSON.

    The summary is ``body`` inside the shared envelope: schema and package
    version, command, resolved config, the derived parameters (unless
    ``derived`` is False) and, next to a CSV, its file name under
    ``artifacts``.  Returns the written paths, CSV first.
    """
    output = _build_output(cfg)
    csv_name, summary_name = _OUTPUT_NAMES[command]
    summary = {"schema_version": SCHEMA_VERSION, "command": command,
               "package_version": __version__,
               "resolved_config": _resolved_config(cfg, command, params)}
    if derived:
        summary["derived"] = _derived_block(params)
    paths = []
    if table is not None:
        paths.append(os.path.join(outdir, output.get("csv", csv_name)))
        write_csv(paths[0], table)
        summary["artifacts"] = {"csv": os.path.basename(paths[0])}
    paths.append(os.path.join(outdir, output.get("summary", summary_name)))
    write_json(paths[-1], {**summary, **body})
    return paths


# --------------------------------------------------------------------------
# commands

def _trace_table(trace):
    from . import analytic
    xi_db = analytic.to_db(trace.xi_total)
    return {"t_seconds": trace.times, "xi_unitary": trace.xi_unitary,
            "xi_total": trace.xi_total, "xi_db": xi_db, "mean_x": trace.mean_x,
            "var_min": trace.var_min, "angle_rad": trace.angle,
            "model_tier": [trace.model_tier] * len(trace.times),
            "xi_db_3dp": [f"{x:.3f}" for x in xi_db.tolist()]}


def cmd_evolve(cfg, outdir):
    params = _build_system(cfg)
    noise = _build_noise(cfg)
    start, stop, points, spacing = _build_time_grid(cfg)
    tier, protocol = resolve_tier(cfg.get("tier", "auto"), cfg.get("protocol", "oat"))
    import numpy as np
    from . import analytic
    times = (np.geomspace if spacing == "log" else np.linspace)(start, stop, points)
    d = derive_params(params)
    if tier == "analytic":
        trace = analytic.squeezing_trace(d, times, noise)
    else:
        from . import dicke
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
    }, table=_trace_table(trace))


def _bounds_block(params, noise):
    from . import analytic
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
    from . import optimize
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
    points, protocol, noise = _build_scaling(cfg)
    from . import optimize
    scan = optimize.scaling_scan(points, protocol=protocol,
                                 kappa=params.kappa, gamma=params.gamma, noise=noise)
    table = {c: [getattr(p, c) for p in scan.points]
             for c in ("n_atoms", "eta", "n_eta", "xi_min", "xi_min_db", "floor", "t_opt")}
    table["delta_opt_hz"] = ["" if p.delta_opt is None else angular_to_hz(p.delta_opt)
                             for p in scan.points]
    return _write_artifacts(cfg, "scaling", params, outdir, {
        "fitted_loglog_slope": scan.slope,
        "protocol": scan.protocol,
        "points": scan.rows(),
    }, table=table, derived=False)


def cmd_oracle(cfg, outdir):
    params, cutoff = _build_oracle(cfg, _build_system(cfg))
    from . import oracle
    report = oracle.verification_report(oracle.TCConfig(params=params, photon_cutoff=cutoff))
    shifts = report["light_shifts"]
    table = {c: [row[c] for row in shifts]
             for c in ("m", "exact_shift", "perturbative_shift", "rel_error")}
    return _write_artifacts(cfg, "oracle", params, outdir, {"report": report}, table=table)


def cmd_feasibility(cfg, outdir):
    params = _build_system(cfg)
    feas = _build_feasibility(cfg)
    from . import optimize
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
    if "scaling" in cfg:
        _build_scaling(cfg)
    if "oracle" in cfg:
        _build_oracle(cfg, params)
    if "feasibility" in cfg:
        _build_feasibility(cfg)
    _build_output(cfg)
    diagnostics = {
        "schema_version": SCHEMA_VERSION,
        "valid": True,
        "derived": _derived_block(params),
        "resolved_config": _resolved_config(cfg, cfg.get("command", "validate"), params),
    }
    print(json.dumps(diagnostics, indent=2, sort_keys=True))
    return []


# The top-level config keys each command reads besides schema_version,
# command, system and output; validate checks every one of them.
_COMMAND_KEYS = {
    "evolve": {"tier", "protocol", "noise", "time_grid"},
    "optimize": {"tier", "protocol", "noise", "optimize"},
    "scaling": {"scaling"},
    "oracle": {"protocol", "oracle"},
    "feasibility": {"feasibility"},
}
_COMMAND_KEYS["validate"] = set().union(*_COMMAND_KEYS.values())

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


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared after it."""
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
        cfg = load_config(args.config, args.command)
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
