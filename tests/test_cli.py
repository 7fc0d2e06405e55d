import copy
import json
import math
import os
import stat

import numpy as np
import pytest

from vacuumsq import analytic, cli

SYSTEM = {"n_atoms": 100, "eta": 10.0, "kappa_hz": 1e5, "gamma_hz": 7e-3,
          "delta_hz": 11.2e6}
GRID = {"start": 1e-3, "stop": 1.0, "points": 5, "spacing": "log"}
BASE = {
    "evolve": {"system": SYSTEM, "time_grid": GRID},
    "optimize": {"system": SYSTEM},
    "scaling": {"system": SYSTEM,
                "scaling": {"points": [[100, 1.0], [1_000, 1.0], [10_000, 1.0]]}},
    "validate": {"system": SYSTEM},
    "oracle": {"system": SYSTEM | {"n_atoms": 4}, "oracle": {"delta_over_collective": 60.0}},
    "feasibility": {"system": SYSTEM, "feasibility": {"fsr_hz": 1e10, "fsr_jitter_hz": 1e3,
                                                      "noise_bandwidth_hz": 1e4,
                                                      "squeeze_time_s": 1e-2}},
}


def config(command, **changes):
    """The base config of ``command`` with (section, key) -> value changes."""
    cfg = {"schema_version": cli.SCHEMA_VERSION, **copy.deepcopy(BASE[command])}
    for path, value in changes.items():
        section, _, key = path.rpartition("__")
        (cfg[section] if section else cfg)[key] = value
    return cfg


def run(tmp_path, command, cfg, out=None):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, "--config", str(path), "--out", str(out or tmp_path / "out")])


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("VACUUMSQ-ERROR ")]


MALFORMED = [
    pytest.param("optimize", {"protocol": "xyz"}, id="optimize-protocol"),
    pytest.param("optimize", {"tier": "bogus"}, id="optimize-tier"),
    pytest.param("optimize", {"tier": "analytic", "protocol": "tat"}, id="optimize-analytic-tat"),
    pytest.param("scaling", {"scaling__protocol": "xyz"}, id="scaling-protocol"),
    pytest.param("evolve", {"time_grid__points": "abc"}, id="evolve-points"),
    pytest.param("validate", {"system__n_atoms": "abc"}, id="validate-n_atoms"),
    pytest.param("validate", {"protocol": "xyz"}, id="validate-protocol"),
    pytest.param("scaling", {"scaling__points": [1, 2, 3]}, id="scaling-points"),
    pytest.param("optimize", {"optimize": {"scan_detuning": True, "delta_bracket_hz": [5]}},
                 id="optimize-bracket"),
    pytest.param("optimize", {"optimize": {"t_max_s": 0}}, id="optimize-t_max-zero"),
    pytest.param("optimize", {"optimize": {"t_max_s": -1}}, id="optimize-t_max-negative"),
    pytest.param("optimize", {"optimize": {"t_max_s": float("nan")}}, id="optimize-t_max-nan"),
    pytest.param("optimize", {"optimize": {"t_max_s": float("inf")}}, id="optimize-t_max-inf"),
    pytest.param("optimize", {"optimize": {"t_max_s": 1e-300}},
                 id="optimize-t_max-subnormal-bottom"),
    pytest.param("optimize", {"optimize": {"scan_detuning": True, "t_max_s": 2.2e-300}},
                 id="optimize-t_max-bottom-below-normal"),
    pytest.param("optimize", {"optimize": {"scan_detuning": True,
                                           "delta_bracket_hz": [1e6, 1e5]}},
                 id="optimize-bracket-reversed"),
    pytest.param("optimize", {"optimize": {"scan_detuning": True,
                                           "delta_bracket_hz": [0, 1e6]}},
                 id="optimize-bracket-zero"),
    pytest.param("validate", {"optimize": {"t_max_s": 0}}, id="validate-t_max-zero"),
    pytest.param("evolve", {"protocol": "tat", "time_grid__stop": float("inf")},
                 id="evolve-grid-infinite"),
    pytest.param("evolve", {"time_grid__stop": 10**400}, id="evolve-grid-stop-huge-int"),
    pytest.param("validate", {"system__delta_hz": 10**400}, id="validate-delta-huge-int"),
    pytest.param("scaling", {"noise": {"free_space": False, "cavity_leak": False}},
                 id="scaling-noise-section"),
    pytest.param("scaling", {"tier": "dicke"}, id="scaling-top-level-tier"),
    pytest.param("scaling", {"protocol": "tat"}, id="scaling-top-level-protocol"),
    pytest.param("oracle", {"protocol": "tat"}, id="oracle-protocol-tat"),
    pytest.param("evolve", {"noise": {"free_space": "false"}}, id="evolve-free_space-string"),
    pytest.param("evolve", {"noise": {"cavity_leak": 0}}, id="evolve-cavity_leak-int"),
    pytest.param("validate", {"noise": {"free_space": None}}, id="validate-free_space-null"),
    pytest.param("optimize", {"optimize": {"scan_detuning": "no"}},
                 id="optimize-scan_detuning-string"),
    pytest.param("validate", {"optimize": {"scan_detuning": 1}}, id="validate-scan_detuning-int"),
    pytest.param("scaling", {"scaling__noiseless": "true"}, id="scaling-noiseless-string"),
    pytest.param("evolve", {"time_grid__points": 2.7}, id="evolve-points-fractional"),
    pytest.param("evolve", {"time_grid__points": float("nan")}, id="evolve-points-nan"),
    pytest.param("oracle", {"oracle__photon_cutoff": 2.9}, id="oracle-cutoff-fractional"),
    pytest.param("oracle", {"oracle__photon_cutoff": True}, id="oracle-cutoff-bool"),
    pytest.param("oracle", {"oracle__n_times": 7}, id="oracle-n_times-unknown"),
    pytest.param("validate", {"system__n_atoms": 100.5}, id="validate-n_atoms-fractional"),
    pytest.param("evolve", {"system__n_atoms": 100.5}, id="evolve-n_atoms-fractional"),
    pytest.param("scaling", {"scaling__points": [[1000.7, 10.0], [10_000, 10.0],
                                                 [100_000, 10.0]]},
                 id="scaling-point-atoms-fractional"),
    pytest.param("evolve", {"output": {"csv": 5}}, id="evolve-output-csv-int"),
    pytest.param("optimize", {"output": {"summary": None}}, id="optimize-output-summary-null"),
    pytest.param("evolve", {"output": {"summary": ""}}, id="evolve-output-summary-empty"),
    pytest.param("validate", {"output": {"csv": ["a.csv"]}}, id="validate-output-csv-list"),
    pytest.param("oracle", {"tier": "dicke"}, id="oracle-tier"),
    pytest.param("oracle", {"noise": {"free_space": False}}, id="oracle-noise"),
    pytest.param("optimize", {"time_grid": GRID}, id="optimize-time_grid"),
    pytest.param("feasibility", {"noise": {"free_space": False}}, id="feasibility-noise"),
    pytest.param("optimize", {"optimize": {"delta_bracket_hz": [1e5, 1e7]}},
                 id="optimize-bracket-without-scan"),
    pytest.param("scaling", {"scaling__q": 0.5, "scaling__noiseless": True},
                 id="scaling-q-noiseless"),
    pytest.param("validate", {"scaling": {"points": [[100, -1], "x"], "step": 2}},
                 id="validate-scaling-section"),
    pytest.param("validate", {"scaling": BASE["scaling"]["scaling"] | {"protocol": "xyz"}},
                 id="validate-scaling-protocol"),
    pytest.param("validate", {"protocol": "tat", "oracle": {}}, id="validate-oracle-protocol-tat"),
    pytest.param("validate", {"feasibility": {"fsr_hz": 1e10}},
                 id="validate-feasibility-missing-keys"),
    pytest.param("validate", {"schema_version": True}, id="validate-schema_version-bool"),
    pytest.param("evolve", {"schema_version": True}, id="evolve-schema_version-bool"),
]


@pytest.mark.parametrize("command, changes", MALFORMED)
def test_malformed_config_exits_2(tmp_path, capsys, command, changes):
    code = run(tmp_path, command, config(command, **changes))
    assert code == cli.EXIT_CONFIG == 2
    lines = error_lines(capsys)
    assert len(lines) == 1
    payload = json.loads(lines[0].split(" ", 1)[1])
    assert payload["exit_code"] == 2
    assert payload["error"] == "ConfigError"


@pytest.mark.parametrize("command, changes", [
    ("evolve", {"tier": "analytic", "protocol": "oat", "noise": {}}),
    ("optimize", {"tier": "analytic", "protocol": "oat", "noise": {}, "optimize": {}}),
    ("scaling", {}),
    ("oracle", {"protocol": "oat"}),
    ("feasibility", {}),
    # the oracle section needs a system the oracle takes, at most 12 atoms
    ("validate", {"tier": "analytic", "protocol": "oat", "noise": {}, "time_grid": GRID,
                  "optimize": {}, "scaling": BASE["scaling"]["scaling"], "oracle": {},
                  "feasibility": BASE["feasibility"]["feasibility"], "system__n_atoms": 4}),
])
def test_each_command_accepts_the_keys_it_reads(tmp_path, command, changes):
    cfg = config(command, output={}, **changes) | {"command": command}
    assert run(tmp_path, command, cfg) == cli.EXIT_OK


def test_ok_exits_0_and_lists_artifacts(tmp_path, capsys):
    assert run(tmp_path, "evolve", config("evolve")) == cli.EXIT_OK == 0
    printed = capsys.readouterr().out.split()
    assert [p.rsplit("/", 1)[-1] for p in printed] == ["evolve.csv", "evolve_summary.json"]
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    assert set(summary) == {"schema_version", "command", "package_version",
                            "resolved_config", "derived", "model_tier", "protocol",
                            "grid_minimum", "bounds", "artifacts"}
    assert (summary["model_tier"], summary["protocol"]) == ("analytic", "oat")


def test_integral_float_count_reads_as_the_integer(tmp_path):
    assert run(tmp_path, "evolve", config("evolve"), out=tmp_path / "a") == 0
    cfg = config("evolve", time_grid=GRID | {"points": 5.0})
    assert run(tmp_path, "evolve", cfg, out=tmp_path / "b") == 0
    csv_a, csv_b = ((tmp_path / out / "evolve.csv").read_text() for out in "ab")
    assert csv_a == csv_b and len(csv_a.splitlines()) == 1 + 5


def test_integral_float_atom_counts_read_as_integers(tmp_path):
    # n_atoms 100.0 and a scaling point [1000.0, 1.0] are the integers 100 and 1000
    assert run(tmp_path, "evolve", config("evolve"), out=tmp_path / "a") == 0
    assert run(tmp_path, "evolve", config("evolve", system__n_atoms=100.0),
               out=tmp_path / "b") == 0
    csv_a, csv_b = ((tmp_path / out / "evolve.csv").read_text() for out in "ab")
    assert csv_a == csv_b
    points = [[1000.0, 1.0], [10_000, 1.0], [100_000, 1.0]]
    assert run(tmp_path, "scaling", config("scaling", scaling__points=points)) == 0
    rows = json.loads((tmp_path / "out" / "scaling_summary.json").read_text())["points"]
    assert [row["n_atoms"] for row in rows] == [1000, 10_000, 100_000]


def test_physics_error_exits_3(tmp_path, capsys):
    code = run(tmp_path, "evolve", config("evolve", system__delta_hz=0.0))
    assert code == cli.EXIT_PHYSICS == 3
    assert len(error_lines(capsys)) == 1


@pytest.mark.parametrize("point", [[1_000, 0], [0, 10], [1_000, -1.0]],
                         ids=["zero-eta", "zero-atoms", "negative-eta"])
def test_scaling_point_without_atoms_or_positive_eta_exits_3(tmp_path, capsys, point):
    points = [point, [1_000, 1.0], [100_000, 1.0]]
    assert run(tmp_path, "scaling", config("scaling", scaling__points=points)) == 3
    (line,) = error_lines(capsys)
    payload = json.loads(line.split(" ", 1)[1])
    n, eta = point
    assert payload["error"] == "PhysicsError" and f"[{n}, {float(eta)!r}]" in payload["message"]


@pytest.mark.parametrize("command, changes", [
    pytest.param("scaling", {"scaling__points": [[1_000, 1.0], [100_000, 1.0]]},
                 id="scaling-two-points"),
    pytest.param("oracle", {"system__n_atoms": 100}, id="oracle-100-atoms"),
])
def test_validate_refuses_what_the_command_refuses(tmp_path, capsys, command, changes):
    # the rules of a scaling scan and of the oracle's size are checked while the
    # config parses, so validate exits 3 with the message the command gives
    messages = []
    for invoked in (command, "validate"):
        assert run(tmp_path, invoked, config(command, **changes)) == cli.EXIT_PHYSICS == 3
        (line,) = error_lines(capsys)
        payload = json.loads(line.split(" ", 1)[1])
        messages.append((payload["error"], payload["message"]))
    assert messages[0] == messages[1] and messages[0][0] == "PhysicsError"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_artifacts_honour_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert run(tmp_path, "evolve", config("evolve")) == cli.EXIT_OK
    finally:
        os.umask(previous)
    for name in ("evolve.csv", "evolve_summary.json"):
        assert stat.S_IMODE(os.stat(tmp_path / "out" / name).st_mode) == 0o666 & ~umask


NOISELESS = {"free_space": False, "cavity_leak": False}


def _assert_vanishing_mean_spin_exits_3(tmp_path, capsys, tier):
    # N=1000 at the fig3a point without noise: the twisted mean spin shrinks
    # to ~1e-7 by a few hundred seconds, which a trace of either tier reports
    cfg = config("evolve", system__n_atoms=1000, tier=tier, noise=NOISELESS,
                 time_grid=GRID | {"stop": 400.0})
    assert run(tmp_path, "evolve", cfg) == cli.EXIT_PHYSICS == 3
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert json.loads(lines[0].split(" ", 1)[1])["error"] == "DegenerateMeanSpinError"


def test_vanishing_mean_spin_exits_3_on_evolve(tmp_path, capsys):
    _assert_vanishing_mean_spin_exits_3(tmp_path, capsys, "dicke")


def test_vanishing_mean_spin_exits_3_on_analytic_evolve(tmp_path, capsys):
    _assert_vanishing_mean_spin_exits_3(tmp_path, capsys, "analytic")


@pytest.mark.parametrize("changes", [
    pytest.param({"system__n_atoms": 1000, "optimize": {"t_max_s": 400.0}}, id="t_max-400s"),
    pytest.param({"system__n_atoms": 50, "system__delta_hz": 1e5}, id="default-bracket"),
])
def test_noiseless_dicke_optimize_exits_0(tmp_path, changes):
    # the time brackets reach where the twisted mean spin vanishes; the
    # optimizer reads those points as invalid and returns the optimum before
    assert run(tmp_path, "optimize", config("optimize", tier="dicke", noise=NOISELESS,
                                            **changes)) == cli.EXIT_OK
    summary = json.loads((tmp_path / "out" / "optimize_summary.json").read_text())
    assert 0 < summary["result"]["xi_min"] < 1 and summary["result"]["flags"] == []


@pytest.mark.parametrize("scan", [False, True], ids=["time", "detuning"])
def test_t_max_just_above_the_bound_exits_0(tmp_path, scan):
    # the least t_max_s whose bracket bottom t_max_s * 1e-8 is a normal float is about 2.23e-300
    cfg = config("optimize", system__n_atoms=1000,
                 optimize={"scan_detuning": scan, "t_max_s": 2.3e-300})
    assert run(tmp_path, "optimize", cfg) == cli.EXIT_OK
    result = json.loads((tmp_path / "out" / "optimize_summary.json").read_text())["result"]
    assert result["bracket_t_seconds"] == [2.3e-300 * 1e-8, 2.3e-300]
    assert result["t_opt_seconds"] == pytest.approx(2.3e-308, rel=1e-12)


def test_numerics_error_exits_4(tmp_path, capsys):
    # decay exposure exceeds 1/2 on the whole bracket [100 s, 1e10 s]
    cfg = config("optimize", system__gamma_hz=1.0, optimize={"t_max_s": 1e10})
    assert run(tmp_path, "optimize", cfg) == cli.EXIT_NUMERICS == 4
    assert len(error_lines(capsys)) == 1


def test_out_naming_a_file_exits_5(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    assert run(tmp_path, "evolve", config("evolve"), out=blocker) == cli.EXIT_IO == 5
    assert len(error_lines(capsys)) == 1


def test_only_config_and_out_are_accepted(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["evolve", "--config", "c.json", "--threads", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["evolve", "--config", "c.json", "--seed", "1"])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process():
    cli.build_parser.cache_clear()
    for argv in (["evolve"], ["optimize", "--config", "c.json", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("tier", ["analytic", "dicke"])
def test_evolve_artifacts_byte_identical(tmp_path, tier):
    cfg = config("evolve", tier=tier)
    assert run(tmp_path, "evolve", cfg, out=tmp_path / "a") == 0
    assert run(tmp_path, "evolve", cfg, out=tmp_path / "b") == 0
    for name in ("evolve.csv", "evolve_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "evolve_summary.json").mkdir(parents=True)  # os.replace onto a directory fails
    assert run(tmp_path, "evolve", config("evolve"), out=out) == cli.EXIT_IO
    assert len(error_lines(capsys)) == 1
    assert not list(out.glob(".vacuumsq-*"))


def _per_cell_csv(table):
    """The CSV of a column table, formatted one cell at a time, row by row."""
    rows = zip(*table.values())
    lines = [",".join(table)] + [",".join(cli._format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_equals_per_cell_formatting(tmp_path):
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16,
                       1e-300, 0.1, 1.0 / 3.0, -2.5e22])
    n = floats.size
    table = {"float_array": floats, "reversed": floats[::-1], "float_list": floats.tolist(),
             "int_array": np.arange(-3, n - 3), "int64": [np.int64(k) ** 5 for k in range(n)],
             "int": list(range(n)), "string": [f"s{k}" for k in range(n)],
             "empty_string": [""] * n, "mixed": ["", 3, 2.5, "x", *floats[4:].tolist()]}
    cli.write_csv(tmp_path / "table.csv", table)
    assert (tmp_path / "table.csv").read_bytes() == _per_cell_csv(table).encode()


@pytest.mark.parametrize("tier", ["analytic", "dicke"])
def test_evolve_db_columns_equal_per_row_conversion(tmp_path, tier):
    assert run(tmp_path, "evolve", config("evolve", tier=tier, time_grid__points=200)) == 0
    header, *lines = (tmp_path / "out" / "evolve.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 200
    for row in rows:
        xi_db = float(analytic.to_db(float(row["xi_total"])))
        assert row["xi_db"] == repr(xi_db)
        assert row["xi_db_3dp"] == f"{xi_db:.3f}"
