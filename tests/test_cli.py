import copy
import json

import pytest

from vacuumsq import cli

SYSTEM = {"n_atoms": 100, "eta": 10.0, "kappa_hz": 1e5, "gamma_hz": 7e-3,
          "delta_hz": 11.2e6}
GRID = {"start": 1e-3, "stop": 1.0, "points": 5, "spacing": "log"}
BASE = {
    "evolve": {"system": SYSTEM, "time_grid": GRID},
    "optimize": {"system": SYSTEM},
    "scaling": {"system": SYSTEM,
                "scaling": {"points": [[100, 1.0], [1_000, 1.0], [10_000, 1.0]]}},
    "validate": {"system": SYSTEM},
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
    pytest.param("optimize", {"optimize": {"scan_detuning": True,
                                           "delta_bracket_hz": [1e6, 1e5]}},
                 id="optimize-bracket-reversed"),
    pytest.param("optimize", {"optimize": {"scan_detuning": True,
                                           "delta_bracket_hz": [0, 1e6]}},
                 id="optimize-bracket-zero"),
    pytest.param("validate", {"optimize": {"t_max_s": 0}}, id="validate-t_max-zero"),
    pytest.param("evolve", {"protocol": "tat", "time_grid__stop": float("inf")},
                 id="evolve-grid-infinite"),
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


def test_ok_exits_0_and_lists_artifacts(tmp_path, capsys):
    assert run(tmp_path, "evolve", config("evolve")) == cli.EXIT_OK == 0
    printed = capsys.readouterr().out.split()
    assert [p.rsplit("/", 1)[-1] for p in printed] == ["evolve.csv", "evolve_summary.json"]
    summary = json.loads((tmp_path / "out" / "evolve_summary.json").read_text())
    assert set(summary) == {"schema_version", "command", "package_version",
                            "resolved_config", "derived", "model_tier", "protocol",
                            "grid_minimum", "bounds", "artifacts"}
    assert (summary["model_tier"], summary["protocol"]) == ("analytic", "oat")


def test_physics_error_exits_3(tmp_path, capsys):
    code = run(tmp_path, "evolve", config("evolve", system__delta_hz=0.0))
    assert code == cli.EXIT_PHYSICS == 3
    assert len(error_lines(capsys)) == 1


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
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["evolve", "--config", "c.json", "--threads", "2"])
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["evolve", "--config", "c.json", "--seed", "1"])


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
