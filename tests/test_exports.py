import ast
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import vacuumsq
from vacuumsq import dicke

MODULES = ["vacuumsq"] + [f"vacuumsq.{info.name}"
                          for info in pkgutil.iter_modules(vacuumsq.__path__)]


TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """perfbench/tracer.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_names_the_benchmark_tracer_patches_exist():
    # perfbench/tracer.py replaces these attributes by name; one that is
    # missing makes its install() raise AttributeError and breaks a traced run
    tracer = _tracer()
    missing = [f"{layer}.{attr}" for layer, attrs in tracer.SPANS.items() for attr in attrs
               if not hasattr(importlib.import_module(f"vacuumsq.{layer}"), attr)]
    missing += [f"dicke.TatPropagator.{attr}" for attr in ("__init__", "evolve", "evolve_grid")
                if attr not in vars(dicke.TatPropagator)]
    assert missing == []


def _defined_names(tree):
    """The module-level functions, classes and constants of a module's syntax tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    yield target.id


def test_every_exported_name_has_a_program_caller():
    # the package holds no function, class or constant, private ones
    # included, that only tests call: each is loaded (a Name or an
    # Attribute, not an import or a string) somewhere in the package, or
    # patched by name by the benchmark tracer
    trees = {f"vacuumsq.{path.stem}".removesuffix(".__init__"): ast.parse(path.read_text())
             for path in pathlib.Path(vacuumsq.__file__).parent.glob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    patched = {f"vacuumsq.{layer}.{attr}" for layer, attrs in _tracer().SPANS.items()
               for attr in attrs} | {"vacuumsq.dicke.TatPropagator"}
    unused = [f"{name}.{defined}" for name, tree in trees.items()
              for defined in _defined_names(tree)
              if defined not in loaded and f"{name}.{defined}" not in patched]
    assert unused == []


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(vacuumsq.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


# Runs in a fresh interpreter, so that nothing is loaded before vacuumsq.cli:
# runs each (command, config) pair of the JSON file in argv[1] with its
# printed output and error lines dropped, and prints the exit codes, the
# scipy and numpy modules loaded at the end, and the vacuumsq modules loaded
# after each run.
_COLD_START = """
import contextlib, io, json, sys
from vacuumsq import cli

def loaded(package):
    return sorted(name for name in sys.modules if name.partition(".")[0] == package)

with open(sys.argv[1]) as fh:
    runs = json.load(fh)
codes, vacuumsq = [], []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for command, path in runs:
        codes.append(cli.main([command, "--config", path, "--out", sys.argv[2]]))
        vacuumsq.append(loaded("vacuumsq"))
print(json.dumps({"codes": codes, "scipy": loaded("scipy"), "numpy": loaded("numpy"),
                  "vacuumsq": vacuumsq}))
"""

_SYSTEM = {"n_atoms": 100, "eta": 10.0, "kappa_hz": 1e5, "gamma_hz": 7e-3, "delta_hz": 11.2e6}
_GRID = {"start": 1e-3, "stop": 1.0, "points": 5, "spacing": "log"}
_SCALING = {"points": [[100, 1.0], [1_000, 1.0], [10_000, 1.0]]}
_FEASIBILITY = {"fsr_hz": 1e10, "fsr_jitter_hz": 1e3, "noise_bandwidth_hz": 1e4,
                "squeeze_time_s": 1e-2}


def _cold_start(tmp_path, runs):
    """What :data:`_COLD_START` prints for a fresh interpreter that runs (command, config) pairs."""
    pairs = []
    for i, (command, config) in enumerate(runs):
        path = tmp_path / f"{i}-{command}.json"
        path.write_text(json.dumps({"schema_version": 1, "system": _SYSTEM} | config))
        pairs.append((command, str(path)))
    listing = tmp_path / "runs.json"
    listing.write_text(json.dumps(pairs))
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(listing), str(tmp_path / "out")],
                          capture_output=True, text=True, env=_fresh_env(), timeout=300,
                          check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_validate_loads_no_numpy(tmp_path):
    # the config layer and core are pure Python, and validate checks every
    # section of each command's config without loading a tier
    result = _cold_start(tmp_path, [
        ("validate", {"tier": "analytic", "noise": {}, "time_grid": _GRID}),
        ("validate", {"protocol": "tat", "optimize": {"scan_detuning": True, "t_max_s": 10.0,
                                                      "delta_bracket_hz": [1e6, 1e8]}}),
        ("validate", {"scaling": _SCALING | {"protocol": "tat", "noiseless": True}}),
        ("validate", {"system": _SYSTEM | {"n_atoms": 4},
                      "oracle": {"photon_cutoff": 3, "delta_over_collective": 60.0}}),
        ("validate", {"feasibility": _FEASIBILITY}),
        ("validate", {"protocol": "tat", "oracle": {}}),
        ("validate", {"scaling": {"points": _SCALING["points"][:2]}}),
        ("validate", {"oracle": {}}),
    ])
    # the last two break the scan's and the oracle's size rules: exit 3
    assert result["codes"] == [0] * 5 + [2, 3, 3]
    assert result["numpy"] == []
    assert result["vacuumsq"][-1] == ["vacuumsq", "vacuumsq.cli", "vacuumsq.core"]


def test_cli_and_analytic_commands_load_no_scipy(tmp_path):
    # dicke imports scipy inside the functions that call it, so validate and
    # the closed-form tier start without it, and the analytic evolve loads
    # no other tier
    result = _cold_start(tmp_path, [
        ("validate", {}),
        ("evolve", {"tier": "analytic", "time_grid": _GRID}),
        ("optimize", {"tier": "analytic", "optimize": {"scan_detuning": True}}),
        ("scaling", {"scaling": _SCALING}),
        ("feasibility", {"feasibility": _FEASIBILITY}),
    ])
    assert (result["codes"], result["scipy"]) == ([0] * 5, [])
    assert {"vacuumsq.dicke", "vacuumsq.optimize", "vacuumsq.oracle"}.isdisjoint(
        result["vacuumsq"][1])
    # the optimizer imports the Dicke tier only for a Dicke search
    assert "vacuumsq.dicke" not in result["vacuumsq"][3]


def test_feasibility_loads_no_numpy(tmp_path):
    # the robustness arithmetic is scalar and sits in core
    result = _cold_start(tmp_path, [("feasibility", {"feasibility": _FEASIBILITY})])
    assert result["codes"] == [0]
    assert result["numpy"] == []
    assert result["vacuumsq"][-1] == ["vacuumsq", "vacuumsq.cli", "vacuumsq.core"]


def test_dicke_tier_and_oracle_resolve_their_scipy_imports(tmp_path):
    # the same commands with nothing preloaded reach each deferred import
    result = _cold_start(tmp_path, [
        ("evolve", {"tier": "dicke", "time_grid": _GRID}),
        ("evolve", {"protocol": "tat", "time_grid": _GRID}),
        ("optimize", {"protocol": "tat"}),
        ("oracle", {"system": _SYSTEM | {"n_atoms": 4},
                    "oracle": {"delta_over_collective": 60.0}}),
    ])
    assert result["codes"] == [0] * 4
    assert {"scipy.linalg", "scipy.special"} <= set(result["scipy"])


# Runs in a fresh interpreter, because install() replaces module attributes
# for the rest of the process: loads the tracer by path, installs it, runs
# the CLI command in argv and prints its exit code, the tracer's counters
# and, for each span, its name and the names of its parent and grandparent.
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
run = tracer.Tracer()
tracer.install(run)
from vacuumsq import cli
code = cli.main(sys.argv[2:])

def name(i):
    return run.names[run.name_id[i]] if i >= 0 else None

def chain(i):
    return [name(i), name(run.parent[i]), name(run.parent[i]) and name(run.parent[run.parent[i]])]

print(json.dumps({"exit": code, "counters": dict(run.counters),
                  "chains": [chain(i) for i in range(run.span_count())]}))
"""


def test_traced_detuning_scan_runs(tmp_path):
    # the tracer's counting objective calls math.isfinite on every value, so
    # an array reaching the objective that minimize_on_log_axis receives
    # fails the traced benchmark run.  optimal_detuning refines tau = Omega t
    # with minimize_on_log_axis and scalar calls, which the tracer counts as
    # detuning evaluations; each golden step runs under that refinement
    config = {"schema_version": 1,
              "system": {"n_atoms": 1000, "eta": 10.0, "kappa_hz": 1e5, "gamma_hz": 7e-3,
                         "delta_hz": 11.2e6},
              "optimize": {"scan_detuning": True}}
    path = tmp_path / "optimize.json"
    path.write_text(json.dumps(config))
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(TRACER), "optimize",
                           "--config", str(path), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_fresh_env(), timeout=300,
                          check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0, done.stderr
    counters = result["counters"]
    assert counters["optimize.detuning_evals"] > 0
    refinement = ["optimize.golden_section", "optimize.minimize_on_log_axis",
                  "optimize.optimal_detuning"]
    assert result["chains"].count(refinement) > 0
