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


def test_cli_import_leaves_out_scipy_sparse():
    # no package path steps through sparse matrices; importing the CLI loads none
    done = subprocess.run(
        [sys.executable, "-c", "import sys, vacuumsq.cli; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, env=_fresh_env(), timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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
