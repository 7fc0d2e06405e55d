import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import vacuumsq
from vacuumsq import dicke

MODULES = ["vacuumsq"] + [f"vacuumsq.{info.name}"
                          for info in pkgutil.iter_modules(vacuumsq.__path__)]


def _tracer():
    """perfbench/tracer.py, loaded by path (perfbench is not a package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
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


def test_every_exported_name_has_a_program_caller():
    # the public API holds no function that only tests call: each exported
    # name is loaded (a Name or an Attribute, not an import or a string)
    # somewhere in the package, or patched by name by the benchmark tracer
    loaded = set()
    for path in pathlib.Path(vacuumsq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    patched = {f"vacuumsq.{layer}.{attr}" for layer, attrs in _tracer().SPANS.items()
               for attr in attrs}
    unused = [f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(name), "__all__", ())
              if export not in loaded and f"{name}.{export}" not in patched]
    assert unused == []
