import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import vacuumsq
from vacuumsq import dicke

MODULES = ["vacuumsq"] + [f"vacuumsq.{info.name}"
                          for info in pkgutil.iter_modules(vacuumsq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_names_the_benchmark_tracer_patches_exist():
    # perfbench/tracer.py replaces these attributes by name; one that is
    # missing makes its install() raise AttributeError and breaks a traced run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{attr}" for layer, attrs in tracer.SPANS.items() for attr in attrs
               if not hasattr(importlib.import_module(f"vacuumsq.{layer}"), attr)]
    missing += [f"dicke.TatPropagator.{attr}" for attr in ("__init__", "evolve", "evolve_grid")
                if attr not in vars(dicke.TatPropagator)]
    assert missing == []
