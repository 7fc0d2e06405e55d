import importlib
import pkgutil

import pytest

import vacuumsq

MODULES = ["vacuumsq"] + [f"vacuumsq.{info.name}"
                          for info in pkgutil.iter_modules(vacuumsq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
