"""Each qfluct module that declares ``__all__`` lists exactly what it
offers: every listed name exists, and every public function or class the
module defines is listed."""

import importlib
import inspect
import pkgutil

import pytest

import qfluct

MODULES = [mod for mod in (importlib.import_module(f"qfluct.{info.name}")
                           for info in pkgutil.iter_modules(qfluct.__path__))
           if hasattr(mod, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_public_definitions_are_listed(module):
    defined = [name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []
