import importlib
import pkgutil

import pytest

import shrouddb

MODULES = sorted(m.name for m in pkgutil.iter_modules(shrouddb.__path__)
                 if m.name != "__main__")


def test_modules_found():
    assert {"bptree", "engine", "oram", "slots", "storage"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"shrouddb.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
