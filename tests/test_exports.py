"""Every exported name resolves: the package's and each module's __all__."""

import importlib
import pkgutil

import pytest

import bayesgram

MODULES = sorted(m.name for m in pkgutil.iter_modules(bayesgram.__path__))


def test_package_all_resolves():
    assert [n for n in bayesgram.__all__ if not hasattr(bayesgram, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bayesgram.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
