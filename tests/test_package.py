"""The package's exports: every name that an __all__ lists exists."""

import importlib
import pkgutil

import pytest

import imitodyn

MODULES = [importlib.import_module(f"imitodyn.{info.name}") for info in pkgutil.iter_modules(imitodyn.__path__)]


@pytest.mark.parametrize(
    "module", [imitodyn, *(m for m in MODULES if hasattr(m, "__all__"))], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import():
    namespace = {}
    exec("from imitodyn import *", namespace)
    assert set(imitodyn.__all__) <= set(namespace)
