"""Every public name the package declares can be imported."""

import importlib
import pkgutil

import sdnsec

MODULES = [sdnsec] + [
    importlib.import_module(f"sdnsec.{info.name}") for info in pkgutil.iter_modules(sdnsec.__path__)
]


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_star_import_brings_every_package_name():
    namespace: dict = {}
    exec("from sdnsec import *", namespace)
    assert set(sdnsec.__all__) <= set(namespace)
