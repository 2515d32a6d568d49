"""Package surface: every name a module exports is defined in it."""

import importlib
import pkgutil

import pytest

import heavychain

MODULES = ["heavychain"] + sorted(
    f"heavychain.{info.name}" for info in pkgutil.iter_modules(heavychain.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
