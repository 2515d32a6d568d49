"""Package surface: every name a module exports is defined in it, and
importing the CLI stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # the CLI's setup cost: these subpackages are not needed by any subcommand
    code = ("import sys, heavychain.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize', "
            "'scipy.spatial') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_cli_import_starts_no_thread():
    # the kernel study's helper thread lives only inside a study call
    code = "import threading, heavychain.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "1"
