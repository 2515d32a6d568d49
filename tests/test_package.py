"""Package surface: every name a module exports is defined in it, every
exported function and every public member of an exported class has a
caller outside the tests, and importing the CLI stays light."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import heavychain

MODULES = ["heavychain"] + sorted(
    f"heavychain.{info.name}" for info in pkgutil.iter_modules(heavychain.__path__)
)
ROOT = Path(__file__).resolve().parents[1]
# The library and the benchmark harness; tests are not callers.
CALLER_FILES = sorted(p for d in ("src/heavychain", "perfbench")
                      for p in (ROOT / d).glob("*.py"))
# ROADMAP item 1 (the SBP energy's exact dissipativity certificate) gives
# this one its caller.
AWAITING_CALLERS = {"ternary_form_psd"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # a stale __all__ entry breaks `from <module> import *`
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def _referenced_names(path: Path) -> set:
    """Names read as a Name or an Attribute in the file, except inside
    the module-level def of the same name (a recursive call is no caller)."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        found = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.discard(top.name)
        names |= found
    return names


def _public_members(cls) -> set:
    """Class.name of each method (class and static ones too), property and
    cached property the class itself defines, except names starting with _."""
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    return {f"{cls.__name__}.{attr}" for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, kinds)}


def test_every_public_function_has_a_caller():
    # API surface that nothing uses is deleted, not kept for tests alone:
    # each exported function, and each public member of an exported class
    referenced = set().union(*map(_referenced_names, CALLER_FILES))
    public = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", ()):
            value = getattr(mod, attr)
            if inspect.isfunction(value):
                public.add(attr)
            elif inspect.isclass(value):
                public |= _public_members(value)
    unused = {name for name in public if name.rpartition(".")[2] not in referenced}
    assert sorted(unused) == sorted(AWAITING_CALLERS)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # the CLI's setup cost: these subpackages are not needed by any subcommand
    code = ("import sys, heavychain.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize', "
            "'scipy.sparse.linalg', 'scipy.spatial') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_cli_import_starts_no_thread():
    # importing the CLI leaves the process on its main thread alone
    code = "import threading, heavychain.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "1"
