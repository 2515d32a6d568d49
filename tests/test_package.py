"""Package surface: every name a module exports is defined in it, every
exported function has a caller outside the tests, and importing the CLI
stays light."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import heavychain

MODULES = ["heavychain"] + sorted(
    f"heavychain.{info.name}" for info in pkgutil.iter_modules(heavychain.__path__)
)
ROOT = Path(__file__).resolve().parents[1]
# The library, the scripts and the benchmark harness; tests are not callers.
CALLER_FILES = sorted(p for d in ("src/heavychain", "scripts", "perfbench")
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


def test_every_public_function_has_a_caller():
    # API surface that nothing uses is deleted, not kept for tests alone
    referenced = set().union(*map(_referenced_names, CALLER_FILES))
    public = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        public |= {attr for attr in getattr(mod, "__all__", ())
                   if inspect.isfunction(getattr(mod, attr))}
    assert sorted(public - referenced) == sorted(AWAITING_CALLERS)


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
    # the kernel study's helper thread lives only inside a study call
    code = "import threading, heavychain.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "1"
