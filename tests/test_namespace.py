"""The package namespace is lazy: importing it runs only what the caller uses.

``import tancat`` puts each submodule but ``cli`` into sys.modules unexecuted,
and a module runs when one of its attributes is first read.  ``tancat.X`` is
looked up in X's defining module on every access, so it is always that
module's current binding.  What an import runs is checked in a fresh
interpreter, since this test process has already run every module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tancat

SRC = Path(tancat.__file__).resolve().parent.parent
ROOT = SRC.parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def _python(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=ENV, check=True, cwd=ROOT)


def _after(statement: str) -> tuple:
    """In a fresh interpreter: the modules ``statement`` adds to sys.modules, and
    the ``tancat.*`` modules that have run (a lazily registered one has not)."""
    code = (
        f"import sys, types\nbefore = set(sys.modules)\n{statement}\n"
        "ran = [n for n, m in sys.modules.items()\n"
        "       if n.startswith('tancat.') and type(m) is types.ModuleType]\n"
        "print((sorted(set(sys.modules) - before), sorted(ran)))"
    )
    added, ran = ast.literal_eval(_python("-c", code).stdout)
    return set(added), set(ran)


def test_import_tancat_runs_no_submodule():
    added, ran = _after("import tancat")
    assert ran == set()
    assert {m for m in added if m.startswith("tancat")} == {
        "tancat", *(f"tancat.{m}" for m in tancat._SUBMODULES if m != "cli")
    }
    assert "json" not in added


def test_kernel_import_runs_only_the_kernel():
    added, ran = _after("from tancat import cdc, parser, poly")
    assert ran == {f"tancat.{m}" for m in ("scalars", "errors", "poly", "parser", "cdc")}
    assert "json" not in added


def test_every_submodule_is_an_attribute_of_the_package():
    _, ran = _after("import tancat\nassert tancat.suites.SuiteParams.__name__ == 'SuiteParams'")
    assert "tancat.suites" in ran
    assert set(tancat._SUBMODULES) <= set(dir(tancat))


def test_the_benchmark_tracer_installs_after_the_kernel_import_alone():
    code = (
        "import sys\nsys.path.insert(0, 'perfbench')\n"
        "from tancat import cdc, parser, poly\nimport tracer\n"
        "raw = cdc.cdc_D\nt = tracer.Tracer()\nt.install()\nassert cdc.cdc_D is not raw\n"
        "t.uninstall()\nassert cdc.cdc_D is raw"
    )
    _python("-c", code)


def test_cli_runs_as_main_without_warnings():
    proc = _python("-W", "error", "-m", "tancat.cli", "diff", "--expr", "x0*x1", "--mode", "natural")
    assert proc.stderr == ""


def test_every_exported_name_is_its_modules_object():
    for name in tancat.__all__:
        module = importlib.import_module(f"tancat.{tancat._MODULE_OF[name]}")
        assert getattr(tancat, name) is getattr(module, name), name
    assert set(tancat.__all__) <= set(dir(tancat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tancat.no_such_name  # noqa: B018
    from tancat import cdc

    assert cdc is sys.modules["tancat.cdc"]


def test_a_rebinding_in_the_module_is_what_the_namespace_returns(monkeypatch):
    from tancat import cdc

    def spy(f):
        return f

    monkeypatch.setattr(cdc, "cdc_D", spy)
    assert tancat.cdc_D is spy
