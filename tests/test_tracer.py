"""The benchmark's call tracer finds every function it traces, and puts it back.

``perfbench/tracer.py`` rebinds the traced functions by name, so renaming
one breaks the traced benchmark run.  This test installs the tracer over the
imported package and checks each target was rebound, then that
``uninstall`` restores every binding.
"""

import importlib.util
import sys
from pathlib import Path

import tancat.cli  # noqa: F401  (the benchmark drives the package through the CLI)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name: str, attr: str):
    """What a TARGETS entry names right now: a module global or a class member."""
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, member = attr.split(".")
        return vars(getattr(owner, cls_name))[member]
    return getattr(owner, attr)


def _bindings() -> dict:
    """Every name bound in a tancat module, and in the classes it defines."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tancat" or name.startswith("tancat.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    out[(name, key, member)] = raw
    return out


def test_tracer_resolves_every_target_and_uninstalls_cleanly():
    tracer_mod = _load_tracer()
    before = _bindings()
    originals = {(m, a): _target(m, a) for _, m, a in tracer_mod.TARGETS}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        unresolved = [key for key, fn in originals.items() if _target(*key) is fn]
        assert not unresolved, f"tracer left these targets unwrapped: {unresolved}"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, f"uninstall left these bindings rebound: {changed}"
