"""tools/never_run.py on synthetic line counts: never-run bodies and stale allowances."""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("never_run", ROOT / "tools" / "never_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counts(tool, never: set) -> dict:
    """Line counts in which every audited body ran once, except those named in never, which ran 0 times."""
    counts = {}
    for name in sorted(os.listdir(tool.SRC)):
        if not name.endswith(".py") or name in tool.ALLOWED_FILES:
            continue
        path = os.path.abspath(os.path.join(tool.SRC, name))
        for qualname, _, body, _ in tool.functions(path):
            for line in body:
                counts[(path, line)] = 0 if qualname in never else 1
    return counts


def test_stale_allowances_are_reported(monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "ALLOWED", {
        "bundles.load_bundle": "never runs below, so it is needed",
        "poly.poly_add": "runs below, so it is stale",
        "poly.no_such_function": "names no function, so it is stale",
    })
    missing, stale = tool.never_run(_counts(tool, {"bundles.load_bundle", "poly.partial_derivative"}))
    assert [entry.split(": ")[1] for entry in missing] == ["poly.partial_derivative"]
    assert missing[0].startswith("src/tancat/poly.py:")
    assert stale == ["poly.no_such_function", "poly.poly_add"]


def test_every_allowance_is_stale_once_every_body_runs():
    tool = _load_tool()
    assert tool.never_run(_counts(tool, set())) == ([], sorted(tool.ALLOWED))
