"""The functions perfbench traces must exist where it looks for them.

perfbench/run.py wraps each `accel_predict.<module>.<function>` named in
its TRACED table and reports the missing ones only as a note, so a rename
or an inlined helper would silently drop that per-layer span.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name: str):
    """Import perfbench/<name>.py as the top-level module `name`, as
    run.py imports its tracer; sys.modules is restored afterwards."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    _load(monkeypatch, "tracer")
    run = _load(monkeypatch, "run")
    absent = [
        f"{module}.{name}"
        for module, names in run.TRACED.items()
        for name in names
        if not callable(getattr(
            importlib.import_module(f"{run.PACKAGE}.{module}"), name, None
        ))
    ]
    assert run.TRACED and absent == []
