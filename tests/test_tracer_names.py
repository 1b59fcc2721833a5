"""The benchmark's tracer wraps library names from outside; every name it
lists must still exist, or its per-layer metrics silently read zero."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    missing = []
    for mod, attr, _ in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"radograph.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"radograph.{mod}"), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert tracer.FUNCTIONS and tracer.METHODS
    assert missing == []
