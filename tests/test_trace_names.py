"""The benchmark tracer wraps lossywalk functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    # the same lookup as Tracer.install: a renamed function would make the
    # traced benchmark run fail with KeyError
    missing = []
    for module_name, attr, _span, _count in _load_spans().PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if leaf not in owner.__dict__:
            missing.append(f"{module_name}.{attr}")
    assert not missing
