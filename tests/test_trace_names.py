"""The benchmark tracer wraps lossywalk functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lossywalk import sweeps

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


def test_winding_sweep_calls_band_and_winding_once_per_row(monkeypatch):
    # the traced invariants.band_spectrum_1d / winding_number spans are
    # per-row figures: one batched call of each per winding row
    calls = {"band_spectrum_1d": 0, "winding_number": 0}
    for name in calls:
        real = getattr(sweeps, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(sweeps, name, counting)
    sweeps.sweep_winding_vs_gamma(-3 * np.pi / 8, np.linspace(np.pi / 8, 5 * np.pi / 8, 4),
                                  np.linspace(0, 0.3, 3), n_k=51, workers=1)
    assert calls == {"band_spectrum_1d": 4, "winding_number": 4}
