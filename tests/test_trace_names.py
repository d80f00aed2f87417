"""The benchmark tracer wraps lossywalk functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lossywalk import invariants, sweeps

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


def _count_calls(monkeypatch, calls, owner, names):
    # wrap owner.<name> for each name so that calls[name] counts its calls
    for name in names:
        calls[name] = 0
        real = getattr(owner, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)


def test_winding_sweep_calls_band_and_winding_once_per_row(monkeypatch):
    # the traced invariants.band_spectrum_1d / winding_number spans are
    # per-row figures: one batched call of each per winding row; the
    # linalg.eig2_batch span wraps invariants.eig2_batch, so the band
    # kernel must reach the eigensolver through that name, once per row
    calls = {}
    _count_calls(monkeypatch, calls, sweeps, ["band_spectrum_1d", "winding_number"])
    _count_calls(monkeypatch, calls, invariants, ["eig2_batch"])
    sweeps.sweep_winding_vs_gamma(-3 * np.pi / 8, np.linspace(np.pi / 8, 5 * np.pi / 8, 4),
                                  np.linspace(0, 0.3, 3), n_k=51, workers=1)
    assert calls == {"band_spectrum_1d": 4, "winding_number": 4, "eig2_batch": 4}


def test_chern_sweep_calls_band_chern_and_builder_once_per_cell(monkeypatch):
    # the traced invariants.band_spectrum_2d / chern_number and walks.u2d_k
    # spans are per-cell figures: the cell kernel goes through all three once
    calls = {}
    _count_calls(monkeypatch, calls, sweeps, ["band_spectrum_2d", "chern_number"])
    _count_calls(monkeypatch, calls, invariants, ["u2d_k"])
    table = sweeps.sweep_chern_vs_gamma(np.pi / 4, np.linspace(0.5, 2.0, 3), np.array([0.0, 0.3]),
                                        grid=21, workers=1)
    assert np.all(table.status == sweeps.STATUS_OK)
    assert calls == {"band_spectrum_2d": 6, "chern_number": 6, "u2d_k": 6}
