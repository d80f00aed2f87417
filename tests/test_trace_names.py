"""The benchmark tracer wraps lossywalk functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lossywalk import invariants, sweeps, symmetries

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
    vectors = {}
    _count_calls(monkeypatch, vectors, invariants, ["eig2_vector"])
    sweeps.sweep_winding_vs_gamma(-3 * np.pi / 8, np.linspace(np.pi / 8, 5 * np.pi / 8, 4),
                                  np.linspace(0, 0.3, 3), n_k=51, workers=1)
    assert calls == {"band_spectrum_1d": 4, "winding_number": 4, "eig2_batch": 4}
    # and it builds one vector per matrix: one eig2_vector call per row
    assert vectors == {"eig2_vector": 4}


def test_chern_sweep_calls_band_chern_and_builder_once_per_cell(monkeypatch):
    # the traced invariants.band_spectrum_2d / chern_number spans are
    # per-cell figures, and the cell builds its grid once, as entry arrays
    # (walks._u2d): the 2D path never stacks, so the tracer's walks.u2d_k and
    # linalg.eig2_batch spans, at invariants.u2d_k and invariants.eig2_batch,
    # are not on it and their time is band_spectrum_2d's own
    calls = {}
    _count_calls(monkeypatch, calls, sweeps, ["band_spectrum_2d", "chern_number"])
    _count_calls(monkeypatch, calls, invariants, ["_u2d", "u2d_k", "eig2_batch"])
    table = sweeps.sweep_chern_vs_gamma(np.pi / 4, np.linspace(0.5, 2.0, 3), np.array([0.0, 0.3]),
                                        grid=21, workers=1)
    assert np.all(table.status == sweeps.STATUS_OK)
    assert calls == {"band_spectrum_2d": 6, "chern_number": 6, "_u2d": 6, "u2d_k": 0, "eig2_batch": 0}


def test_ep_search_takes_one_eigenvalue_step_per_check(monkeypatch):
    # the linalg.eig2_batch span wraps symmetries.eig2_batch: every
    # check_exact_pt of an EP search reaches the eigenvalue step through that
    # name exactly once, and the search builds no eigenvector
    calls = {}
    _count_calls(monkeypatch, calls, symmetries, ["eig2_batch"])
    per_check = []
    real = symmetries.check_exact_pt

    def counting(*args):
        before = calls["eig2_batch"]
        report = real(*args)
        per_check.append(calls["eig2_batch"] - before)
        return report

    monkeypatch.setattr(symmetries, "check_exact_pt", counting)
    symmetries.find_exceptional_point(-3 * np.pi / 8, np.pi / 4, gamma_hi=1.0)
    assert len(per_check) > 2 and set(per_check) == {1}
    assert calls["eig2_batch"] == len(per_check)
    assert "eig2_vector" not in vars(symmetries)
