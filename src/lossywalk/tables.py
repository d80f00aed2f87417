"""Table serialization (CSV/JSON) and plot-script emission.

JSON is the machine interface (lossless round-trip of a SweepTable); CSV is
the spreadsheet/plotting interface with one row per cell, row-major, values
printed with 12 significant digits and status markers as literal strings.

``emit_plot_script`` writes a self-contained matplotlib script that reads
the emitted data files sitting next to it.  Every script is one shared frame
(shebang, imports, ``here``, and the save-and-print tail) around a per-kind
body; the panel kinds share their file-list preamble.  Script generation is a
pure string template of its inputs, so regeneration is byte-identical.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os

import numpy as np

from .sweeps import STATUS_LABELS, SweepTable

__all__ = ["write_table", "read_table", "write_spectrum_csv", "emit_plot_script"]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


@contextlib.contextmanager
def _opened(path: str, what: str):
    """Open ``path`` for writing, making its directory; an OSError names what was being written."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def write_table(table: SweepTable, path: str, fmt: str) -> None:
    """Serialize a sweep table; ``fmt`` is "csv" or "json"."""
    if fmt == "json":
        with _opened(path, "table") as fh:
            json.dump(table.to_dict(), fh, indent=1)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}")
    names = [name for name, _ in table.axes]
    axes_values = [vals for _, vals in table.axes]
    lines = [",".join(names + ["value", "status"])]
    for flat, combo in enumerate(itertools.product(*axes_values)):
        row = [_fmt(x) for x in (*combo, table.values[flat])]
        lines.append(",".join(row + [STATUS_LABELS[int(table.status[flat])]]))
    with _opened(path, "table") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str) -> SweepTable:
    """Load a JSON-serialized sweep table."""
    with open(path) as fh:
        return SweepTable.from_dict(json.load(fh))


def write_spectrum_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    """Write named equal-length columns as CSV with 12-significant-digit values."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("columns must have equal length")
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(_fmt(float(a[i])) for a in arrays))
    with _opened(path, "spectrum") as fh:
        fh.write("\n".join(lines) + "\n")


# Every plot script is this frame around one body.  The frame is filled in
# two passes: ``imports`` and ``body`` when the module loads, then the
# doubled-brace fields (and the body's own fields) per script.
_FRAME = """\
#!/usr/bin/env python3
# Auto-generated plotting script; reads {{data}} next to this file.
{imports}import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = os.path.dirname(os.path.abspath(__file__))
{body}fig.tight_layout()
fig.savefig(os.path.join(here, {{image!r}}), dpi=160)
print("wrote", {{image!r}})
"""

_PANELS = """\
files = {data!r}
labels = {labels!r}
n = len(files)
"""

_ROW_OF_AXES = "fig, axes = plt.subplots(1, n, figsize=(4 * n, 4), squeeze=False)\n"

_HEATMAP = """\
with open(os.path.join(here, {data!r})) as fh:
    table = json.load(fh)

ax_y, ax_x = table["axes"][0], table["axes"][1]
ys = np.asarray(ax_y["values"])
xs = np.asarray(ax_x["values"])
cells = np.asarray([np.nan if v is None else v for v in table["cells"]])
grid = cells.reshape(len(ys), len(xs))

fig, ax = plt.subplots(figsize=(6, 4.5))
mesh = ax.pcolormesh(xs, ys, grid, shading="nearest", cmap="viridis")
fig.colorbar(mesh, ax=ax, label={value_label!r})
overlays = table["meta"].get("overlays", {{}})
colors = ["red", "black", "white", "orange"]
for i, (name, ov) in enumerate(sorted(overlays.items())):
    vals = np.asarray([np.nan if v is None else v for v in ov["values"]], dtype=float)
    if ov["axis"] == ax_y["name"]:
        ax.plot(vals, ys, color=colors[i % len(colors)], lw=1.2, label=name)
    else:
        ax.plot(xs, vals, color=colors[i % len(colors)], lw=1.2, label=name)
if overlays:
    ax.legend(loc="upper right", fontsize=7)
ax.set_xlabel(ax_x["name"])
ax.set_ylabel(ax_y["name"])
ax.set_title({title!r})
ax.set_xlim(xs.min(), xs.max())
ax.set_ylim(ys.min(), ys.max())
"""

_SPECTRUM = _PANELS + _ROW_OF_AXES + """\
phi = np.linspace(0.0, 2.0 * np.pi, 361)
for ax, fname, label in zip(axes[0], files, labels):
    data = np.genfromtxt(os.path.join(here, fname), delimiter=",", names=True)
    ax.plot(np.cos(phi), np.sin(phi), color="0.7", lw=0.8)
    ax.scatter(data["re_lambda"], data["im_lambda"], s=6, c="tab:blue")
    ax.set_xlabel("Re lambda")
    ax.set_ylabel("Im lambda")
    ax.set_title(label)
    ax.set_aspect("equal")
"""

_BANDS = _PANELS + _ROW_OF_AXES + """\
for ax, fname, label in zip(axes[0], files, labels):
    raw = np.loadtxt(os.path.join(here, fname), delimiter=",", skiprows=1)
    kx = raw[:, 0]
    bands = raw[:, 1:]
    for j in range(bands.shape[1]):
        ax.plot(kx, bands[:, j], ",", color="tab:blue", ms=1)
    ax.set_xlabel("kx")
    ax.set_ylabel("Re E")
    ax.set_title(label)
"""

_LINES = """\
raw = np.loadtxt(os.path.join(here, {data!r}), delimiter=",", skiprows=1)
with open(os.path.join(here, {data!r})) as fh:
    names = fh.readline().strip().split(",")
x = raw[:, 0]
fig, ax = plt.subplots(figsize=(6, 4))
for j in range(1, raw.shape[1]):
    ax.plot(x, raw[:, j], lw=1.0, label=names[j])
ax.set_xlabel(names[0])
ax.set_title({title!r})
ax.legend(fontsize=7)
"""

_TRAJECTORY = _PANELS + """\
fig = plt.figure(figsize=(4 * n, 4))
for i, (fname, label) in enumerate(zip(files, labels)):
    data = np.genfromtxt(os.path.join(here, fname), delimiter=",", names=True)
    ax = fig.add_subplot(1, n, i + 1, projection="3d")
    ax.plot(data["re_nx"], data["re_ny"], data["re_nz"], lw=0.9)
    ax.scatter([0.0], [0.0], [0.0], color="red", s=12)
    ax.set_title(label, fontsize=9)
    ax.set_xlabel("nx")
    ax.set_ylabel("ny")
    ax.set_zlabel("nz")
"""

# kind -> (whether ``data`` is the whole file list, filled template)
_TEMPLATES = {
    kind: (takes_list, _FRAME.format(imports=imports, body=body))
    for kind, takes_list, imports, body in (
        ("heatmap", False, "import json\n", _HEATMAP),
        ("spectrum", True, "", _SPECTRUM),
        ("bands", True, "", _BANDS),
        ("lines", False, "", _LINES),
        ("trajectory", True, "", _TRAJECTORY),
    )
}


def emit_plot_script(
    kind: str,
    path: str,
    data_files: list[str],
    image: str,
    title: str = "",
    labels: list[str] | None = None,
    value_label: str = "value",
) -> None:
    """Write a deterministic matplotlib script next to its data files.

    ``kind``: "heatmap" (one JSON table, optional overlay curves from meta),
    "spectrum" (complex-plane scatter with the unit circle, one panel per
    CSV), "bands" (Re E vs kx, one panel per CSV), "trajectory" (3D
    Bloch-vector paths, one panel per CSV), or "lines" (first CSV column
    against the rest).
    """
    if kind not in _TEMPLATES:
        raise ValueError(f"unknown plot kind {kind!r}")
    takes_list, template = _TEMPLATES[kind]
    labels = labels if labels is not None else [os.path.basename(f) for f in data_files]
    text = template.format(
        data=data_files if takes_list else data_files[0],
        labels=labels,
        title=title,
        image=image,
        value_label=value_label,
    )
    with _opened(path, "plot script") as fh:
        fh.write(text)
