import ast
import hashlib

import pytest

from lossywalk.tables import emit_plot_script

# sha256 of each emitted script; a byte changed in the frame or in any body
# fails here
PLOT_SCRIPTS = [
    ("heatmap", ["phase.json"], "8f0fb042ac22c6dd7b0a053db511c827e07493122b670700a0290dd6c0d86e99"),
    ("lines", ["curves.csv"], "b20aeaefd489b8e13f4993d7f55b79e450a11ebfe2c4249b74298d2bfa76a9f5"),
    ("spectrum", ["a.csv"], "d6d390926c9ba0097ec1afd4844551f3d7555c98c5ee0608849e6f458854092e"),
    ("spectrum", ["a.csv", "b.csv"], "9d248ad980746a628f4fcaef2569e3fe1b675f598dc206717ed330f032712e40"),
    ("bands", ["a.csv"], "abf22ce610c53c46f042ff63c9fdee5434c9c0b3ef52cf6ff60247d1af24aa38"),
    ("bands", ["a.csv", "b.csv"], "14e76e4cca18ef6b019368a117b1a6305523916c0881dade080d905026bcb200"),
    ("trajectory", ["a.csv"], "d1b8d633ba2e2e2ba89bc08c3bd160f3bb674bd9422d21f0e4912214c0b24481"),
    ("trajectory", ["a.csv", "b.csv"], "aaa7be54c8d07d1f80ce92f9776890fe87dac6382e5e9bcbfc171fae3c940f38"),
]


@pytest.mark.parametrize("kind, data_files, sha", PLOT_SCRIPTS,
                         ids=[f"{kind}-{len(files)}" for kind, files, _ in PLOT_SCRIPTS])
def test_plot_script_bytes_pinned_and_compiles(tmp_path, kind, data_files, sha):
    path = tmp_path / "plot.py"
    emit_plot_script(kind, str(path), data_files, "out.png", title="T", value_label="W")
    text = path.read_bytes()
    compile(text, str(path), "exec")
    strings = {node.value for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert set(data_files) | {"out.png"} <= strings
    assert hashlib.sha256(text).hexdigest() == sha


def test_unknown_plot_kind_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot_script("pie", str(tmp_path / "plot.py"), ["a.csv"], "out.png")
    assert not (tmp_path / "plot.py").exists()
