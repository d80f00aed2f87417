"""Every name a ``lossywalk`` module or a test module imports is used in that module,
every module-level private name and dataclass field of ``lossywalk`` is read somewhere,
no ``lossywalk`` module forms an ``@`` matrix product, every dense eigensolve
goes through ``linalg.eig_general``, which pins BLAS to one thread first,
only ``linalg`` (the process policy) imports ``ctypes``, every file the CLI
writes goes through ``tables._opened``, which alone makes directories, and
``__init__`` binds the package namespace only by star imports of each
module's ``__all__``.

No linter ships with the project, so these stdlib ``ast`` checks stand in
for one.  ``__init__`` (whose imports are the package's re-exports) and
``from __future__`` imports are exempt from the import check.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import lossywalk

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lossywalk"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x = np.zeros(dumps(1))\n"
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level ``_name`` functions, classes and assignments (dunders excluded)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update((n, node) for n in names if n.startswith("_") and not n.startswith("__"))
    return defs


def references(node: ast.AST) -> Counter:
    """Reads of each name under ``node``.

    Loaded names and attributes, imported names, and the dotted parts of
    string constants (the benchmark patches functions by their names).
    """
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.update(n.value.split("."))
    return refs


def dead_private_names(defining: dict[str, str], readers: list[str]) -> list[str]:
    """``module._name`` of each private name of ``defining`` read only in its own definition.

    ``defining`` maps module names to sources; a read counts in any of them
    or in ``readers``.
    """
    trees = {mod: ast.parse(src) for mod, src in defining.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        total += references(tree)
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name, node in private_definitions(tree).items()
                  if total[name] == references(node)[name])


def test_dead_private_names_finds_only_unread_privates():
    module = (
        "import re\n"
        "_USED = re.compile('x')\n"
        "_UNUSED = 1\n"
        "__dunder__ = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _patched():\n    pass\n"
        "def public():\n    return _USED\n"
    )
    reader = "PATCHES = [('pkg.mod', 'mod._patched')]\n"
    assert dead_private_names({"mod": module}, [reader]) == ["mod._UNUSED", "mod._recursive"]


def test_private_names_are_read():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for p in PERFBENCH.rglob("*.py")]
    assert dead_private_names(modules, readers) == []


def dataclass_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class, field)`` of each annotated field of a ``@dataclass`` class in ``tree``."""
    def is_dataclass(dec):
        target = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [(node.name, item.target.id) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded under ``tree``, and the dotted parts of its string constants."""
    reads = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            reads.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            reads.update(n.value.split("."))
    return reads


def unread_fields(defining: list[str], readers: list[str]) -> list[str]:
    """``Class.field`` of each dataclass field in ``defining`` that no source reads.

    A field is read as an attribute (not a keyword argument or a plain name)
    or as a dotted part of a string, in ``defining`` or ``readers``.
    """
    trees = [ast.parse(src) for src in [*defining, *readers]]
    reads = set().union(*map(attribute_reads, trees))
    return sorted(f"{cls}.{name}" for tree in trees[:len(defining)]
                  for cls, name in dataclass_fields(tree) if name not in reads)


def test_unread_fields_finds_only_unread_fields():
    module = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    value: float\n"
        "    size: int\n"
        "    label: str = 'x'\n"
        "    LIMIT = 3\n"
        "@dataclasses.dataclass\n"
        "class Table:\n"
        "    rows: list = field(default_factory=list)\n"
        "    meta: dict = field(default_factory=dict)\n"
        "class Plain:\n"
        "    hidden: int\n"
        "def make(size):\n"
        "    return Report(value=1.0, size=size)\n"
    )
    reader = "r = make(2)\nprint(r.value, getattr(r, 'label'), Table().rows)\nNAMES = ['Table.meta']\n"
    assert unread_fields([module], [reader]) == ["Report.size"]


def test_dataclass_fields_are_read():
    defining = [p.read_text() for p in SRC.glob("*.py")]
    readers = [p.read_text() for p in [*PERFBENCH.rglob("*.py"), *TESTS.glob("*.py")]]
    assert unread_fields(defining, readers) == []


def matmul_lines(source: str) -> list[int]:
    """Line of each ``@`` or ``@=`` matrix product in ``source`` (not decorators or text)."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult))


def test_matmul_lines_finds_only_products():
    module = (
        '"""u @ v in a docstring is text."""\n'
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class P:\n"
        "    x: float\n"
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    return c, 'a @ b'\n"
    )
    assert matmul_lines(module) == [7, 8]


def test_library_forms_no_matrix_product():
    # a 2x2 operator is a tuple of its entries and a relation a reordering of
    # them (``walks``, ``symmetries``); only LAPACK sees a dense matrix
    found = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py")) for line in matmul_lines(p.read_text())]
    assert found == []


def unpinned_eig_calls(source: str, entry: str | None) -> list[str]:
    """``function:line`` of each ``linalg.eig``/``eigvals`` call outside the function ``entry``,
    or inside it but not after its first ``_process_policy()`` call."""
    found = []

    def visit(node, function, pinned_at):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            pins = [c.lineno for c in ast.walk(node) if isinstance(c, ast.Call)
                    and getattr(c.func, "id", getattr(c.func, "attr", None)) == "_process_policy"]
            pinned_at = min(pins) if function == entry and pins else None
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("eig", "eigvals")
              and getattr(node.func.value, "attr", None) == "linalg"
              and (pinned_at is None or node.lineno <= pinned_at)):
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, pinned_at)

    visit(ast.parse(source), "<module>", None)
    return found


def test_unpinned_eig_calls_finds_only_calls_outside_the_pin():
    module = (
        "import numpy as np\n"
        "def eig_general(m):\n"
        "    early = np.linalg.eigvals(m)\n"
        "    _process_policy()\n"
        "    return early, np.linalg.eig(m), np.linalg.eigvals(m)\n"
        "def other(m):\n"
        "    linalg._process_policy()\n"
        "    return np.linalg.eig(m), np.linalg.eigh(m), eig(m)\n"
        "def unpinned_entry(m):\n"
        "    return np.linalg.eig(m)\n"
        "b = numpy.linalg.eigvals(np.eye(2))\n"
    )
    assert unpinned_eig_calls(module, "eig_general") == [
        "eig_general:3", "other:8", "unpinned_entry:10", "<module>:11"]
    # an entry point that never pins guards nothing
    assert unpinned_eig_calls(module, "unpinned_entry") == [
        "eig_general:3", "eig_general:5", "eig_general:5", "other:8", "unpinned_entry:10", "<module>:11"]


def test_every_dense_eigensolve_runs_at_one_blas_thread():
    # LAPACK's bits depend on the BLAS thread count, so every dense solve goes
    # through the one entry point, linalg.eig_general, after its pin
    found = [f"{p.name}:{call}" for p in sorted(SRC.glob("*.py"))
             for call in unpinned_eig_calls(p.read_text(), "eig_general" if p.name == "linalg.py" else None)]
    assert found == []
    # not vacuous: the entry point holds the package's two LAPACK calls
    calls = unpinned_eig_calls((SRC / "linalg.py").read_text(), None)
    assert [call.split(":")[0] for call in calls] == ["eig_general", "eig_general"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_linalg_imports_ctypes():
    # the process policy (BLAS pin and heap thresholds) is the package's only
    # foreign call, so one module holds it
    assert imported_modules("import ctypes.util\nfrom ctypes import CDLL\nfrom . import os\n") == {"ctypes"}
    assert [p.name for p in sorted(SRC.glob("*.py")) if "ctypes" in imported_modules(p.read_text())] == ["linalg.py"]


def file_calls(source: str) -> list[str]:
    """``function:call:line`` of each ``open`` that may write and each ``makedirs``/``mkdir`` call.

    An ``open`` reads when its mode (second argument or ``mode=``) is absent
    or a string constant without "w", "a", "x" or "+"; any other counts as
    ``open`` here.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                       and not set("wax+") & set(m.value) for m in modes):
                found.append(f"{function}:open:{node.lineno}")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("makedirs", "mkdir"):
            found.append(f"{function}:{node.func.attr}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_file_calls_finds_only_writes_and_directory_calls():
    module = (
        "import os, pathlib\n"
        "def read(p):\n"
        "    with open(p) as a, open(p, 'rb') as b, open(p, mode='r') as c:\n"
        "        return a, b, c, 'open(p, \"w\")'\n"
        "def write(p, mode):\n"
        "    open(p, 'w'); open(p, 'r+b'); open(p, mode=mode); open(p, 'a')\n"
        "    os.makedirs(os.path.dirname(p))\n"
        "    pathlib.Path(p).mkdir()\n"
        "os.makedirs('out', exist_ok=True)\n"
    )
    assert file_calls(module) == ["write:open:6", "write:open:6", "write:open:6", "write:open:6",
                                  "write:makedirs:7", "write:mkdir:8", "<module>:makedirs:9"]


def test_one_writer_makes_the_output_directory():
    # every command solves first and writes through tables._opened, which makes
    # the file's directory: a command that fails before its first write leaves
    # no --outdir behind (cli reads its config file, and writes nothing itself)
    assert file_calls((SRC / "cli.py").read_text()) == []
    dirs = [f"{p.name}:{call.rsplit(':', 1)[0]}" for p in sorted(SRC.glob("*.py"))
            for call in file_calls(p.read_text()) if call.split(":")[1] != "open"]
    assert dirs == ["tables.py:_opened:makedirs"]


# the names ``__init__`` re-exported one by one, and the five that only a
# module's ``__all__`` listed until ``__init__`` took every ``__all__``
LISTED_NAMES = {
    "BandData1D", "BandData2D", "BlochDecomposition", "CheckpointMismatch", "ConvergenceFailure",
    "CriticalGamma", "CriticalKind", "DegenerateCoin", "EdgeStateReport", "GapClosure",
    "InvalidRegion", "NoBracket", "OrthogonalLink", "RegionSpec", "StripBands", "SweepTable",
    "SymmetryReport", "WalkParams1D", "WalkParams2D", "WindingResult", "band_spectrum_1d",
    "band_spectrum_2d", "bloch_ssqw", "build_chain_operator", "build_strip_operator",
    "chain_spectrum", "check_cs", "check_exact_pt", "check_phs", "check_pt_1d", "chern_number",
    "critical_gamma", "detect_edge_states", "eig_general", "emit_plot_script",
    "find_exceptional_point", "min_positive_critical_gamma", "momentum_grid", "pancharatnam_phase",
    "quasi_energy_2d", "quasi_energy_ssqw", "quasienergy", "read_table", "strip_band_structure",
    "strip_gap_states", "strip_gap_states_grid", "sweep_chern_2d", "sweep_chern_vs_gamma",
    "sweep_phase_diagram_1d", "sweep_winding_vs_gamma", "u1d_dtqw_k", "u1d_ssqw_k",
    "u1d_ssqw_timesym_k", "u2d_k", "u2d_triangular_k", "winding_number", "write_table",
}
ADDED_NAMES = {"STATUS_OK", "STATUS_GAP_CLOSED", "STATUS_ERROR", "STATUS_LABELS", "write_spectrum_csv"}


def star_modules(source: str) -> list[str]:
    """Modules that ``source`` star-imports from its own package, in order."""
    return [n.module for n in ast.parse(source).body if isinstance(n, ast.ImportFrom)
            and n.level == 1 and [a.name for a in n.names] == ["*"]]


def test_init_binds_no_public_name_by_an_explicit_import():
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = [a.asname or a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
             for a in n.names]
    assert [name for name in bound if name != "*" and not name.startswith("_")] == []
    assert star_modules("from .a import *\nfrom .b import c\nfrom d import *\n") == ["a"]


def declares_all(source: str) -> bool:
    """Whether ``source`` assigns ``__all__`` at module level."""
    return any(isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets)
               for n in ast.parse(source).body)


def test_package_namespace_is_each_modules_all():
    modules = star_modules((SRC / "__init__.py").read_text())
    assert {p.stem for p in SRC.glob("*.py") if declares_all(p.read_text())} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"lossywalk.{name}")
        exported = getattr(module, "__all__", None)
        if exported is None:  # errors: nothing but its exception classes
            exported = [n for n in vars(module) if not n.startswith("_")]
            assert exported and all(map(inspect.isclass, (getattr(module, n) for n in exported)))
        for n in exported:
            assert getattr(lossywalk, n) is getattr(module, n), f"{name}.{n}"
    public = {n for n, v in vars(lossywalk).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == LISTED_NAMES | ADDED_NAMES
