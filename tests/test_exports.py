"""Every name a ``sasmot`` module exports in ``__all__`` exists, every name
a module imports is used and comes from the stdlib, numpy or the package
itself (scipy's compiled solver is loaded from its file, never imported),
every function and class it defines is referenced from the package or the
benchmark (a name only tests use does not count), the record dataclasses
declare slots, ``tracker.row_norms`` is the one embedding norm, the
memory imports nothing from the package, and every name the benchmark
under ``bench/`` reaches for is still there.

The benchmark checks are read from ``bench/`` source without importing it,
so a change that deletes a name the benchmark needs fails here.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import sasmot

BENCH = Path(__file__).resolve().parents[1] / "bench"
TESTS = Path(__file__).resolve().parent
SRC = Path(sasmot.__file__).resolve().parent

MODULES = ["sasmot"] + [
    f"sasmot.{info.name}" for info in pkgutil.iter_modules(sasmot.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes"


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        # No module re-exports an import, so only a read counts as a use.
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == [], "names imported but never used"


def _tracer_targets():
    """The ``module:attr.path`` string of each ``Target(...)`` in bench/tracer.py."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    return [
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"
    ]


def test_every_definition_is_referenced():
    # A function, method or class in src/ that neither the package nor the
    # benchmark names is surface that nothing needs; a name only tests use
    # is a test helper living in src/. The tracer patches by string, so
    # each part of a Target's attribute path counts. A definition is not a
    # Name or Attribute node, so it never counts as its own use.
    used = {part for where in _tracer_targets() for part in where.partition(":")[2].split(".")}
    for path in [*SRC.glob("*.py"), *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == [], "definitions that nothing references"


def test_every_instance_attribute_is_read():
    # State that a method stores on ``self`` and no code or test ever reads
    # back is dead weight on every instance. An augmented assignment stores,
    # so it does not count as a read either.
    read = set()
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr not in read):
                unread.append(f"{path.name}:{node.lineno} self.{node.attr}")
    assert unread == [], "instance attributes that nothing reads"


def test_only_the_tracker_makes_unchecked_detections():
    # ``tracker._detection`` skips ``Detection``'s checks, so only
    # ``_detection_frames`` may use it; every other module hands it rows.
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted([*SRC.glob("*.py"), *BENCH.glob("*.py")]) if path.name != "tracker.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "_detection"
    ]
    assert uses == [], "tracker._detection used outside tracker.py"


# Records made once per box, detection, stored feature, track or frame: a
# scene or a run holds thousands, and a per-instance ``__dict__`` would cost
# more than their fields.
RECORDS = {
    "geometry.py": ["Box2D"],
    "memory.py": ["MemoryEntry"],
    "tracker.py": ["Detection", "DetectionFrame", "TrackState", "FrameResult"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RECORDS.items() for n in names])
def test_record_dataclasses_declare_slots(module, name):
    tree = ast.parse((SRC / module).read_text())
    [cls] = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name]
    slots = [
        kw.value.value
        for dec in cls.decorator_list
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass"
        for kw in dec.keywords
        if kw.arg == "slots" and isinstance(kw.value, ast.Constant)
    ]
    assert slots == [True], f"{module}: {name} is not @dataclass(..., slots=True)"


def test_row_norms_is_the_one_embedding_norm():
    # ``embedding_fault``, the sidecar reader's mask and ``cosine_distance``
    # must round each norm alike: a second sum of squares may round a row
    # to the other side of inf. The simulator makes its unit rows with
    # np.linalg.norm's 1-D formula, so only ``vdot`` is refused there.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # each node's innermost enclosing function
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = ast.unparse(node.func)
            name = called.rpartition(".")[2]
            if (name == "vdot"
                    or (path.stem in ("tracker", "mot_io")
                        and (called.endswith("linalg.norm") or name == "dot"))
                    or (name == "einsum" and owner.get(node) != "row_norms")):
                found.append(f"{path.name}:{node.lineno} {called}")
    assert found == [], "embedding norms computed outside tracker.row_norms"


def test_imports_are_stdlib_numpy_or_relative():
    # Every import, at module level or inside a function: a third-party
    # import would add to start-up time and to what a user must install.
    # ``import scipy...`` is refused too: ``tracker`` loads only scipy's
    # compiled solver, and any scipy import would load far more.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names if name.split(".")[0] not in allowed
            ]
    assert foreign == [], "imports outside the stdlib and numpy"


def test_the_memory_imports_nothing_from_the_package():
    # TrackMemory takes a centre, an embedding, an overlap and a frame
    # index, so a tracker outside the package can drive it: memory.py may
    # import only the stdlib and numpy, never a sasmot module or name.
    inner = [
        f"memory.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "memory.py").read_text()))
        if (isinstance(node, ast.ImportFrom)
            and (node.level > 0 or node.module.split(".")[0] == "sasmot"))
        or (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "sasmot" for alias in node.names))
    ]
    assert inner == [], "memory.py imports from the package"


def test_bench_tracer_targets_resolve():
    import sasmot.cli  # noqa: F401  (loads every module the tracer patches)

    wheres = _tracer_targets()
    assert wheres, "no Target(...) entries found in bench/tracer.py"
    missing = []
    for where in wheres:
        module_name, _, path = where.partition(":")
        owner = sys.modules.get(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(where)
    assert missing == [], "bench/tracer.py TARGETS that no longer resolve"


@pytest.mark.parametrize("builder", ["ablation_table", "design_table"])
def test_bench_fingerprint_tables_render(builder):
    from sasmot import experiments
    from sasmot.simulator import ScenarioConfig

    assert f"experiments.{builder}" in (BENCH / "fingerprint.py").read_text()
    build = getattr(experiments, builder)
    table, _ = build(ScenarioConfig(n_objects=2, n_frames=10), None, [1])
    assert experiments.render_table_csv(table).startswith("variant,hota,")
