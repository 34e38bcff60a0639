"""A guard against dead public API: every public module-level function and
class of `duotune` has a caller in the package or the benchmark, or an entry
below saying why it stays; every public method and property of a `duotune`
class has one too, and every field of a public dataclass has a reader."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import duotune

ROOT = Path(__file__).resolve().parent.parent
MODULES = [m.name for m in pkgutil.iter_modules(duotune.__path__)]

# Public names that only tests call, each with the reason it stays.
NO_CALLER = {
    "tensor.matmul": "test oracle: a primitive chain the fused ops are checked against",
    "tensor.softmax": "test oracle: a primitive chain the fused ops are checked against",
    "tensor.layer_norm": "test oracle: a primitive chain the fused ops are checked against",
    "tensor.reshape": "test oracle: a primitive chain the fused ops are checked against",
    "tensor.transpose": "test oracle: a primitive chain the fused ops are checked against",
    "tensor.grad_check": "test oracle: the finite-difference gradient check",
    "optim.triplet_margin_loss_np": "test oracle: the NumPy reference of the one-node loss",
    "encoder.encode": "acceptance import",
    "encoder.similarity": "acceptance import",
    "encoder.trees_equal": "acceptance import",
    "data.expand_eval": "acceptance import",
    "tuning.validate_samples": "acceptance import",
    "metrics.rank_metrics": "wrapped by name in perfbench/tracer.py",
}

# Public dataclass fields that no package or benchmark code reads as an
# attribute, each with the reason it stays.
NO_READER = {
    "tuning.EpochRecord.epoch": "written to run.json by asdict",
    "metrics.ZTestResult.z_critical": "acceptance reads it",
    "data.MiningStats.kept_records": "acceptance reads it",
    "grid.GridComparison.not_significant": "acceptance reads it",
    "metrics.ZTestResult.p0": "test-only diagnostic",
    "metrics.ZTestResult.p1": "test-only diagnostic",
    "metrics.ZTestResult.pooled": "test-only diagnostic",
    "grid.GridComparison.verdicts": "test-only diagnostic",
    "data.SynthCorpus.language_maps": "test-only diagnostic",
}


def public_names() -> set:
    names = set()
    for mod in MODULES:
        m = importlib.import_module(f"duotune.{mod}")
        names.update(f"{mod}.{n}" for n, o in vars(m).items() if not n.startswith("_")
                     and (inspect.isfunction(o) or inspect.isclass(o))
                     and o.__module__ == m.__name__)
    return names


def used_names(path: Path) -> set:
    """`module.name` for each duotune name `path` imports, reads as an attribute
    of an imported module (`T.matmul`, `W.metrics.pnd`) or, inside the
    package, reads from its own module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent.name == "duotune" else None
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for a in node.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                elif source in MODULES:
                    used.add(f"{source}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            v = node.value
            if isinstance(v, ast.Name) and v.id in aliases:
                used.add(f"{aliases[v.id]}.{node.attr}")
            elif isinstance(v, ast.Attribute) and v.attr in MODULES:
                used.add(f"{v.attr}.{node.attr}")
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(f"{own}.{node.id}")
    return used


def public_classes() -> list:
    """(`module.Class`, class) for each public class."""
    classes = []
    for name in public_names():
        mod, _, attr = name.partition(".")
        obj = getattr(importlib.import_module(f"duotune.{mod}"), attr)
        if inspect.isclass(obj):
            classes.append((name, obj))
    return classes


def public_methods() -> set:
    """`module.Class.name` for each public method and property of a public class."""
    return {f"{name}.{a}" for name, obj in public_classes() for a, v in vars(obj).items()
            if not a.startswith("_") and (
                inspect.isfunction(v) or isinstance(v, (property, classmethod, staticmethod)))}


def public_fields() -> set:
    """`module.Class.field` for each field of a public dataclass."""
    return {f"{name}.{f.name}" for name, obj in public_classes() if dataclasses.is_dataclass(obj)
            for f in dataclasses.fields(obj)}


def attributes_read(path: Path) -> set:
    """The name of every attribute `path` reads (`x.name`), whatever `x` is."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


FILES = [*sorted((ROOT / "src" / "duotune").glob("*.py")),
         *(p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "selftest.py")]


def test_every_public_method_and_property_has_a_caller():
    # by name only: a method counts as called when any file reads an attribute of its name
    read = set().union(*map(attributes_read, FILES))
    assert {m for m in public_methods() if m.rpartition(".")[2] not in read} == set()


def test_every_public_function_and_class_has_a_caller():
    used = set().union(*map(used_names, FILES))
    public = public_names()
    assert set(NO_CALLER) <= public
    assert set(NO_CALLER) & used == set()    # an entry that gained a caller goes
    assert public - used - set(NO_CALLER) == set()


def test_every_public_field_has_a_reader():
    # by name only, as for methods
    read = set().union(*map(attributes_read, FILES))
    unread = {f for f in public_fields() if f.rpartition(".")[2] not in read}
    assert set(NO_READER) - unread == set()     # an entry that is not an unread field goes
    assert unread - set(NO_READER) == set()
