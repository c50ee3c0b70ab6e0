"""Every exported name resolves: the package's and each module's __all__.
No module imports a private name of a sibling, or a name it does not use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bayesgram

MODULES = sorted(m.name for m in pkgutil.iter_modules(bayesgram.__path__))


def test_package_all_resolves():
    assert [n for n in bayesgram.__all__ if not hasattr(bayesgram, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bayesgram.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


SOURCES = {name: Path(bayesgram.__file__).with_name(f"{name}.py") for name in MODULES}
SOURCES["__init__"] = Path(bayesgram.__file__)


def imported_names(tree):
    """(bound name, whether it comes from a sibling module, imported name, line)
    of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], None, a.name, a.lineno
        elif isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").startswith("bayesgram")
            for a in node.names:
                yield a.asname or a.name, sibling, a.name, a.lineno


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_private_name_from_a_sibling(name):
    tree = ast.parse(SOURCES[name].read_text(encoding="utf-8"))
    assert [imported for _, sibling, imported, _ in imported_names(tree)
            if sibling and imported.startswith("_")] == []


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_unused_import(name):
    text = SOURCES[name].read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(getattr(importlib.import_module(f"bayesgram.{name}"), "__all__", [])
                if name != "__init__" else bayesgram.__all__)
    assert [bound for bound, _, _, lineno in imported_names(tree)
            if bound not in used and "# noqa" not in lines[lineno - 1]] == []


def module_level_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_unreferenced_private_helper(name):
    """Every private module-level function, class or constant is used in its
    module outside its own definition, so a deleted caller leaves no orphan."""
    body = ast.parse(SOURCES[name].read_text(encoding="utf-8")).body
    orphans = []
    for i, node in enumerate(body):
        for defined in module_level_names(node):
            if not defined.startswith("_") or defined.startswith("__"):
                continue
            elsewhere = {n.id for other in body[:i] + body[i + 1:]
                         for n in ast.walk(other) if isinstance(n, ast.Name)}
            if defined not in elsewhere:
                orphans.append(defined)
    assert orphans == []


def write_mode(call):
    """The mode of an open() call when it is a string constant that can write."""
    args = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    mode = args[0].value if args and isinstance(args[0], ast.Constant) else ""
    return mode if set(mode) & set("wax+") else None


def test_outputs_are_written_through_atomic_open():
    """Apart from the training log, which a run writes row by row as it trains,
    every file src/ writes goes through corpus.atomic_open, so no failure leaves
    half a file where the old one was."""
    writers = [(name, ast.unparse(node)) for name, path in sorted(SOURCES.items())
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Name) and node.func.id == "open"
                    and write_mode(node)
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write_text", "write_bytes"))]
    assert writers == [("bsg", "open(log_path, 'w', newline='')")]
