"""Every public name is reached by the program or by an acceptance test.

A name in the `__all__` of a hankelspec module must exist, and must be used
by code in `src/hankelspec` outside its own definition (an AST name or
attribute, not a string), or be imported by `tests/test_acceptance.py`.  The
one name kept for unit tests alone, a reference they compare against, is
listed below with its reason.  A stale `__all__` entry also breaks
`benchmarks/spans.py`, which looks every entry up.  The package's own
`__all__` lists the submodules and is not checked.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hankelspec"

ALLOWED_UNUSED = {
    "hankel_core.build_discrete": "the built discrete truncation, the dense reference the expsum route is tested against",
}
TREES = {
    path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))
}


def _reads() -> list:
    """(identifier, module, enclosing top-level def or class) of every name or attribute read."""
    out = []
    for stem, tree in TREES.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.append((node.id, stem, owner))
                elif isinstance(node, ast.Attribute):
                    out.append((node.attr, stem, owner))
    return out


READS = _reads()


def _uses(name: str, defined_in: str) -> int:
    """Reads of `name` outside its own top-level definition in module `defined_in`."""
    return sum(
        1 for ident, stem, owner in READS
        if ident == name and (stem, owner) != (defined_in, name)
    )


ACCEPTANCE_IMPORTS = {
    f"{node.module.rsplit('.', 1)[-1]}.{alias.name}"
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hankelspec.")
    for alias in node.names
}
PUBLIC = sorted(
    (stem, name)
    for stem in TREES
    if stem != "__init__"
    for name in getattr(importlib.import_module(f"hankelspec.{stem}"), "__all__", [])
)


@pytest.mark.parametrize("stem, name", PUBLIC, ids=[f"{s}.{n}" for s, n in PUBLIC])
def test_public_name_is_reached(stem, name):
    module = f"hankelspec.{stem}"
    assert hasattr(importlib.import_module(module), name), f"{module}.__all__ names a missing {name!r}"
    key = f"{stem}.{name}"
    if key in ALLOWED_UNUSED:
        return
    used = _uses(name, stem) > 0 or key in ACCEPTANCE_IMPORTS
    assert used, (
        f"{module}.{name} is public but nothing in src/hankelspec or the acceptance "
        f"tests uses it: wire it into the program or delete it with its tests"
    )


def test_allowlist_entries_are_public_and_still_unused():
    public = {f"{stem}.{name}" for stem, name in PUBLIC}
    for key in ALLOWED_UNUSED:
        stem, name = key.split(".")
        assert key in public, f"allowlisted {key} is not public any more"
        assert _uses(name, stem) == 0, f"{key} is used now; drop it from the allowlist"


def test_physical_memory_is_read_in_one_function():
    # One size rule: every refusal for want of memory goes through it.
    readers = {(stem, owner) for ident, stem, owner in READS if ident == "sysconf"}
    assert readers == {("hankel_core", "require_memory")}


def _imports(stem: str) -> set:
    """Modules and names the module imports, each by its last dotted part."""
    imported = set()
    for node in ast.walk(TREES[stem]):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return imported


def test_hankel_core_does_not_import_the_solvers():
    # The solve plan lives in eigensolve; hankel_core is below both solvers.
    assert not _imports("hankel_core") & {"expsum", "eigensolve"}


def test_quadrature_does_not_import_the_solvers():
    # quadrature builds grids and compares the spectra its caller solved.
    assert not _imports("quadrature") & {"expsum", "eigensolve"}
