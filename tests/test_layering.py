"""The factor path stays free of the dense oracles.

``spingauss.reference`` holds the dense constructions the tests compare
against.  No other module of the package may import it, so the command line,
and with it every benchmarked path, never loads it.  Nor does the command
line load ``scipy.linalg``: every trace norm it takes is Hermitian.  And
no function outside it takes a Fock cutoff: each state's core holds every
row it reaches.  Only ``irreps`` runs the rotation propagator
``rotation_columns``: every other module takes its blocks from one
``rotation_walk`` per (n, u), so no per-block propagator loop can return.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spingauss

PACKAGE = Path(spingauss.__file__).parent


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an ``import`` statement of ``tree`` names, with relative
    imports resolved against the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "spingauss" + (f".{node.module}" if node.module else "") if node.level else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_package_module_imports_reference():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reference.py"
        and any(
            name == "spingauss.reference" or name.startswith("spingauss.reference.")
            for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert offenders == []


def truncation_parameters(tree: ast.AST) -> list[str]:
    """``function(parameter)`` for every parameter of ``tree`` that is named
    ``trunc`` or annotated with ``FockTruncation``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            found.extend(
                f"{getattr(node, 'name', 'lambda')}({p.arg})"
                for p in params
                if p.arg == "trunc" or (p.annotation and "FockTruncation" in ast.unparse(p.annotation))
            )
    return found


def test_no_function_outside_reference_takes_a_truncation():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reference.py"
        and (names := truncation_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` uses, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_only_irreps_references_the_rotation_propagator():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "irreps.py"
        and "rotation_columns" in referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_cli_import_leaves_reference_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, spingauss.cli; "
        "print(sorted(m for m in ('spingauss.reference', 'scipy.linalg') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"
