"""The factor path stays free of the dense oracles.

``spingauss.reference`` holds the dense constructions the tests compare
against.  No other module of the package may import it, so the command line,
and with it every benchmarked path, never loads it.  No module of the
package imports ``scipy`` at all (the column kernel and the binomial weights
are the package's own), and a command-line run loads no module of numpy
that its import did not: what the run path needs is imported with the
package.  The import loads no process pool either: only a grid run with
``--workers`` above 1 imports ``concurrent.futures``, in the command line,
so a serial run, the one every benchmark workload makes, never loads it.
And no function outside it takes a Fock cutoff: each state's core holds
every row it reaches.  No state outside it carries a gauge angle:
each is stored in the frame of the u it was built at, so no field,
parameter, keyword or attribute read is named ``psi``.  Every rotation and
displacement column comes from the one column kernel,
``numerics.three_term_columns``: the Chebyshev propagator and its Bessel
coefficients are named only in ``reference``, as oracles, and so is the
half-step walk that the whole-step ``rotation_walk`` replaced.  Only ``irreps``
runs the rotation kernel ``rotation_columns``: every other module takes its
blocks from one ``rotation_walk`` per (n, u), so no per-block kernel loop
can return.  Only ``qubit_model`` selects and rotates blocks: no other module
reads ``NEGLIGIBLE_WEIGHT`` or calls ``rotation_walk``, and none but
``reference`` names the weight table ``block_weights``, so every state and
the TV grid hold the one selection ``qubit_model.occurring_range`` makes.
And ``qubit_model`` compares no blocks: it never names
``factor_difference_eigvals``, so each experiment takes the distances of
the one block stream it reads.
Every Gauss-Legendre rule comes from the one cached function
``oscillator._gauss_legendre``, every coherent row from the one kernel
``oscillator._coherent_rows``, which runs in real arithmetic alone (a
complex row is the real row times its frame phases), and every Poisson
closed form from the one
anchor helper ``oscillator._log_poisson``: no other function of
``oscillator`` reads ``stirling_remainder``, both the row recurrence and
the radial density call the helper, and the radial density
``heterodyne_pdf_kernel`` never names ``_coherent_rows``, so it holds no
buffer of rows.  The heterodyne
density has one kernel per experiment: in ``measurements`` only the risk
(``heterodyne_estimation_risk``, ``heterodyne_samples``) calls the radial
kernel ``heterodyne_pdf_kernel``, at the distances |u_hat - u|, and only
the TV grid (``_tv_grid``) builds the polar kernel ``PolarHeterodyne``,
whose blocks are not radial.  Discrimination is a
state against its own mirror: no module outside ``reference`` defines or
calls a ``mirrored`` state, and ``measurements`` takes every discrimination
trace norm from ``numerics.mirror_trace_norm``, never from the generic
``factor_difference_eigvals``.  And no name outside ``reference`` lacks a
production caller: every top-level function or class, and every public
method or property, of a module other than ``reference`` and
``__init__`` is used by some other statement of those modules, or stands
in ``WITHOUT_CALLER`` with the reason it stays.  Every experiment reads
the blocks once, as the walk yields them: no ``tuple(...)``, ``list(...)``
or comprehension outside ``reference`` runs over ``rotated_blocks`` or
``rotation_walk``.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


GAUGE_NAMES = {"psi", "psi_f", "psi_g"}


def gauge_angle_uses(tree: ast.AST) -> list[str]:
    """Every class field, function parameter, call keyword and attribute
    read of ``tree`` named in ``GAUGE_NAMES``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found.extend(
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id in GAUGE_NAMES
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            found.extend(
                f"{getattr(node, 'name', 'lambda')}({p.arg})" for p in params if p.arg in GAUGE_NAMES
            )
        elif isinstance(node, ast.keyword) and node.arg in GAUGE_NAMES:
            found.append(f"{node.arg}=")
        elif isinstance(node, ast.Attribute) and node.attr in GAUGE_NAMES:
            found.append(f".{node.attr}")
    return found


def test_no_state_outside_reference_carries_a_gauge_angle():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reference.py"
        and (names := gauge_angle_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def name_uses(tree: ast.AST) -> Counter:
    """How often ``tree`` uses each name, reads it as an attribute or imports it."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.rsplit(".", 1)[-1]] += 1
    return uses


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` uses, reads as an attribute or imports."""
    return set(name_uses(tree))


def test_only_irreps_references_the_rotation_propagator():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "irreps.py"
        and "rotation_columns" in referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


ORACLE_ONLY = {
    "tridiagonal_propagator",
    "bessel_j",
    "propagator_degree",
    "displacement_core",
    "_half_step",
    "half_step_walk",
}


def test_only_reference_names_the_chebyshev_propagator():
    def names(tree):
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        return referenced_names(tree) | defined

    offenders = {
        path.name: sorted(found)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reference.py"
        and (found := ORACLE_ONLY & names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_only_qubit_model_selects_and_rotates_blocks():
    def offenders(names, owners):
        return [
            path.name
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in owners and names & referenced_names(ast.parse(path.read_text(encoding="utf-8")))
        ]

    assert offenders({"NEGLIGIBLE_WEIGHT", "rotation_walk"}, ("qubit_model.py", "irreps.py", "reference.py")) == []
    assert offenders({"block_weights"}, ("qubit_model.py", "reference.py")) == []


def test_qubit_model_compares_no_blocks():
    tree = ast.parse((PACKAGE / "qubit_model.py").read_text(encoding="utf-8"))
    assert "factor_difference_eigvals" not in referenced_names(tree)


def test_only_the_cached_rule_names_leggauss():
    owners = {
        (path.name, getattr(stmt, "name", None))
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if "leggauss" in referenced_names(stmt)
    }
    assert owners == {("oscillator.py", "_gauss_legendre")}


def test_one_coherent_row_kernel():
    # the Stirling remainder anchors the coherent rows and the thermal
    # density's blocks; only their one anchor helper may read it, so no
    # second closed form grows beside it, and the radial density forms no
    # coherent row, so no buffer of rows can return to the risk; the row
    # kernel is real, with no complex branch, interleaved view or buffer
    tree = ast.parse((PACKAGE / "oscillator.py").read_text(encoding="utf-8"))
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    owners = {
        getattr(stmt, "name", None)
        for stmt in tree.body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
        and "stirling_remainder" in referenced_names(stmt)
    }
    assert owners == {"_log_poisson"}
    for kernel in ("_coherent_rows", "heterodyne_pdf_kernel"):
        assert "_log_poisson" in defined_or_called(functions[kernel])
    assert "_coherent_rows" not in referenced_names(functions["heterodyne_pdf_kernel"])
    assert not {"complex", "iscomplexobj", "view"} & referenced_names(functions["_coherent_rows"])


def test_one_radial_risk_kernel_and_one_polar_tv_kernel():
    tree = ast.parse((PACKAGE / "measurements.py").read_text(encoding="utf-8"))

    def callers(names):
        return {
            getattr(stmt, "name", None)
            for stmt in tree.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and names & referenced_names(node.func)
        }

    assert callers({"heterodyne_pdf_kernel"}) == {
        "heterodyne_estimation_risk",
        "heterodyne_samples",
    }
    assert callers({"PolarHeterodyne"}) == {"_tv_grid"}


def defined_or_called(tree: ast.AST) -> set[str]:
    """Every function or class ``tree`` defines, and every name it calls."""
    names = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names


def test_no_mirrored_state_outside_reference():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reference.py"
        and "mirrored" in defined_or_called(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_discrimination_takes_no_generic_pair_kernel():
    tree = ast.parse((PACKAGE / "measurements.py").read_text(encoding="utf-8"))
    assert "factor_difference_eigvals" not in defined_or_called(tree)
    assert "mirror_trace_norm" in defined_or_called(tree)


STREAMS = {"rotated_blocks", "rotation_walk"}
MATERIALIZERS = {"tuple", "list", "set", "frozenset", "sorted"}


def materialized_streams(tree: ast.AST) -> list[str]:
    """Every ``tuple(...)``, ``list(...)`` (or the like) and every list, set
    or dict comprehension of ``tree`` that runs over a block stream: a call
    of a name in ``STREAMS``, or a name that an assignment in the same
    function binds to one."""

    def called(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] in STREAMS

    found = {}
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in [tree, *functions]:
        nodes = list(ast.walk(scope))
        bound = set() if scope is tree else {
            target.id
            for node in nodes
            if isinstance(node, ast.Assign) and called(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in nodes:
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in MATERIALIZERS:
                sources = node.args[:1]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                sources = [gen.iter for gen in node.generators]
            else:
                continue
            if any(called(src) or (isinstance(src, ast.Name) and src.id in bound) for src in sources):
                found[id(node)] = ast.unparse(node)
    return sorted(found.values())


def test_no_tuple_of_blocks_on_the_run_path():
    # every experiment reads the blocks once, as the walk yields them, so
    # no module but the oracles' materializes a block stream
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reference.py"
        and (found := materialized_streams(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


# Names no other statement outside ``reference`` and ``__init__`` uses, and
# why each stays; any other such name fails the gate below, and so does an
# entry here that has gained a caller or is gone.
WITHOUT_CALLER = {
    "channels.coherent_vector_distance": "README lemma API: the coherent-vector limit",
    "channels.composition_defect": "README lemma API: the rotation composition limit",
    "qubit_model.multiplicity": "README lemma API: the exact block multiplicity",
    "qubit_model.log_multiplicity": "README lemma API: the block multiplicity in log space",
    "qubit_model.concentration_weight": "README lemma API: the weight of the concentration set",
    "qubit_model.valid_spins": "README lemma API: the spins compatible with n qubits",
    "qubit_model.block_weight": "single-spin read of the one block weight table",
    "qubit_model.log_block_weight": "single-spin read of the block weight in log space",
    "oscillator.FockOperator.matrix": "the dense view every reference oracle's result is compared through",
    "oscillator.FockOperator.trunc": "read by bench/spans.py (_dim_max) until ROADMAP item 1's run trace replaces it",
}


def definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function or class of
    ``tree`` and every public method or property of its classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{stmt.name}.{item.name}", item


def test_every_name_outside_reference_has_a_caller():
    # a name counts as used when some statement other than its own
    # definition names it; matching is by bare name, so a method counts as
    # used if any attribute of that name is read
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("reference.py", "__init__.py")
    }
    uses = sum((name_uses(tree) for tree in trees.values()), Counter())
    without_caller = {
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in definitions(tree)
        if uses[node.name] == name_uses(node)[node.name]
    }
    unlisted = sorted(without_caller - WITHOUT_CALLER.keys())
    assert not unlisted, f"no production caller: {', '.join(unlisted)}"
    stale = sorted(WITHOUT_CALLER.keys() - without_caller)
    assert not stale, f"listed in WITHOUT_CALLER, but used or gone: {', '.join(stale)}"


def package_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))


def test_no_package_module_imports_scipy():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(
            name == "scipy" or name.startswith("scipy.")
            for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert offenders == []


def test_cli_import_leaves_reference_unloaded():
    probe = (
        "import sys, spingauss.cli; "
        "print(sorted(m for m in sys.modules if m == 'spingauss.reference' or m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a grid run with --workers > 1 imports it
    probe = (
        "import sys, spingauss.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"


CLI_RUNS = (
    ["convergence", "--mu", "0.75", "--n", "4,8", "--grid", "0.3,0.2"],
    ["measure-compare", "--mu", "0.75", "--n", "16", "--grid", "0.3,0.2"],
    ["discriminate", "--mu", "0.75", "--n", "16", "--grid", "0.3,0.2"],
    ["risk", "--mu", "0.75", "--samples", "2000", "--seed", "1"],
)


def test_cli_runs_load_no_further_numpy_or_scipy_module():
    # one small run of each kind after the import: a numpy submodule that
    # first loads here would be timed in the run, not in the import; and a
    # serial run loads no process pool at all
    probe = (
        "import contextlib, io, sys\n"
        "from spingauss import cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(CLI_RUNS)!r}]\n"
        "print(codes, sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, timeout=120, check=True
    )
    assert result.stdout.splitlines() == ["[0, 0, 0, 0] []", "[]"]
