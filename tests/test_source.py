import ast
import os
import subprocess
import sys
from pathlib import Path

import spectral_pairs

SRC = Path(spectral_pairs.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no correctness check may be one
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.rglob("*.py"))) > 10
    assert found == []


def test_package_imports_only_the_stdlib_numpy_and_scipy():
    # sympy and hypothesis are test oracles, never runtime dependencies
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "spectral_pairs"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                      for name in names if name.split(".")[0] not in allowed]
    assert found == []


def _imported_names(node) -> list:
    """Dotted module names and imported names of an import statement."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    return []


def test_only_the_rings_package_imports_the_fraction_field():
    # Frac(K[x]) is a test oracle: the exact engine never builds a fraction field
    fraction_field = SRC / "rings" / "fraction_field.py"
    defined = {node.name for node in ast.parse(fraction_field.read_text()).body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in (SRC / "rings" / "__init__.py", fraction_field)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _imported_names(node)
        if name.split(".")[-1] == "fraction_field" or name in defined
    ]
    assert {"FractionElem", "UniPoly", "RationalField"} <= defined
    assert found == []


def _mentions(node) -> list:
    """The identifiers, attributes, defined and imported names and strings
    (docstrings included) that one syntax node carries."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return _imported_names(node)


def test_only_the_definition_and_the_export_name_the_ansatz_oracles():
    # the degree-bounded ansatz and conjugation by a unit are test oracles: no
    # production code or docstring names them, so none builds the ansatz,
    # argues through it, or calls DiffOp.conjugate_by_unit.  Only their own
    # definitions and the package's re-export of the ansatz may.
    oracles = {"centralizer.py": {"build_ansatz_system", "AnsatzSystem"},
               "operators.py": {"conjugate_by_unit"}}
    names = set().union(*oracles.values())
    defined, found = [], []
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = [
            node for node in ast.walk(tree)
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name in oracles.get(where, ()))
            or (where == "__init__.py" and isinstance(node, ast.ImportFrom)
                and node.module == "centralizer")
        ]
        defined += [node.name for node in exempt if not isinstance(node, ast.ImportFrom)]
        skip = {id(inner) for node in exempt for inner in ast.walk(node)}
        found += [
            f"{where}:{getattr(node, 'lineno', '?')} {name}"
            for node in ast.walk(tree) if id(node) not in skip
            for text in _mentions(node)
            for name in sorted(names) if name in text
        ]
    assert sorted(defined) == sorted(names)
    assert found == []


def test_only_the_rings_package_reads_the_integer_form_of_polynomials():
    # how MultiPoly stores integers (the one-variable pair, the cleared
    # numerators, the lazily built terms) is the rings package's decision
    private = {"_cleared", "_ints", "_terms"}

    def reads(path):
        return [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if (isinstance(node, ast.Attribute) and node.attr in private)
            or (isinstance(node, ast.Constant) and node.value in private)
        ]

    rings = SRC / "rings"
    assert reads(rings / "multipoly.py")
    assert [f for path in sorted(SRC.rglob("*.py")) if rings not in path.parents
            for f in reads(path)] == []


def _calls_by_function(tree, name: str) -> list:
    """(innermost enclosing function or None, line) of each call of ``name``."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            called = node.func
            if getattr(called, "id", None) == name or getattr(called, "attr", None) == name:
                found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_only_find_and_pair_build_a_marked_partner():
    # a curves._Commuting operator vouches for [L4, M] = 0 without a second
    # expansion, so only find_commuting_operator, after its exact check, and
    # hyperelliptic_pair, whose M' - M lies in Q[L4], may build one
    marking = sorted(
        (str(path.relative_to(SRC)), fn)
        for path in SRC.rglob("*.py")
        for fn, _ in _calls_by_function(ast.parse(path.read_text()), "_Commuting")
    )
    assert marking == [("centralizer.py", "find_commuting_operator"),
                        ("centralizer.py", "hyperelliptic_pair")]
    tree = ast.parse((SRC / "centralizer.py").read_text())
    find = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "find_commuting_operator")
    checks = [
        node.end_lineno for node in ast.walk(find)
        if isinstance(node, ast.If)
        and any(getattr(n, "attr", None) == "commutator" for n in ast.walk(node.test))
        and any(isinstance(n, ast.Raise) for n in node.body)
    ]
    [(_, mark)] = _calls_by_function(find, "_Commuting")
    assert checks and max(checks) < mark


def test_no_module_memoizes_with_functools():
    # the benchmark repeats its inputs pass after pass: a cache keyed by value
    # would measure memory instead of work
    memos = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = [node.attr]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {n}" for n in names if n in memos]
    assert found == []


_STARTUP = """
import sys
import spectral_pairs, spectral_pairs.cli
print("scipy" in sys.modules, "numpy" in sys.modules)
from spectral_pairs.families import CUBIC, FamilySpec
from spectral_pairs.numeric import integrate_kernel
grid = integrate_kernel(FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 0)), False,
                        init=(0.0, 1.0), n_points=11)
print(abs(grid.phi - grid.x).max() < 1e-12, "scipy" in sys.modules, "numpy" in sys.modules)
"""


def test_importing_the_package_leaves_scipy_unloaded():
    # the exact engine never uses numpy or scipy: the numeric code that calls
    # them imports them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", _STARTUP], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "False", "True", "True", "True"]


def _returned_int_literals(fn) -> list:
    """(line, value) of the integer literals in ``fn``'s return values."""
    if isinstance(fn, ast.Lambda):
        values = [fn.body]
    else:
        values = [node.value for node in ast.walk(fn)
                  if isinstance(node, ast.Return) and node.value is not None]
    return [
        (node.lineno, node.value)
        for value in values
        for node in ast.walk(value)
        if isinstance(node, ast.Constant) and type(node.value) is int
    ]


def test_cli_exit_codes_are_0_1_2_3():
    # one outcome per exit code: passed, failed or proven absent, bad usage,
    # internal error; 3 comes from run_command's last handler alone
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Lambda)
        or (isinstance(node, ast.FunctionDef)
            and (node.name == "run_command" or node.name.startswith("_cmd_")))
    ]
    literals = [lit for fn in commands for lit in _returned_int_literals(fn)]
    assert len(commands) >= 8
    assert {value for _, value in literals} == {0, 1, 2, 3}, literals
    threes = [getattr(fn, "name", "<lambda>") for fn in commands
              for _, value in _returned_int_literals(fn) if value == 3]
    assert threes == ["run_command"], threes
