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


_STARTUP = """
import sys
import spectral_pairs, spectral_pairs.cli
print("scipy" in sys.modules)
from spectral_pairs.families import CUBIC, FamilySpec
from spectral_pairs.numeric import integrate_kernel
grid = integrate_kernel(FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 0)), False,
                        init=(0.0, 1.0), n_points=11)
print(abs(grid.phi - grid.x).max() < 1e-12, "scipy" in sys.modules)
"""


def test_importing_the_package_leaves_scipy_unloaded():
    # the exact engine never uses scipy: it is imported by the numeric code that calls it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", _STARTUP], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "True", "True"]


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


def test_cli_exit_codes_are_0_1_2():
    # one outcome per exit code: passed, failed or proven absent, bad usage
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Lambda)
        or (isinstance(node, ast.FunctionDef)
            and (node.name == "run_command" or node.name.startswith("_cmd_")))
    ]
    literals = [lit for fn in commands for lit in _returned_int_literals(fn)]
    assert len(commands) >= 8
    assert {value for _, value in literals} == {0, 1, 2}, literals
