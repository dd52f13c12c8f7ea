"""The package's source: no function or class is kept for the tests alone."""

import ast
from pathlib import Path

import polycycles

SOURCE = Path(polycycles.__file__).resolve().parent


def test_every_package_function_is_called_from_the_package():
    # a module-level def or class must be read by name somewhere in the
    # package; an import or an __all__ string does not count
    defined, read = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")]
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [name for name in defined if name.split(".")[1] not in read] == []


def test_no_module_reads_the_retired_second_term_fields():
    # a DulacExpansion keeps its monomials in terms, read one way only; the
    # document keys "next_exponent" and "next_coeff" are strings and pass
    reads = [f"{path.name}:{node.lineno}" for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("next_exponent", "next_coeff")]
    assert reads == []
