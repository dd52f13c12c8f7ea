"""The package's source: no function, class or constant is kept for the tests alone."""

import ast
from pathlib import Path

import polycycles

SOURCE = Path(polycycles.__file__).resolve().parent


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_package_function_is_called_from_the_package():
    # a module-level def, class or constant must be read by name somewhere in
    # the package, or, for the cli's entry points, as an attribute of the cli
    # module (_module); an import or an __all__ string does not count
    defined, read = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{name}" for node in tree.body for name in _defined(node)
                    if not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "_module"):
                read.add(node.attr)
    assert [name for name in defined if name.split(".")[1] not in read] == []


def test_no_module_reads_the_retired_second_term_fields():
    # a DulacExpansion keeps its monomials in terms, read one way only; the
    # document keys "next_exponent" and "next_coeff" are strings and pass
    reads = [f"{path.name}:{node.lineno}" for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("next_exponent", "next_coeff")]
    assert reads == []
