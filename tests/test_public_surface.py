"""Every public module-level function and class of the package is reached,
and so is every public method and property of its classes.

A public name counts as reached when some code of the package outside its
own definition refers to it, when ``at4tools.__all__`` lists it, or when a
benchmark script imports it or reads it as an attribute (the witness
generators and text writers serve the benchmark).  A public method or
property counts as reached when the package outside its own definition, or
a benchmark script, reads an attribute of that name.  Code that only the
tests reach belongs in the tests, as the oracles of tests/oracles.py do.
"""

import ast
from collections import Counter
from pathlib import Path

import at4tools

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "at4tools"


def names_used(tree) -> set[str]:
    """Names read, attributes read and names imported anywhere in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_definition_is_reached():
    statements = [
        (path.stem, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    # names used per top-level statement, so that a definition's use of
    # its own name does not count
    uses = [(node, names_used(node)) for _, node in statements]
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    unreached = [
        f"{module}.{node.name}"
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in at4tools.__all__
        and node.name not in bench
        and not any(node.name in used for other, used in uses if other is not node)
    ]
    assert unreached == []


def attributes_read(tree) -> Counter:
    """How often tree reads an attribute of each name."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_method_is_reached():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    src = sum(map(attributes_read, trees.values()), Counter())
    bench = Counter()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench += attributes_read(ast.parse(path.read_text(encoding="utf-8")))
    unreached = [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and not bench[node.name]
        and src[node.name] <= attributes_read(node)[node.name]
    ]
    assert unreached == []
