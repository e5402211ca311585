"""Every public module-level function and class of the package is reached,
and so is every public method and property of its classes.

A public name counts as reached when some code of the package outside its
own definition refers to it, when ``at4tools.__all__`` lists it, or when a
benchmark script imports it or reads it as an attribute (the witness
generators and text writers serve the benchmark).  A public method or
property counts as reached when the package outside its own definition, or
a benchmark script, reads an attribute of that name.  Code that only the
tests reach belongs in the tests, as the oracles of tests/oracles.py do.

A private module-level function or class is reached when some other
top-level statement of the package refers to it: one left behind when its
last caller went fails the test.
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


def unreached(private: bool) -> list[tuple[str, str]]:
    """(module, name) of each private or each public module-level function
    and class of the package that no other top-level statement of the
    package refers to.  Names are collected per top-level statement, so
    that a definition's use of its own name does not count."""
    uses = [
        (path.stem, node, names_used(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    return [
        (module, node.name)
        for module, node, _ in uses
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and not any(node.name in used for _, other, used in uses if other is not node)
    ]


def test_every_public_definition_is_reached():
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    missing = [
        (module, name)
        for module, name in unreached(private=False)
        if name not in at4tools.__all__ and name not in bench
    ]
    assert missing == []


def test_every_private_definition_is_used():
    assert unreached(private=True) == []


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
