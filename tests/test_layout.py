"""Only `tree.py` knows how a trie node is laid out.

The other modules reach nodes through `tree._join`, `tree._child` and
`tree._fold` and compare them with the two leaf singletons, so a new node
kind changes one module.  This parses each of them and fails on any read of a
node field or any mention of the node class.  Paths are laid out by
`tree._path` alone, so no other module joins a leaf singleton onto a node.

The cut search only trims the full set, and calibration chooses between
shrinking and growing its base by which leaves it plants on, so no "trim" or
"union" mode string may come back into `builder.py`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "treecap"
NODE_FIELDS = {"left", "right", "tag"}
LEAVES = {"_FULL_LEAF", "_EMPTY_LEAF"}
MODULES = ["capacity.py", "builder.py", "disc.py", "experiments.py", "cli.py"]


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_read_nodes(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NODE_FIELDS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "_Node":
            found.append(f"line {node.lineno}: _Node")
        elif isinstance(node, ast.alias) and "_Node" in (node.name, node.asname):
            found.append(f"line {node.lineno}: imports _Node")
    assert not found, f"{module} reads trie nodes: {found}"


@pytest.mark.parametrize("module", MODULES)
def test_module_lays_out_no_path(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = [
        f"line {node.lineno}: _join({arg.id}, ...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == "_join"
        for arg in node.args
        if isinstance(arg, ast.Name) and arg.id in LEAVES
    ]
    assert not found, f"{module} lays out a path: {found}"


def _name(func) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def test_builder_has_no_mode_strings():
    tree = ast.parse((SRC / "builder.py").read_text(), filename="builder.py")
    found = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("trim", "union")
    ]
    assert not found, f"builder.py branches on a mode string: {found}"
