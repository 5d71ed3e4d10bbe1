"""Every public top-level function and class of ``leovn`` is used by the
package itself: API that only tests call is dead weight."""
import ast
from pathlib import Path

import pytest

import leovn

MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(leovn.__file__).parent.glob("*.py"))}
PUBLIC = [(module, node) for module, tree in MODULES.items() for node in tree.body
          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
          and not node.name.startswith("_")]


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """``Name`` ids and ``Attribute`` attrs in ``tree``, outside ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module,node", PUBLIC,
                         ids=[f"{module}.{node.name}" for module, node in PUBLIC])
def test_public_definition_is_used_in_the_package(module, node):
    assert any(node.name in referenced_names(tree, node) for tree in MODULES.values()), (
        f"{module}.{node.name} is referenced nowhere in leovn outside its definition")
