"""Checks on the package's source text."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "riccati_place").glob("*.py"))


def test_every_string_statement_is_a_docstring():
    # a string statement anywhere but first in a module, class or function
    # body is not a docstring: it documents nothing and is easily misplaced
    assert SOURCES
    stray = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(node.body[0]) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str) and id(node) not in docstrings]
    assert stray == []
