"""Layering guard: the shipped package never imports test code.

Reference implementations live in ``tests/oracles/`` so production stays
free of A/B forks; this keeps the dependency pointing one way only.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_src_never_imports_tests():
    offenders = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.split(".")[0] in ("tests", "conftest"):
                offenders.append(f"{path.relative_to(SOURCE_ROOT.parent)}: {module}")
    assert not offenders, offenders
