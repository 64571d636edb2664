"""R7 — no unused imports.

An import nothing reads is dead weight that also lies about a module's
dependencies: a reader (or a later deletion) takes ``from .queue import
RetryPolicy`` as a real edge in the layering.  The rule flags every
imported name that no expression of the module reads.

A name counts as read when it appears as a name expression anywhere in
the module (attribute chains count through their root), or inside a
string annotation (``-> "WorkerStats"``).  Three kinds of import are
exempt because they exist to be read from outside:

* names listed in the module's literal ``__all__``,
* every import of a package ``__init__.py`` (its re-exports),
* ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator, List, Optional, Set, Tuple

from ..core import Finding, Rule, SourceFile

__all__ = ["UnusedImportRule"]


def _bound_names(tree: ast.Module) -> List[Tuple[str, ast.stmt]]:
    """Every ``(local name, import statement)`` the module binds."""
    bound: List[Tuple[str, ast.stmt]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node))
    return bound


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue  # a string that is no expression names nothing
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _dunder_all(tree: ast.Module) -> Set[str]:
    """The string members of a literal module-level ``__all__``."""
    exported: Set[str] = set()
    for stmt in tree.body:
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == "__all__":
            value = stmt.value
        if isinstance(value, (ast.List, ast.Tuple)):
            exported.update(
                elt.value for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return exported


class UnusedImportRule(Rule):
    name = "unused-import"
    description = (
        "every imported name is read by its module (re-exports go in "
        "__all__ or a package __init__.py)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if PurePath(source.path).name == "__init__.py":
            return
        read = _read_names(source.tree)
        exported = _dunder_all(source.tree)
        for name, node in _bound_names(source.tree):
            if name not in read and name not in exported:
                yield self.finding(source, node, f"'{name}' is imported but unused")
