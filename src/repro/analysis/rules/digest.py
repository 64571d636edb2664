"""R2 — digest completeness: every ``FlowConfig`` field must be hashed.

The artifact cache addresses stage results by per-stage digests over
hand-maintained key tuples (``_STAGE_KEYS`` in
:mod:`repro.flow.config`).  A new configuration knob that is added to the
dataclass but to no stage tuple silently poisons the cache: two runs with
different values of the knob share one content address and the second is
served the first's artifact.  This rule cross-checks the two sets at
lint time:

* every ``FlowConfig`` field is in some stage's key tuple,
* every key in every stage tuple names a real field (catches typos and
  renames that would quietly hash nothing).

The rule fires on any file that defines both a ``FlowConfig`` class and a
module-level ``_STAGE_KEYS`` mapping, so fixture files exercise it without
importing the real flow package.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import Finding, Rule, SourceFile

__all__ = ["DigestCompletenessRule"]

_CONFIG_CLASS = "FlowConfig"
_KEYS_NAME = "_STAGE_KEYS"


def _string_items(node: ast.expr, env: Dict[str, Tuple[str, ...]]) -> Optional[Tuple[str, ...]]:
    """Statically evaluate a tuple/list/set of strings (with name refs and +)."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                items.append(element.value)
            else:
                return None
        return tuple(items)
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _string_items(node.left, env)
        right = _string_items(node.right, env)
        if left is not None and right is not None:
            return left + right
    return None


class DigestCompletenessRule(Rule):
    name = "digest-completeness"
    description = (
        "every FlowConfig field is in some _STAGE_KEYS digest tuple; every "
        "key names a real field"
    )
    # Scoped by *content*, not module: the rule only fires on files that
    # define both FlowConfig and _STAGE_KEYS (the real config module, or a
    # test fixture modelling it).
    module_prefixes = ()

    def check(self, source: SourceFile) -> Iterator[Finding]:
        env: Dict[str, Tuple[str, ...]] = {}
        stage_keys: Optional[ast.expr] = None
        stage_keys_node: Optional[ast.stmt] = None
        config_class: Optional[ast.ClassDef] = None

        for stmt in source.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == _CONFIG_CLASS:
                config_class = stmt
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name) or value is None:
                    continue
                if target.id == _KEYS_NAME:
                    stage_keys, stage_keys_node = value, stmt
                else:
                    items = _string_items(value, env)
                    if items is not None:
                        env[target.id] = items

        if config_class is None or stage_keys is None or stage_keys_node is None:
            return

        fields = self._dataclass_fields(config_class)
        digested: Set[str] = set()
        per_stage: Dict[str, Tuple[str, ...]] = {}
        if isinstance(stage_keys, ast.Dict):
            for key_node, value_node in zip(stage_keys.keys, stage_keys.values):
                stage = (
                    key_node.value
                    if isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)
                    else None
                )
                items = _string_items(value_node, env)
                if items is None:
                    yield self.finding(
                        source,
                        value_node,
                        f"could not statically evaluate the key tuple of stage "
                        f"{stage!r} — keep {_KEYS_NAME} built from literal "
                        f"tuples of field names",
                    )
                    continue
                digested.update(items)
                if stage is not None:
                    per_stage[stage] = items
        else:
            yield self.finding(
                source,
                stage_keys_node,
                f"{_KEYS_NAME} must be a literal dict of stage -> key tuple",
            )
            return

        field_names = {name for name, _ in fields}
        for stage, items in sorted(per_stage.items()):
            for key in items:
                if key not in field_names:
                    yield self.finding(
                        source,
                        stage_keys_node,
                        f"stage {stage!r} digests unknown field {key!r} — "
                        f"not a {_CONFIG_CLASS} field (typo or stale rename?)",
                    )

        for name, node in fields:
            if name in digested:
                continue
            yield self.finding(
                source,
                node,
                f"{_CONFIG_CLASS}.{name} is in no stage digest: a change to it "
                f"would silently reuse stale cache artifacts — add it to the "
                f"right {_KEYS_NAME} tuple(s)",
            )

    @staticmethod
    def _dataclass_fields(cls: ast.ClassDef) -> List[Tuple[str, ast.stmt]]:
        fields: List[Tuple[str, ast.stmt]] = []
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            name = stmt.target.id
            if name.startswith("_"):
                continue
            annotation = ast.unparse(stmt.annotation) if stmt.annotation is not None else ""
            if "ClassVar" in annotation:
                continue
            fields.append((name, stmt))
        return fields
