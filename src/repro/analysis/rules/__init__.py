"""The project-specific rule set of the invariant linter.

Each rule encodes one contract the repository's quantitative claims rest
on; ``default_rules()`` instantiates the blocking set the ``repro lint``
CLI (and the CI ``static-analysis`` job) runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ..core import Rule
from .atomic import AtomicWriteRule
from .determinism import DeterminismRule
from .digest import DigestCompletenessRule
from .imports import UnusedImportRule
from .ordering import UnorderedIterationRule
from .serialization import SerializationRoundTripRule
from .swallowed import SwallowedExceptionRule

__all__ = [
    "RULE_CLASSES",
    "default_rules",
    "rules_by_name",
    "AtomicWriteRule",
    "DeterminismRule",
    "DigestCompletenessRule",
    "SerializationRoundTripRule",
    "SwallowedExceptionRule",
    "UnorderedIterationRule",
    "UnusedImportRule",
]

#: Every registered rule class, in report order.
RULE_CLASSES: List[Type[Rule]] = [
    DeterminismRule,
    DigestCompletenessRule,
    SerializationRoundTripRule,
    AtomicWriteRule,
    UnorderedIterationRule,
    SwallowedExceptionRule,
    UnusedImportRule,
]


def default_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the default rule set (optionally restricted to ``names``)."""
    rules = [cls() for cls in RULE_CLASSES]
    if names is None:
        return rules
    by_name = {rule.name: rule for rule in rules}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {', '.join(sorted(unknown))} "
            f"(expected a subset of {sorted(by_name)})"
        )
    return [by_name[name] for name in names]


def rules_by_name() -> Dict[str, Type[Rule]]:
    return {cls.name: cls for cls in RULE_CLASSES}
