"""RPA001 — checkpoint drift.

The format-1 checkpoint contract says a restored stream continues
byte-identically.  That only holds while ``snapshot()`` captures *every*
piece of mutable state the push path can change — a field added to
``__init__``/``push``/``push_block``/``_step`` but forgotten in the
snapshot payload resumes with a stale default and silently diverges.  This rule makes the
coupling explicit: every ``self.X`` assigned in those methods of a class
that defines ``snapshot()`` must either be read somewhere in ``snapshot()``
or be listed in a class-level ``_SNAPSHOT_EXCLUDE`` allowlist (immutable
configuration, derived caches) with a justifying comment.
"""

from __future__ import annotations

from typing import Iterator

from ..astutil import (
    ModuleInfo,
    ProjectIndex,
    class_methods,
    iter_classes,
    self_attribute_reads,
    self_attribute_stores,
    string_literal_set,
)
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["CheckpointDriftRule"]

#: Methods whose ``self.X = ...`` assignments define the mutable state the
#: snapshot must cover (construction, the two ingest entry points and the
#: float step ``_step`` that block-ingest hosts run every fix through).
MUTATING_METHODS = ("__init__", "push", "push_block", "_step")


@register_rule
class CheckpointDriftRule(Rule):
    rule_id = "RPA001"
    name = "checkpoint-drift"
    description = (
        "every mutable attribute assigned in __init__/push/push_block/_step of a "
        "class defining snapshot() must appear in the snapshot payload or in "
        "_SNAPSHOT_EXCLUDE"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        for node in iter_classes(module.tree):
            methods = class_methods(node)
            snapshot = methods.get("snapshot")
            if snapshot is None:
                continue
            covered = self_attribute_reads(snapshot)
            exclude = string_literal_set(node, "_SNAPSHOT_EXCLUDE") or frozenset()
            reported: set[str] = set()
            for method_name in MUTATING_METHODS:
                method = methods.get(method_name)
                if method is None:
                    continue
                for attr, line in self_attribute_stores(method):
                    if attr in covered or attr in exclude or attr in reported:
                        continue
                    reported.add(attr)
                    yield self.finding(
                        module,
                        line,
                        f"{node.name}.{attr}",
                        f"attribute {attr!r} is assigned in "
                        f"{node.name}.{method_name} but never read by "
                        f"{node.name}.snapshot()",
                        hint=(
                            "include it in the snapshot payload, or add it to "
                            "a class-level _SNAPSHOT_EXCLUDE frozenset with a "
                            "comment saying why it is not stream state"
                        ),
                    )
