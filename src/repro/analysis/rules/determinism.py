"""RPA003 — determinism on the byte-identical paths.

``repro/core``, ``repro/geometry``, ``repro/store``, ``repro/streaming``
and ``repro/trajectory`` carry the contracts the test suite locks in bit
for bit: identical segments across kernel backends, byte-identical
checkpoints across execution backends and block splits, byte-identical
segment-store files for the same appends.  Any ambient input — wall
clocks, random draws, environment variables, salted set ordering — breaks
those guarantees in ways no fixture reliably catches.  This rule bans the
usual suspects inside the scoped packages:

- ``random.*`` / ``np.random.*`` draws and seeding;
- wall/monotonic clock reads (``time.time``, ``time.monotonic``,
  ``time.perf_counter`` and their ``_ns`` variants);
- ``datetime.now``/``utcnow``/``today``;
- environment reads (``os.environ``, ``os.getenv``);
- iterating a syntactic set construct (set literal, set comprehension,
  ``set(...)``/``frozenset(...)`` call) without ``sorted(...)`` — set
  order is hash-salted per process and must never feed serialization.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import ModuleInfo, ProjectIndex, ScopedVisitor, dotted_name, in_packages
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["DeterminismRule"]

#: Packages under ``repro/`` whose outputs must be reproducible bit for bit.
DETERMINISTIC_PACKAGES = ("core", "geometry", "store", "streaming", "trajectory")

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)
_DATETIME_TAILS = frozenset({"now", "utcnow", "today"})
_ENV_CALLS = frozenset({"os.getenv"})
_ENV_ATTRS = frozenset({"os.environ", "os.environb"})


def _is_set_construct(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class _Visitor(ScopedVisitor):
    def __init__(self, rule: "DeterminismRule", module: ModuleInfo) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []

    def _report(self, node: ast.AST, offender: str, message: str, hint: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node.lineno,
                f"{self.qualname}:{offender}",
                message,
                hint=hint,
                col=node.col_offset,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and not name.startswith("self."):
            parts = name.split(".")
            if "random" in parts:
                self._report(
                    node,
                    name,
                    f"{name}() draws random state on a byte-identical path",
                    "thread an explicit seeded generator in from the caller",
                )
            elif name in _CLOCK_CALLS:
                self._report(
                    node,
                    name,
                    f"{name}() reads a clock on a byte-identical path",
                    "pass timestamps in as data; timing belongs to benchmarks/ and fixbench/",
                )
            elif (
                parts[-1] in _DATETIME_TAILS
                and any(part in ("datetime", "date") for part in parts[:-1])
            ):
                self._report(
                    node,
                    name,
                    f"{name}() reads the wall clock on a byte-identical path",
                    "pass timestamps in as data",
                )
            elif name in _ENV_CALLS:
                self._report(
                    node,
                    name,
                    f"{name}() reads the process environment on a "
                    f"byte-identical path",
                    "thread configuration in explicitly",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if name in _ENV_ATTRS:
            self._report(
                node,
                name,
                f"{name} reads the process environment on a byte-identical path",
                "thread configuration in explicitly",
            )
        self.generic_visit(node)

    def _check_iteration(self, node: ast.AST, iterable: ast.expr) -> None:
        if _is_set_construct(iterable):
            self._report(
                node,
                "set-iteration",
                "iterating a set yields hash-salted order on a "
                "byte-identical path",
                "wrap the iterable in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in node.generators:
            self._check_iteration(node, comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@register_rule
class DeterminismRule(Rule):
    rule_id = "RPA003"
    name = "determinism"
    description = (
        "no clock reads, random draws, environment reads or unordered set "
        "iteration inside repro/core, repro/geometry, repro/store, "
        "repro/streaming, repro/trajectory"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        if not in_packages(module.path, DETERMINISTIC_PACKAGES):
            return
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
