"""RPA007 — worker processes are created in one module only.

The node backend (``repro/exec/node.py``) is the package's one
cross-process backend: it runs isolated task maps on a process pool and
actors on a socket-connected worker group.  Every other layer reaches
worker processes through :func:`repro.exec.resolve_backend`, so pickling
rules, liveness, failure reporting and worker cleanup live in one place.
A second, ad-hoc process pool elsewhere would bypass all of that.  This
rule reports, outside ``repro/exec/node.py``:

- any import of ``multiprocessing`` (or one of its submodules);
- any reference to ``ProcessPoolExecutor`` (imported by name or reached
  as an attribute, e.g. ``concurrent.futures.ProcessPoolExecutor``);
- any use of ``os.fork`` / ``os.forkpty``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import ModuleInfo, ProjectIndex, dotted_name
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["ProcessCreationRule"]

_ALLOWED_MODULE = "repro/exec/node.py"
_POOL = "ProcessPoolExecutor"
_FORKS = frozenset({"os.fork", "os.forkpty"})
_HINT = "run the work on a repro.exec backend (resolve_backend('node', ...))"


def _is_multiprocessing(module: str | None) -> bool:
    return module is not None and module.split(".", 1)[0] == "multiprocessing"


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "ProcessCreationRule", module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []

    def _report(self, node: ast.AST, symbol: str, what: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node.lineno,
                symbol,
                f"{what} creates worker processes outside repro/exec/node.py",
                hint=_HINT,
                col=node.col_offset,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if _is_multiprocessing(alias.name):
                self._report(node, f"import:{alias.name}", f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if _is_multiprocessing(node.module):
            self._report(node, f"import:{node.module}", f"from {node.module} import")
        for alias in node.names:
            if alias.name == _POOL:
                self._report(node, _POOL, f"importing {_POOL}")
            elif f"{node.module}.{alias.name}" in _FORKS:
                self._report(node, f"os.{alias.name}", f"importing os.{alias.name}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if node.attr == _POOL:
            self._report(node, _POOL, name or _POOL)
        elif name in _FORKS:
            self._report(node, name, name)
        self.generic_visit(node)


@register_rule
class ProcessCreationRule(Rule):
    rule_id = "RPA007"
    name = "process-creation"
    description = (
        "worker processes are created only in repro/exec/node.py: no "
        "multiprocessing import, ProcessPoolExecutor or os.fork elsewhere"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        if module.path.endswith(_ALLOWED_MODULE):
            return
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
