"""RPA005 — process-boundary exception safety.

Exceptions crossing the node backend are reduced to ``(type name,
message)`` pairs and revived on the parent side by calling the class with
the message (see ``repro.exec.actors._revive_exception``).  A class whose
constructor demands extra positional arguments, or whose instances carry
closure/lambda state, silently downgrades to a generic error when revived —
the caller loses the type it was promised it could catch.  This rule checks
every project-defined exception class:

- ``__init__`` (when defined) must be callable as ``cls(message)``: at
  most one required positional parameter besides ``self``, and every
  keyword-only parameter defaulted;
- no ``self.X = lambda ...`` attributes (unpicklable, and meaningless
  after revival).
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from ..astutil import ModuleInfo, ProjectIndex, class_methods, iter_classes
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["ProcessSafetyRule"]

#: Every builtin exception type name (``Exception``, ``ValueError``, ...).
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _is_exception_class(node: ast.ClassDef, project: ProjectIndex) -> bool:
    """Whether ``node`` transitively derives from a builtin exception."""
    seen: set[str] = set()
    stack: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            stack.append(base.id)
        elif isinstance(base, ast.Attribute):
            stack.append(base.attr)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in BUILTIN_EXCEPTIONS:
            return True
        info = project.resolve_class(name)
        if info is not None:
            stack.extend(info.base_names)
    return False


def _required_positionals(init: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = init.args
    positional = [*args.posonlyargs, *args.args][1:]  # drop self
    return len(positional) - len(args.defaults)


def _undefaulted_kwonly(init: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    return [
        arg.arg
        for arg, default in zip(init.args.kwonlyargs, init.args.kw_defaults)
        if default is None
    ]


@register_rule
class ProcessSafetyRule(Rule):
    rule_id = "RPA005"
    name = "process-boundary-safety"
    description = (
        "exception classes must be revivable across the node backend: "
        "constructor callable as cls(message), no lambda attributes"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        for node in iter_classes(module.tree):
            if not _is_exception_class(node, project):
                continue
            init = class_methods(node).get("__init__")
            if init is None:
                continue  # inherits a message-compatible constructor
            required = _required_positionals(init)
            if required > 1:
                yield self.finding(
                    module,
                    init.lineno,
                    f"{node.name}.__init__",
                    f"{node.name}.__init__ requires {required} positional "
                    f"arguments — cls(message) revival across the process "
                    f"backend would raise TypeError",
                    hint="default every positional parameter after the message",
                )
            for name in _undefaulted_kwonly(init):
                yield self.finding(
                    module,
                    init.lineno,
                    f"{node.name}.__init__:{name}",
                    f"{node.name}.__init__ has a required keyword-only "
                    f"parameter {name!r} — cls(message) revival would raise "
                    f"TypeError",
                    hint=f"give {name!r} a default value",
                )
            for item in ast.walk(init):
                if (
                    isinstance(item, ast.Assign)
                    and isinstance(item.value, ast.Lambda)
                    and any(
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        for target in item.targets
                    )
                ):
                    attr = next(
                        target.attr
                        for target in item.targets
                        if isinstance(target, ast.Attribute)
                    )
                    yield self.finding(
                        module,
                        item.lineno,
                        f"{node.name}.{attr}",
                        f"{node.name} stores a lambda on self.{attr} — "
                        f"unpicklable, lost on process-boundary revival",
                        hint="store plain data; recompute behaviour from it",
                    )
