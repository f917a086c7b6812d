"""RPA006 — wire codecs stay pickle-free and explicitly paired.

The streaming wire protocol (``repro/streaming/wire.py``) is the unit the
node backend ships between OS processes.  Its frames carry the
byte-identical contract across machine boundaries, which imposes two rules
no fixture can lock on its own:

- **No pickle.**  A pickled payload embeds interpreter-specific detail
  (protocol version, memo ordering, class import paths) and executes
  arbitrary code on decode.  Every byte on the wire must come from an
  explicit ``struct``/JSON layout so the same input encodes to the same
  frame on every host and decoding untrusted bytes stays safe.
- **Explicit codec pairs.**  Every frame type registered with
  ``register_frame`` must name a module-level ``encode_*`` function and a
  module-level ``decode_*`` function.  Lambdas, bound methods and
  arbitrarily named callables hide one direction of the round-trip from
  review and from the round-trip property tests keyed on those names.

The rule scopes itself to wire-codec modules: any ``wire.py`` under the
``repro`` package tree.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import ModuleInfo, ProjectIndex, dotted_name
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["WireCodecRule"]

#: Modules whose import (or attribute use) marks a pickle dependency.
_PICKLE_MODULES = frozenset({"pickle", "cPickle", "_pickle", "dill", "cloudpickle"})

_REGISTER_CALL = "register_frame"
_CODEC_ARGS = (("encode", 2, "encode_"), ("decode", 3, "decode_"))


def _is_wire_module(path: str) -> bool:
    posix = path.replace("\\", "/")
    return "repro/" in posix and posix.rsplit("/", 1)[-1] == "wire.py"


def _pickle_root(name: str | None) -> str | None:
    if name is None:
        return None
    root = name.split(".", 1)[0]
    return root if root in _PICKLE_MODULES else None


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "WireCodecRule", module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        #: Module-level function definitions, for codec-pair resolution.
        self.toplevel: set[str] = {
            item.name
            for item in module.tree.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def _report(self, node: ast.AST, symbol: str, message: str, hint: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node.lineno,
                symbol,
                message,
                hint=hint,
                col=node.col_offset,
            )
        )

    # -- pickle bans -----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = _pickle_root(alias.name)
            if root is not None:
                self._report(
                    node,
                    f"import:{alias.name}",
                    f"wire codec imports {alias.name}; frames must use an "
                    f"explicit byte layout, never pickle",
                    "encode with struct/JSON primitives instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = _pickle_root(node.module)
        if root is not None:
            self._report(
                node,
                f"import:{node.module}",
                f"wire codec imports from {node.module}; frames must use an "
                f"explicit byte layout, never pickle",
                "encode with struct/JSON primitives instead",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        root = _pickle_root(name)
        if root is not None:
            self._report(
                node,
                str(name),
                f"wire codec calls into {root}; frames must use an explicit "
                f"byte layout, never pickle",
                "encode with struct/JSON primitives instead",
            )
        self.generic_visit(node)

    # -- register_frame codec pairs --------------------------------------

    def _codec_argument(self, node: ast.Call, keyword: str, position: int) -> ast.expr | None:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        if len(node.args) > position:
            return node.args[position]
        return None

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] == _REGISTER_CALL:
            for keyword, position, prefix in _CODEC_ARGS:
                value = self._codec_argument(node, keyword, position)
                if value is None:
                    self._report(
                        node,
                        f"{_REGISTER_CALL}:{keyword}",
                        f"register_frame call is missing its {keyword} "
                        f"function; every frame type needs an explicit "
                        f"encode/decode pair",
                        f"pass a module-level {prefix}* function",
                    )
                    continue
                if not (
                    isinstance(value, ast.Name)
                    and value.id.startswith(prefix)
                    and value.id in self.toplevel
                ):
                    shown = (
                        value.id
                        if isinstance(value, ast.Name)
                        else type(value).__name__
                    )
                    self._report(
                        value,
                        f"{_REGISTER_CALL}:{keyword}",
                        f"register_frame {keyword} argument {shown!r} is not "
                        f"a module-level {prefix}* function; the round-trip "
                        f"pair must be explicit and reviewable",
                        f"define and pass a module-level {prefix}* function",
                    )
        self.generic_visit(node)


@register_rule
class WireCodecRule(Rule):
    rule_id = "RPA006"
    name = "wire-codec"
    description = (
        "wire-codec modules (wire.py under repro/) must not touch pickle, "
        "and every register_frame call must pass module-level "
        "encode_*/decode_* functions"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        if not _is_wire_module(module.path):
            return
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
