"""Finding records and report formatting for the invariant linter.

A :class:`Finding` is one violation of a repo invariant, anchored to a file
and line and identified by a stable *fingerprint* — ``rule::path::symbol`` —
that survives unrelated line drift, so the committed baseline keeps matching
after routine edits.  Formatting helpers render findings for the terminal
(``text``) and for tooling (``json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["Finding", "format_findings", "sort_findings"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One invariant violation reported by a rule.

    Attributes
    ----------
    rule_id:
        The rule that produced the finding (``RPA001`` ... ``RPA007``).
    path:
        File path as given to the runner (POSIX separators, typically
        relative to the repository root — the baseline matches on it).
    line, col:
        1-based line and 0-based column of the offending node.
    symbol:
        Stable anchor of the violation (``Class.attr``, ``func.arg``,
        ``qualname:dotted.call`` ...) — the baseline matches on it, so it
        must not contain line numbers.
    message:
        Human-readable description of what is wrong.
    hint:
        One-line suggestion for fixing the finding.
    """

    rule_id: str
    path: str
    line: int
    symbol: str
    message: str
    hint: str = ""
    col: int = 0

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.rule_id}::{self.path}::{self.symbol}"

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (the ``--format json`` payload)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule_id} {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: by path, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule_id, f.symbol))


def format_findings(
    findings: list[Finding],
    *,
    fmt: str = "text",
    baselined: int = 0,
) -> str:
    """Render ``findings`` as a terminal report or a JSON document."""
    findings = sort_findings(findings)
    if fmt == "json":
        return json.dumps(
            {
                "version": 1,
                "findings": [finding.as_dict() for finding in findings],
                "baselined": baselined,
            },
            indent=2,
            sort_keys=True,
        )
    lines = [str(finding) for finding in findings]
    summary = f"{len(findings)} finding(s)"
    if baselined:
        summary += f", {baselined} baselined"
    lines.append(summary)
    return "\n".join(lines)
