"""Static analysis: AST-based rules enforcing the repo's runtime contracts.

The package is a self-contained linter — no third-party dependencies, just
:mod:`ast` — exposed as ``repro-traj lint``.  Each rule mechanically checks
one invariant the test suite otherwise only samples:

========  =====================  ==================================================
Rule      Name                   Invariant
========  =====================  ==================================================
RPA001    checkpoint-drift       snapshot() covers every mutable attribute
RPA002    capability-consistency descriptor flags match the factory's methods
RPA003    determinism            no ambient input on the byte-identical paths
RPA004    actor-ownership        handler cores mutate only state they own
RPA005    process-safety         exceptions revivable across process boundaries
RPA006    wire-codec             wire codecs pickle-free, encode/decode paired
RPA007    process-creation       worker processes created only in exec/node.py
========  =====================  ==================================================

See :mod:`repro.analysis.registry` for adding a rule and
:mod:`repro.analysis.baseline` for the tracked-findings allowlist.
"""

from __future__ import annotations

from .baseline import Baseline, baseline_payload, load_baseline
from .findings import Finding, format_findings, sort_findings
from .registry import Rule, all_rules, get_rule, register_rule, rule_ids
from .runner import analyze_paths, analyze_source, iter_python_files, resolve_rules

__all__ = [
    "Baseline",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "baseline_payload",
    "format_findings",
    "get_rule",
    "iter_python_files",
    "load_baseline",
    "register_rule",
    "resolve_rules",
    "rule_ids",
    "sort_findings",
]
