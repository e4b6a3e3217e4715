"""Finding and suppression primitives shared by the linter and the sanitizer.

A :class:`Finding` is one diagnostic: a rule id, a severity, a location, a
message, and an autofix hint.  Both the AST linter (``repro.analysis.engine``)
and the graph sanitizer (``repro.analysis.sanitizer``) emit findings so the
CLI and CI gate can render and count them uniformly.

Suppressions use ``reprolint`` comment directives:

* ``# reprolint: disable=RNG001`` on a line suppresses the listed rules (or
  ``all``) for that line only;
* ``# reprolint: disable-file=RNG001`` anywhere in a file suppresses the
  listed rules for the whole file.

Rule names may end in ``*`` to match a whole family by prefix
(``# reprolint: disable=DET1*`` suppresses DET101..DET104), and comma lists
tolerate whitespace (``disable=RNG001, DET101``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

__all__ = [
    "Severity",
    "Finding",
    "Suppressions",
    "parse_suppressions",
    "sort_findings",
    "ALL_RULES",
]

_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
)

#: Sentinel rule name matching every rule in a directive.
ALL_RULES = "all"


class Severity(enum.Enum):
    """How bad a finding is; both levels fail the CLI gate."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule or sanitizer check."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    message: str
    hint: str = ""
    col: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        text = f"{location}: {self.rule_id} {self.severity}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass
class Suppressions:
    """Parsed ``reprolint`` directives for one file."""

    file_rules: Set[str] = field(default_factory=set)
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if _matches(rule_id, self.file_rules):
            return True
        at_line = self.line_rules.get(line)
        if at_line is None:
            return False
        return _matches(rule_id, at_line)

    @property
    def empty(self) -> bool:
        return not self.file_rules and not self.line_rules


def _matches(rule_id: str, rules: Set[str]) -> bool:
    """True when ``rules`` names ``rule_id``, ``all``, or a ``*`` family."""
    if ALL_RULES in rules or rule_id in rules:
        return True
    return any(
        pattern.endswith("*") and rule_id.startswith(pattern[:-1])
        for pattern in rules
    )


def parse_suppressions(lines: Sequence[str]) -> Suppressions:
    """Extract directives from source lines (1-indexed line numbers)."""
    result = Suppressions()
    for lineno, text in enumerate(lines, start=1):
        if "reprolint" not in text:
            continue
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        if match.group("kind") == "disable-file":
            result.file_rules |= rules
        else:
            result.line_rules.setdefault(lineno, set()).update(rules)
    return result


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Stable order for reports: path, then line, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))
