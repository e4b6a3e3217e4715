"""Repo-level lint baseline: land new rules warn-only, then ratchet.

A baseline file (``analysis/baseline.json`` at the repo root) records
findings that are *known and accepted* — typically intentional code a new
rule cannot distinguish from a bug (e.g. the benchmark timing loops that
DET102 flags).  A baselined finding is reported as
``baselined`` instead of failing the gate, so:

* a new rule family can ship enforcing immediately on *new* code, and
* the accepted debt is an explicit, reviewable, shrink-only list — CI
  fails if the file grows, and removing an entry ratchets the rule on.

Entries match on ``(rule, path, message)``.  Paths are stored repo-relative
with forward slashes; :meth:`Baseline.matches` normalizes absolute finding
paths against the baseline file's own location, so the same file works from
the CLI (relative paths) and the test suite (absolute paths).  Line numbers
are deliberately *not* matched: unrelated edits move code, and a baseline
that rots on every reflow gets deleted, not maintained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .findings import Finding

__all__ = ["Baseline", "BaselineEntry", "load_baseline", "write_baseline"]

#: Bumped only if the on-disk layout changes incompatibly.
BASELINE_VERSION = 1

_Key = Tuple[str, str, str]


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: rule + repo-relative path + exact message."""

    rule: str
    path: str
    message: str

    @property
    def key(self) -> _Key:
        return (self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, str]:
        return {"rule": self.rule, "path": self.path, "message": self.message}


@dataclass
class Baseline:
    """The parsed baseline plus the root paths are resolved against."""

    entries: List[BaselineEntry] = field(default_factory=list)
    root: Optional[Path] = None

    def __post_init__(self) -> None:
        self._keys: Set[_Key] = {entry.key for entry in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def normalize(self, path: str) -> str:
        """A finding path as stored in the baseline: repo-relative, posix."""
        candidate = Path(path)
        if candidate.is_absolute() and self.root is not None:
            resolved = candidate.resolve()
            root = self.root.resolve()
            if resolved.is_relative_to(root):
                candidate = resolved.relative_to(root)
        return candidate.as_posix()

    def matches(self, finding: Finding) -> bool:
        key = (finding.rule_id, self.normalize(finding.path), finding.message)
        return key in self._keys

    def unused_entries(self, matched: Set[_Key]) -> List[BaselineEntry]:
        """Entries that matched nothing — ratchet candidates to delete."""
        return [entry for entry in self.entries if entry.key not in matched]


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline file; the repo root is the file's grandparent dir.

    The canonical location is ``<repo>/analysis/baseline.json``, so absolute
    finding paths are relativized against ``<repo>``.
    """
    file_path = Path(path)
    payload = json.loads(file_path.read_text(encoding="utf-8"))
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {file_path} "
            f"(expected {BASELINE_VERSION})"
        )
    entries = [
        BaselineEntry(
            rule=str(item["rule"]),
            path=str(item["path"]),
            message=str(item["message"]),
        )
        for item in payload.get("findings", [])
    ]
    return Baseline(entries=entries, root=file_path.resolve().parent.parent)


def write_baseline(
    path: str | Path, findings: List[Finding], root: Optional[Path] = None
) -> Baseline:
    """Serialize ``findings`` as a fresh baseline (sorted, de-duplicated)."""
    file_path = Path(path)
    baseline_root = (
        root if root is not None else file_path.resolve().parent.parent
    )
    scratch = Baseline(entries=[], root=baseline_root)
    entries = sorted(
        {
            BaselineEntry(
                rule=f.rule_id,
                path=scratch.normalize(f.path),
                message=f.message,
            )
            for f in findings
        },
        key=lambda e: e.key,
    )
    payload = {
        "version": BASELINE_VERSION,
        "findings": [entry.to_dict() for entry in entries],
    }
    file_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return Baseline(entries=entries, root=baseline_root)
