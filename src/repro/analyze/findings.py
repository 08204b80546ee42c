"""Finding records and the severity contract of VP-lint.

Severities are a two-level contract (see DESIGN.md, "Static analysis &
sanitizers"):

* ``error`` — a *soundness* hazard: the flagged construct can break
  determinism (fresh-vs-warm, serial-vs-parallel byte-identity), leak
  kernel state across warm runs, or swallow the campaign's control
  exceptions.  Errors are never acceptable unfixed; an intentional
  instance must carry a pragma explaining itself.
* ``warning`` — a *robustness* contract gap: the construct is correct
  today but forfeits a guarantee the rest of the system relies on
  (e.g. a platform registered without capture/restore hooks silently
  pays fresh elaboration for every run).

Both levels fail the CLI by default; ``--min-severity error`` relaxes
that for exploratory sweeps.
"""

from __future__ import annotations

import dataclasses
import typing as _t

ERROR = "error"
WARNING = "warning"

#: Sort weight — higher is more severe.
_SEVERITY_RANK = {ERROR: 2, WARNING: 1}


def severity_rank(severity: str) -> int:
    return _SEVERITY_RANK.get(severity, 0)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int
    severity: str = ERROR
    rule: str = ""

    def sort_key(self) -> _t.Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_jsonable(self) -> _t.Dict[str, _t.Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )
