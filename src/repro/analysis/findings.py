"""The unit of simlint output: one typed, locatable finding.

A :class:`Finding` is deliberately flat and hashable — reporters render
it two ways (text, JSON), tests compare lists of them
directly, and the natural sort order ``(path, line, col, rule)`` is the
stable presentation order every reporter uses.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "PARSE_RULE"]

#: pseudo-rule id for what simlint cannot read as intended: a file that
#: fails to parse, or a disable pragma that waives nothing
PARSE_RULE = "SIM000"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str      # repo-relative posix path
    line: int      # 1-indexed
    col: int       # 0-indexed (ast convention)
    rule: str      # "SIM001" … "SIM008" (or SIM000, see PARSE_RULE)
    message: str

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
