"""The simlint engine: parse, run rules, filter waivers, sort.

Two entry points:

* :func:`check_source` — lint one string of source (the unit tests'
  workhorse: seed a violation, assert the rule fires; write the clean
  idiom, assert it does not).
* :func:`check_paths` — walk files/directories, honouring the config's
  exclusion list, and return every finding in ``(path, line, col,
  rule)`` order.  ``check_paths(["src"]) == []`` is the repo's
  self-cleanliness contract, pinned by a test and by CI.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .config import LintConfig, parse_pragmas
from .findings import PARSE_RULE, Finding
from .rules import RULES, FileContext

__all__ = ["check_source", "check_paths", "iter_python_files"]


def check_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string as if it lived at ``path``: every rule that
    applies there, less the findings its line waivers suppress, plus one
    finding per pragma that waives nothing."""
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        detail = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        return [Finding(path=path, line=line, col=col, rule=PARSE_RULE,
                        message=f"file does not parse: {detail}")]
    ctx = FileContext(path, source, tree)
    pragmas = parse_pragmas(source)
    findings = [Finding(path=path, line=line, col=col, rule=PARSE_RULE,
                        message=f"unsupported pragma {comment!r}: waive a "
                                "rule on its flagged line with "
                                "'# simlint: disable=SIMxxx'")
                for line, col, comment in pragmas.unsupported]
    for rule_cls in RULES:
        if not rule_cls.applies_to(ctx):
            continue
        for finding in rule_cls(ctx).run():
            if not pragmas.suppressed(finding.rule, finding.line):
                findings.append(finding)
    return sorted(findings)


def iter_python_files(paths: Sequence[str],
                      config: LintConfig) -> Iterable[Path]:
    """Expand files/directories into the linted ``.py`` file set, in a
    deterministic (sorted) order, skipping excluded paths."""
    seen = set()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            candidates = []
        for candidate in candidates:
            rel = candidate.as_posix()
            if rel in seen or config.excluded(rel):
                continue
            seen.add(rel)
            yield candidate


def check_paths(paths: Sequence[str],
                config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint files and directories; the pytest-importable API."""
    if config is None:
        start = Path(paths[0]) if paths else Path.cwd()
        config = LintConfig.load(start=start)
    findings: List[Finding] = []
    for path in iter_python_files(paths, config):
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                path=path.as_posix(), line=1, col=0, rule=PARSE_RULE,
                message=f"file is unreadable: {exc}"))
            continue
        findings.extend(check_source(source, path=path.as_posix()))
    return sorted(findings)
