"""simlint output formats: text and JSON.

* **text** — one ``path:line:col: RULE message`` line per finding plus
  a summary line; what humans read in a terminal.
* **json** — ``{"findings": [...], "count": N, "rules": {...}}``; what
  CI uploads as an artifact and scripts consume.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Sequence

from .findings import Finding
from .rules import rule_docs

__all__ = ["render_text", "render_json", "REPORTERS"]


def render_text(findings: Sequence[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"simlint: {len(findings)} {noun}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "tool": "simlint",
        "count": len(findings),
        "rules": dict(rule_docs()),
        "findings": [
            {"path": f.path, "line": f.line, "col": f.col,
             "rule": f.rule, "message": f.message}
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


REPORTERS: Dict[str, Callable[[Sequence[Finding]], str]] = {
    "text": render_text,
    "json": render_json,
}
