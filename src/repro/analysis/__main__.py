"""``python -m repro.analysis`` — the simlint CLI.

Usage::

    python -m repro.analysis [paths...] [--format text|json]
                             [--fail-on-findings] [--list-rules]

Paths default to ``src``.  Exit status: 0 when clean, 1 when findings
exist, 2 on usage errors.  ``--fail-on-findings`` makes the contract
explicit at the call site (CI uses it); it is also the default
behaviour, as for any linter.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import LintConfig
from .engine import check_paths
from .reporters import REPORTERS
from .rules import rule_docs

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: determinism static analysis for the "
                    "serving stack")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=sorted(REPORTERS),
                        default="text", help="output format")
    parser.add_argument("--fail-on-findings", action="store_true",
                        help="exit 1 when findings exist (the default; "
                             "this flag states the contract explicitly)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in rule_docs():
            print(f"{rule_id}  {summary}")
        return 0

    config = LintConfig.load(start=Path(args.paths[0]))
    findings = check_paths(args.paths, config=config)
    print(REPORTERS[args.format](findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
