"""repro.analysis — simlint, the determinism static-analysis pass.

The serving stack's replay-identity guarantee (same seed + same trace
=> byte-identical journals and request records, across processes and
platforms) only holds if nothing reads wall clocks, draws from global
RNG state, iterates hash-ordered sets into order-sensitive sinks, or
schedules events behind the kernel's back.  simlint enforces those
idioms statically; :mod:`repro.sim.sanitizer` asserts the dynamic
counterparts at run time (``REPRO_SIM_SANITIZE=1``).

CLI::

    python -m repro.analysis [paths] --format text|json

API::

    from repro.analysis import check_paths, check_source
    assert check_paths(["src"]) == []

Rules SIM001–SIM008 are documented in :mod:`repro.analysis.rules` and
in the README's "Determinism: rules and enforcement" section.
The one waiver is ``# simlint: disable=SIM001`` on the flagged line;
what simlint does not lint at all is the exclusion list shared with
ruff via ``[tool.ruff] extend-exclude``.
"""

from .config import LintConfig, Pragmas, parse_pragmas
from .engine import check_paths, check_source
from .findings import PARSE_RULE, Finding
from .reporters import render_json, render_text
from .rules import RULES, rule_docs

__all__ = [
    "Finding", "PARSE_RULE", "LintConfig", "Pragmas", "parse_pragmas",
    "check_paths", "check_source", "RULES", "rule_docs",
    "render_text", "render_json",
]
