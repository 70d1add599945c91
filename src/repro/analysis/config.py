"""simlint configuration: the exclusion list and the one inline waiver.

* **Exclusions** are deliberately NOT a simlint key: simlint reads
  ``[tool.ruff] extend-exclude`` so ruff and simlint share one list
  (benchmarks/examples) and cannot drift — a unit test pins the sharing.
  Every rule runs on every file that is not excluded.
* **The waiver** — ``# simlint: disable=SIM001,SIM004`` suppresses those
  rules on its physical line (anchor line of the flagged AST node).
  Pragmas are parsed from real COMMENT tokens (``tokenize``), so a
  pragma-shaped string literal is inert.  A ``# simlint: disable``
  comment of any other shape (bare, or ``disable-file=…``) waives
  nothing: it is reported as a finding.

TOML parsing uses :mod:`tomllib` when available (Python ≥ 3.11) and
falls back to a tiny line-oriented parser that understands the subset
this repo's pyproject actually uses (tables, strings, string arrays) —
the repo supports 3.10 and must not grow dependencies.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

__all__ = ["LintConfig", "Pragmas", "parse_pragmas", "load_pyproject",
           "DEFAULT_EXCLUDE"]

#: exclusions that always apply, on top of the shared pyproject list
DEFAULT_EXCLUDE: Tuple[str, ...] = (
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "build", "dist",
)

#: the shared exclusion list used when no pyproject.toml is found
FALLBACK_SHARED_EXCLUDE: Tuple[str, ...] = ("benchmarks", "examples")


# --------------------------------------------------------------------- #
# minimal TOML loading (tomllib when present, subset parser otherwise)
# --------------------------------------------------------------------- #
def _tiny_toml(text: str) -> Dict[str, Dict[str, object]]:
    """Parse the TOML subset simlint needs: ``[table]`` headers, string
    values, booleans, and (possibly multiline) arrays of strings.  Lines
    it does not understand are skipped — unknown value types in other
    tools' tables must not break lint config loading."""
    tables: Dict[str, Dict[str, object]] = {}
    current: Dict[str, object] = tables.setdefault("", {})
    pending_key: Optional[str] = None
    pending_buf = ""
    for raw in text.splitlines():
        line = raw.strip()
        if pending_key is not None:
            pending_buf += " " + line
            if _array_closed(pending_buf):
                current[pending_key] = _parse_array(pending_buf)
                pending_key = None
            continue
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line.strip("[]").strip().strip('"')
            current = tables.setdefault(name, {})
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().strip('"')
        value = value.strip()
        if value.startswith("["):
            if _array_closed(value):
                current[key] = _parse_array(value)
            else:
                pending_key, pending_buf = key, value
        elif value.startswith('"'):
            current[key] = value[1:].split('"', 1)[0]
        elif value.split("#", 1)[0].strip() in ("true", "false"):
            current[key] = value.split("#", 1)[0].strip() == "true"
        # other value kinds (numbers, inline tables) are skipped
    return tables


def _array_closed(buf: str) -> bool:
    return buf.count("[") <= buf.count("]")


def _parse_array(buf: str) -> List[str]:
    return re.findall(r'"([^"]*)"', buf)


def load_pyproject(path: Path) -> Dict[str, Dict[str, object]]:
    """Load a pyproject.toml into ``{dotted-table-name: {key: value}}``."""
    text = path.read_text()
    try:
        import tomllib
        data = tomllib.loads(text)
        flat: Dict[str, Dict[str, object]] = {}
        _flatten(data, "", flat)
        return flat
    except ImportError:  # Python 3.10: the baked-in subset parser
        return _tiny_toml(text)


def _flatten(node: Mapping[str, object], prefix: str,
             out: Dict[str, Dict[str, object]]) -> None:
    scalars: Dict[str, object] = {}
    for key, value in node.items():
        if isinstance(value, dict):
            _flatten(value, f"{prefix}.{key}" if prefix else key, out)
        else:
            scalars[key] = value
    if scalars or prefix:
        out.setdefault(prefix, {}).update(scalars)


# --------------------------------------------------------------------- #
# config
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LintConfig:
    """Effective simlint configuration for one run."""

    #: path components / posix prefixes excluded from linting entirely
    #: (shared with ruff via ``[tool.ruff] extend-exclude``)
    exclude: Tuple[str, ...] = FALLBACK_SHARED_EXCLUDE + DEFAULT_EXCLUDE

    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, start: Optional[Path] = None) -> "LintConfig":
        """Build the config from the nearest pyproject.toml (searching
        ``start`` and its parents)."""
        pyproject = _find_pyproject(start or Path.cwd())
        exclude: Tuple[str, ...] = FALLBACK_SHARED_EXCLUDE
        if pyproject is not None:
            shared = load_pyproject(pyproject).get(
                "tool.ruff", {}).get("extend-exclude")
            if isinstance(shared, list):
                exclude = tuple(str(e) for e in shared)
        return cls(exclude=exclude + DEFAULT_EXCLUDE)

    # ------------------------------------------------------------------ #
    def excluded(self, path: str) -> bool:
        """Is this (posix, repo-relative) path excluded from linting?"""
        parts = path.split("/")
        for entry in self.exclude:
            entry = entry.rstrip("/")
            if "/" in entry:
                if path.startswith(entry + "/") or path == entry or \
                        ("/" + entry + "/") in path or \
                        path.endswith("/" + entry):
                    return True
            elif entry in parts:
                return True
        return False


def _find_pyproject(start: Path) -> Optional[Path]:
    node = start if start.is_dir() else start.parent
    for candidate in (node, *node.parents):
        path = candidate / "pyproject.toml"
        if path.is_file():
            return path
    return None


# --------------------------------------------------------------------- #
# pragmas
# --------------------------------------------------------------------- #
_PRAGMA = re.compile(r"#\s*simlint:\s*disable")
_WAIVER = re.compile(r"#\s*simlint:\s*disable\s*=\s*([A-Za-z0-9_,\s]+)")


@dataclass
class Pragmas:
    """Inline waivers for one file."""

    #: line -> rules waived on that line
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)
    #: (line, col, comment) of each disable pragma that is not a waiver
    #: of the one accepted shape
    unsupported: List[Tuple[int, int, str]] = field(default_factory=list)

    def suppressed(self, rule_id: str, line: int) -> bool:
        return rule_id in self.line_rules.get(line, ())


def parse_pragmas(source: str) -> Pragmas:
    """Extract ``# simlint:`` pragmas from real comment tokens."""
    pragmas = Pragmas()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start, tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return pragmas
    for (line, col), comment in comments:
        if not _PRAGMA.search(comment):
            continue
        match = _WAIVER.search(comment)
        rules = {r.strip().upper() for r in match.group(1).split(",")
                 if r.strip()} if match else set()
        if rules:
            pragmas.line_rules.setdefault(line, set()).update(rules)
        else:
            pragmas.unsupported.append((line, col, comment))
    return pragmas
