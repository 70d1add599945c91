"""The simlint rules: eight AST checks behind the repo's determinism story.

Every rule is an :class:`ast.NodeVisitor` over one file's tree, sharing
a :class:`FileContext` that pre-computes the things rules keep needing:
import-alias resolution (``import numpy as np`` / ``from time import
perf_counter``), a child→parent map, and the file's position inside the
package (``sim``, ``serving``, ``workload`` scoping).

The rules, and the replay-identity invariant each one protects:

========  ==============================================================
SIM001    wall-clock access (``time.time``/``perf_counter``/
          ``datetime.now``…) — simulated time must come from SimClock
SIM002    unseeded global RNG (``random.*`` module calls,
          ``np.random.*`` legacy API, argless ``default_rng()``) in
          sim/serving/workload — randomness must flow from seeded,
          spawn-keyed generators
SIM003    iterating a set (or ``dict.keys()``) into an order-sensitive
          sink — heap pushes, event emission, balancer choice, float
          accumulation — hash-randomized order diverges across processes
SIM004    assigning clock/time attributes (``.now``, ``*_clock``)
          outside SimClock/SimKernel — mutate time through
          ``advance``/``tick``/``reseat`` only
SIM005    ``heapq`` outside ``sim/queue.py`` — one deterministic heap
          implementation (EventQueue/KeyedHeap), not N ad-hoc ones
SIM006    float ``==``/``!=`` on ``*_s`` time values — exact equality
          on accumulated float time is replay-fragile
SIM007    mutable default arguments (functions and dataclass fields) —
          shared mutable state leaks across requests/replicas
SIM008    constructing a sim event without routing it through a publish
          path (``emit``/``push``/``on_event``/``publish``) — stealth
          events bypass the journal and break replay identity
========  ==============================================================
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type

from .findings import Finding

__all__ = ["FileContext", "Rule", "RULES", "rule_docs"]


# --------------------------------------------------------------------- #
# shared per-file context
# --------------------------------------------------------------------- #
class FileContext:
    """Everything the rules share about one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.AST):
        self.path = PurePosixPath(path).as_posix()
        self.source = source
        self.tree = tree
        self.parts: Tuple[str, ...] = PurePosixPath(self.path).parts
        #: ``import x.y as z`` -> {"z": "x.y"}; ``import x`` -> {"x": "x"}
        self.module_aliases: Dict[str, str] = {}
        #: ``from x.y import a as b`` -> {"b": "x.y.a"}
        self.from_imports: Dict[str, str] = {}
        #: child -> parent node
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or
                                        alias.name.split(".")[0]] = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")

    # ------------------------------------------------------------------ #
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to an import-aware dotted path
        (``np.random.shuffle`` -> ``numpy.random.shuffle``), or None for
        anything rooted in a local value (``self.rng.shuffle``)."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.module_aliases:
            chain.append(self.module_aliases[base])
        elif base in self.from_imports:
            chain.append(self.from_imports[base])
        else:
            return None
        return ".".join(reversed(chain))

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None

    def has_component(self, *names: str) -> bool:
        """Does the file live under any of these path components?"""
        return any(name in self.parts for name in names)

    def is_file(self, *tails: str) -> bool:
        """Does the path end with any ``pkg/module.py`` tail?"""
        return any(self.path.endswith(tail) for tail in tails)


# --------------------------------------------------------------------- #
# rule base
# --------------------------------------------------------------------- #
class Rule(ast.NodeVisitor):
    """One simlint rule over one file."""

    id: str = ""
    summary: str = ""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: List[Finding] = []

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        """Path-level scoping; True means the rule runs on this file."""
        return True

    def run(self) -> List[Finding]:
        self.visit(self.ctx.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0), rule=self.id,
            message=message))


# --------------------------------------------------------------------- #
# SIM001 — wall-clock access
# --------------------------------------------------------------------- #
_WALL_CLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockRule(Rule):
    id = "SIM001"
    summary = ("wall-clock access; simulated components must take time "
               "from SimClock")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.resolve(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            self.report(node, f"wall-clock call {dotted}(); use the "
                              f"simulation clock (SimClock/SimKernel) so "
                              f"runs replay identically")
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# SIM002 — unseeded global RNG
# --------------------------------------------------------------------- #
#: numpy.random attributes that are seeded-generator machinery, not the
#: legacy global-state API
_NP_RANDOM_OK: FrozenSet[str] = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "BitGenerator", "MT19937",
})


class GlobalRngRule(Rule):
    id = "SIM002"
    summary = ("unseeded global RNG; draw from seeded, spawn-keyed "
               "generators (as_rng / SeedSequence.spawn)")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.has_component("sim", "serving", "workload")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.resolve(node.func)
        if dotted:
            self._check(node, dotted)
        self.generic_visit(node)

    def _check(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random" and (node.args or node.keywords):
                return  # random.Random(seed) is a seeded instance
            self.report(node, f"global-state RNG call {dotted}(); use a "
                              f"seeded numpy Generator keyed by "
                              f"SeedSequence.spawn instead")
            return
        if dotted.startswith("numpy.random."):
            attr = parts[-1]
            if attr == "default_rng" and not node.args and not node.keywords:
                self.report(node, "default_rng() without a seed is "
                                  "nondeterministic across runs; pass a "
                                  "seed or a spawned SeedSequence")
            elif attr not in _NP_RANDOM_OK:
                self.report(node, f"legacy numpy global RNG {dotted}(); "
                                  f"use a seeded Generator "
                                  f"(numpy.random.default_rng(seed))")


# --------------------------------------------------------------------- #
# SIM003 — set iteration order feeding order-sensitive sinks
# --------------------------------------------------------------------- #
#: call names that consume elements in an order-sensitive way
_ORDER_SINKS: FrozenSet[str] = frozenset({
    "push", "heappush", "emit", "submit", "schedule", "schedule_cancel",
    "offer", "route", "choose", "append", "move_to_end",
})


def _is_setish(node: ast.AST) -> bool:
    """Is this expression a set (or dict-keys view) whose iteration
    order is hash-dependent?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return _is_setish(node.left) or _is_setish(node.right)
    return False


class SetOrderRule(Rule):
    id = "SIM003"
    summary = ("set/dict-keys iteration flowing into an order-sensitive "
               "sink (heap push, event emission, float accumulation); "
               "wrap the iterable in sorted()")

    def visit_For(self, node: ast.For) -> None:
        if _is_setish(node.iter) and self._body_has_sink(node.body):
            self.report(node, "iterating a set into an order-sensitive "
                              "sink; hash randomization makes the order "
                              "differ across processes — iterate "
                              "sorted(...) instead")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # sum(f(x) for x in some_set) — float accumulation over
        # hash-ordered elements
        if isinstance(node.func, ast.Name) and node.func.id == "sum" and \
                node.args and isinstance(node.args[0],
                                         (ast.GeneratorExp, ast.ListComp)):
            comp = node.args[0]
            if any(_is_setish(gen.iter) for gen in comp.generators):
                self.report(node, "sum() over a set-ordered iterable; "
                                  "float addition is non-associative, so "
                                  "hash order changes the result — sum "
                                  "over sorted(...)")
        self.generic_visit(node)

    def _body_has_sink(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and \
                        isinstance(node.op, ast.Add):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else (
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                    if name in _ORDER_SINKS:
                        return True
        return False


# --------------------------------------------------------------------- #
# SIM004 — direct clock mutation
# --------------------------------------------------------------------- #
class ClockMutationRule(Rule):
    id = "SIM004"
    summary = ("direct clock/time attribute mutation; go through "
               "SimClock.advance/tick/reseat")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        # the clock itself (and the kernel that owns it) are the
        # sanctioned mutation sites
        return not ctx.is_file("sim/clock.py", "sim/kernel.py")

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and (
                target.attr == "now" or target.attr.endswith("_clock")):
            self.report(target, f"direct mutation of time attribute "
                                f"'.{target.attr}'; use "
                                f"SimClock.advance/tick (monotone) or "
                                f"reseat (audited) instead")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target)
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# SIM005 — heapq outside sim/queue.py
# --------------------------------------------------------------------- #
class HeapqRule(Rule):
    id = "SIM005"
    summary = ("heapq outside sim/queue.py; use EventQueue/KeyedHeap so "
               "every heap shares the deterministic tie-break")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return not ctx.is_file("sim/queue.py")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "heapq" or alias.name.startswith("heapq."):
                self.report(node, "import of heapq; use "
                                  "repro.sim.queue.EventQueue/KeyedHeap "
                                  "(deterministic tie-break built in)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "heapq":
            self.report(node, "import from heapq; use "
                              "repro.sim.queue.EventQueue/KeyedHeap "
                              "(deterministic tie-break built in)")
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# SIM006 — float equality on *_s time values
# --------------------------------------------------------------------- #
def _time_operand(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name) and node.id.endswith("_s"):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr.endswith("_s"):
        return node.attr
    return None


class TimeEqualityRule(Rule):
    id = "SIM006"
    summary = ("== / != on *_s float time values; compare with a "
               "tolerance or <=/>= against a boundary")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            name = _time_operand(left) or _time_operand(right)
            if name is None:
                continue
            other = right if _time_operand(left) else left
            if isinstance(other, ast.Constant) and other.value is None:
                continue  # `x_s == None` is an identity check, not float eq
            self.report(node, f"exact float equality on time value "
                              f"'{name}'; accumulated simulated time is "
                              f"replay-fragile under ==/!= — use a "
                              f"tolerance or an ordering comparison")
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# SIM007 — mutable default arguments
# --------------------------------------------------------------------- #
def _mutable_default(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("list", "dict", "set"):
        return True
    return False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


class MutableDefaultRule(Rule):
    id = "SIM007"
    summary = ("mutable default argument / dataclass field; one shared "
               "object leaks state across requests and replicas")

    def _check_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _mutable_default(default):
                self.report(default, f"mutable default argument in "
                                     f"{node.name}(); the single shared "
                                     f"object carries state across calls "
                                     f"— default to None (or use "
                                     f"dataclasses.field)")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        self._bad_field_value(stmt.value):
                    self.report(stmt, "mutable dataclass field default; "
                                      "use field(default_factory=...) so "
                                      "each instance owns its container")
        self.generic_visit(node)

    def _bad_field_value(self, value: Optional[ast.AST]) -> bool:
        if _mutable_default(value):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name == "field":
                for kw in value.keywords:
                    if kw.arg == "default" and _mutable_default(kw.value):
                        return True
        return False


# --------------------------------------------------------------------- #
# SIM008 — events constructed outside the publish path
# --------------------------------------------------------------------- #
#: the typed sim events (kept in sync with repro.sim.events by a test)
_EVENT_CLASSES: FrozenSet[str] = frozenset({
    "Arrival", "Cancel", "IterationDone", "BucketRefill",
    "AutoscalerTick", "ReplicaSpawn", "ReplicaDrain",
    "PhaseTransition", "AdmissionDecision", "TelemetryTick",
    "KvTransfer",
})

#: call names that constitute the kernel publish path
_PUBLISH_CALLS: FrozenSet[str] = frozenset({
    "emit", "push", "on_event", "publish",
})


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class EventRoutingRule(Rule):
    id = "SIM008"
    summary = ("sim event constructed outside the kernel publish path "
               "(emit/push/publish); stealth events bypass the journal")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        if not ctx.has_component("sim", "serving"):
            return False
        # events.py defines the classes; the sanitizer inspects events,
        # it does not schedule them
        return not ctx.is_file("sim/events.py", "sim/sanitizer.py")

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in _EVENT_CLASSES and not self._routed(node):
            self.report(node, f"{name} constructed outside the publish "
                              f"path; route events through kernel.emit / "
                              f"queue.push so the journal stays the "
                              f"single source of replay truth")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    def _routed(self, node: ast.Call) -> bool:
        parent = self.ctx.parent(node)
        # direct: emit(Arrival(...)) / queue.push(Cancel(...))
        if isinstance(parent, ast.Call) and node in parent.args and \
                _call_name(parent) in _PUBLISH_CALLS:
            return True
        # factory: `return Arrival(...)` / `yield Arrival(...)` defers
        # publishing to the caller (which the rule checks there)
        if isinstance(parent, (ast.Return, ast.Yield)):
            return True
        # named then published: ev = Arrival(...); ... kernel.emit(ev)
        if isinstance(parent, ast.Assign):
            names = {t.id for t in parent.targets
                     if isinstance(t, ast.Name)}
            if names and self._published_later(node, names):
                return True
        return False

    def _published_later(self, node: ast.Call, names: set) -> bool:
        scope = self.ctx.enclosing_function(node) or self.ctx.tree
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Call) and \
                    _call_name(sub) in _PUBLISH_CALLS:
                for arg in sub.args:
                    if isinstance(arg, ast.Name) and arg.id in names:
                        return True
            elif isinstance(sub, (ast.Return, ast.Yield)) and \
                    isinstance(sub.value, ast.Name) and \
                    sub.value.id in names:
                return True
        return False


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
RULES: Tuple[Type[Rule], ...] = (
    WallClockRule, GlobalRngRule, SetOrderRule, ClockMutationRule,
    HeapqRule, TimeEqualityRule, MutableDefaultRule, EventRoutingRule,
)


def rule_docs() -> List[Tuple[str, str]]:
    """(rule id, one-line summary) for every registered rule."""
    return [(rule.id, rule.summary) for rule in RULES]
