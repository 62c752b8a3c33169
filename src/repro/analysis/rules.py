"""The detlint rule set: AST checks for determinism hazards (D001–D006).

Each rule is a small class with a stable code, a one-line title, and a
fix hint.  Rules receive a parsed module plus a :class:`ModuleContext`
(import-alias resolution) and yield :class:`Violation` objects.  They run
inside :func:`repro.analysis.contracts.facts.extract_facts`, on the same
parse the contract facts come from, so their violations ride the
incremental fact cache; pragmas, configuration, fingerprints and exit
codes are handled once for both rule families by
:mod:`repro.analysis.contracts`.

The rules are deliberately *syntactic*: no type inference, no cross-file
analysis.  That keeps them fast, dependency-free (stdlib ``ast`` only),
and predictable — a finding always points at a concrete expression the
author can either fix or suppress with an inline justification::

    _CACHE = {}  # detlint: ignore[D001] — read-only after import

Rule summary
------------
====  =========================================================
D001  module-level mutable state used as an id/sequence factory
D002  wall-clock access inside simulation code
D003  unseeded randomness bypassing ``sim.rng.RngRegistry``
D004  iteration over a ``set`` (order feeds downstream behaviour)
D005  ``id()``/``hash()`` of an object used as an ordering key
D006  process fan-out bypassing ``repro.scale.WorldRunner``
====  =========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Violation", "Rule", "ModuleContext", "ALL_RULES", "check_module",
           "call_terminal", "walk_scope", "MUTATING_METHODS", "SCOPES"]


@dataclass(frozen=True)
class Violation:
    """One raw rule hit, before pragma suppression is applied."""

    code: str
    line: int
    col: int
    message: str
    #: Enclosing ``def`` qualname ("" at module level), filled in by fact
    #: extraction: the line-free part of the finding's baseline key.
    func: str = ""


# -- import resolution ---------------------------------------------------------


class ModuleContext:
    """Per-module import table used to resolve dotted call targets.

    Maps local names back to canonical module paths so that
    ``import numpy as np; np.random.rand()`` resolves to
    ``numpy.random.rand`` and ``from itertools import count as c; c()``
    resolves to ``itertools.count``.  ``nodes`` is the module's
    ``ast.walk`` order, walked once and shared by every rule and fact
    extractor that scans the whole module.
    """

    def __init__(self, module: ast.Module) -> None:
        self.nodes: list[ast.AST] = list(ast.walk(module))
        self.module_aliases: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or
                                        alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, if it is
        rooted in an import; ``None`` for local/attribute expressions."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.reverse()
        if root in self.module_aliases:
            return ".".join([self.module_aliases[root], *parts])
        if root in self.from_imports:
            return ".".join([self.from_imports[root], *parts])
        return None

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve(call.func)


class Rule:
    """Base class: subclasses set the metadata and implement check()."""

    code: str = ""
    title: str = ""
    hint: str = ""

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def violation(self, node: ast.AST, message: str) -> Violation:
        return Violation(code=self.code, line=node.lineno,
                         col=node.col_offset, message=message)


# -- helpers -------------------------------------------------------------------

MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop", "popitem",
    "insert", "extend", "extendleft", "remove", "discard", "clear",
})

_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
})

_COUNTERISH_FRAGMENTS = ("count", "counter", "sequencer", "idgen",
                         "idfactory")

#: Node types that open a nested function scope.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_body_assigns(module: ast.Module) -> Iterator[
        tuple[str, ast.stmt, ast.expr]]:
    """(name, stmt, value) for every simple module-level assignment."""
    for stmt in module.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            yield stmt.targets[0].id, stmt, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            yield stmt.target.id, stmt, stmt.value


def _is_mutable_literal(value: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call) and not value.args and not value.keywords:
        name = ctx.resolve_call(value)
        if name is None and isinstance(value.func, ast.Name):
            name = value.func.id
        return name in _MUTABLE_CONSTRUCTORS
    return False


def call_terminal(call: ast.Call) -> Optional[str]:
    """The terminal identifier of a call's callee (``pkg.Foo()`` -> Foo)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _functions(ctx: ModuleContext) -> Iterator[ast.AST]:
    for node in ctx.nodes:
        if isinstance(node, SCOPES):
            yield node


def _name_mutations(ctx: ModuleContext, name: str) -> Iterator[ast.AST]:
    """Statements inside function bodies that mutate module global ``name``
    in place (subscript stores, aug-assigns, mutating method calls)."""
    for fn in _functions(ctx):
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript) \
                            and isinstance(tgt.value, ast.Name) \
                            and tgt.value.id == name:
                        yield node
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Subscript) \
                            and isinstance(tgt.value, ast.Name) \
                            and tgt.value.id == name:
                        yield node
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == name:
                yield node


def _global_rebinds(ctx: ModuleContext, name: str) -> Iterator[ast.AST]:
    """Functions that declare ``global name`` and rebind it."""
    for fn in _functions(ctx):
        if isinstance(fn, ast.Lambda):
            continue
        declares = any(isinstance(n, ast.Global) and name in n.names
                       for n in ast.walk(fn))
        if not declares:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Name) \
                    and node.target.id == name:
                yield node
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in node.targets):
                yield node


# -- D001 ----------------------------------------------------------------------


class ModuleStateFactory(Rule):
    """D001: module-level mutable state used as an id/sequence factory.

    Three shapes are recognised:

    1. ``_ids = itertools.count(...)`` at module scope;
    2. a module-level integer rebound through ``global`` (a bare counter);
    3. a module-level dict/list/set (or counter-ish constructor call)
       mutated in place from function bodies (a runtime cache/registry).

    All three make identifier allocation a function of *process history*
    instead of the owning world, so two same-seed worlds in one process
    diverge.
    """

    code = "D001"
    title = "module-level mutable state used as an id/sequence factory"
    hint = ("allocate from the world's IdSequencer (sim.ids / "
            "repro.sim.ids) or move the state onto an instance")

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:
        for name, stmt, value in _module_body_assigns(module):
            if isinstance(value, ast.Call):
                resolved = ctx.resolve_call(value)
                if resolved == "itertools.count":
                    yield self.violation(
                        stmt, f"module-level itertools.count bound to "
                              f"{name!r}: ids become process-ordered, not "
                              f"world-ordered")
                    continue
                terminal = call_terminal(value)
                if terminal and any(f in terminal.lower()
                                    for f in _COUNTERISH_FRAGMENTS) \
                        and not _is_mutable_literal(value, ctx):
                    yield self.violation(
                        stmt, f"module-level sequence factory "
                              f"{terminal}() bound to {name!r}")
                    continue
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              int) \
                    and not isinstance(value.value, bool):
                rebind = next(iter(_global_rebinds(ctx, name)), None)
                if rebind is not None:
                    yield self.violation(
                        stmt, f"module-level bare counter {name!r} rebound "
                              f"via 'global' at line {rebind.lineno}")
                continue
            if _is_mutable_literal(value, ctx):
                mutation = next(iter(_name_mutations(ctx, name)), None)
                if mutation is not None:
                    yield self.violation(
                        stmt, f"module-level mutable {name!r} mutated at "
                              f"runtime (e.g. line {mutation.lineno}): "
                              f"shared across worlds in one process")


# -- D002 ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockAccess(Rule):
    """D002: wall-clock reads inside sim code.

    Simulated components must read :attr:`Simulator.now`; wall-clock time
    differs between runs by construction and poisons every downstream
    artifact (traces, ids, timeouts).
    """

    code = "D002"
    title = "wall-clock access inside simulation code"
    hint = "read sim.now (simulated seconds) instead of the host clock"

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                resolved = ctx.resolve_call(node)
                if resolved in _WALL_CLOCK_CALLS:
                    yield self.violation(
                        node, f"wall-clock call {resolved}() is "
                              f"nondeterministic across runs")


# -- D003 ----------------------------------------------------------------------

_NUMPY_RANDOM_ALLOWED = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox", "numpy.random.BitGenerator",
})


class UnseededRandomness(Rule):
    """D003: randomness drawn from process-global RNG state.

    ``random.*`` and ``numpy.random.<fn>`` (module-level legacy API) share
    one hidden global generator per process; two same-seed worlds
    interleave their draws.  Named streams from
    :class:`repro.sim.rng.RngRegistry` — or an explicitly seeded
    ``numpy.random.default_rng(seed)`` — are the sanctioned sources.
    """

    code = "D003"
    title = "unseeded randomness bypassing sim.rng.RngRegistry"
    hint = ("draw from RngRegistry.stream(name) or an explicitly seeded "
            "np.random.default_rng(seed)")

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node)
            if resolved is None:
                continue
            if resolved.startswith("random."):
                yield self.violation(
                    node, f"{resolved}() draws from the process-global "
                          f"stdlib RNG")
            elif resolved.startswith("numpy.random.") \
                    and resolved not in _NUMPY_RANDOM_ALLOWED:
                yield self.violation(
                    node, f"{resolved}() uses numpy's process-global "
                          f"legacy RNG")


# -- D004 ----------------------------------------------------------------------


def _is_set_expr(node: ast.expr, ctx: ModuleContext,
                 set_names: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = ctx.resolve_call(node)
        if name is None and isinstance(node.func, ast.Name):
            name = node.func.id
        return name in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr,
                                                            ast.BitAnd,
                                                            ast.Sub)):
        # a | b etc. where either side is provably a set
        return _is_set_expr(node.left, ctx, set_names) \
            or _is_set_expr(node.right, ctx, set_names)
    return False


def walk_scope(scope: ast.AST,
               stop_at: tuple[type, ...] = SCOPES) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into ``stop_at`` nodes (they
    are yielded, not entered) — by default nested function scopes,
    which are analysed as scopes of their own."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, stop_at):
            stack.extend(ast.iter_child_nodes(node))


def _scope_set_names(scope: ast.AST, ctx: ModuleContext) -> frozenset[str]:
    """Names syntactically bound to set expressions within ``scope``
    (last-write-wins is ignored — any set binding taints the name)."""
    names: set[str] = set()
    for node in walk_scope(scope):
        if isinstance(node, ast.Assign):
            if _is_set_expr(node.value, ctx, frozenset(names)):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
    return frozenset(names)


class SetOrderIteration(Rule):
    """D004: iterating a ``set`` — order is hash-seed/process dependent.

    Set iteration order is not part of the determinism contract; when it
    feeds scheduling, message emission, or any serialized artifact it
    silently couples behaviour to ``PYTHONHASHSEED`` and allocation
    history.  Sort first (``sorted(s)``) or keep an ordered container.
    """

    code = "D004"
    title = "iteration over a set (order is not deterministic)"
    hint = "iterate sorted(the_set) or use a list/dict keyed structure"

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:
        scopes: list[ast.AST] = [module]
        scopes.extend(fn for fn in _functions(ctx)
                      if not isinstance(fn, ast.Lambda))
        seen: set[tuple[int, int]] = set()
        for scope in scopes:
            set_names = _scope_set_names(scope, ctx)
            for node in walk_scope(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters = [gen.iter for gen in node.generators]
                else:
                    continue
                for it in iters:
                    if _is_set_expr(it, ctx, set_names):
                        key = (it.lineno, it.col_offset)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield self.violation(
                            it, "iteration order over a set is "
                                "nondeterministic")


# -- D005 ----------------------------------------------------------------------

_ORDERING_CALLS = frozenset({"sorted", "min", "max"})


def _contains_identity_call(node: ast.AST) -> Optional[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                and sub.func.id in ("id", "hash"):
            return sub.func.id
    return None


class ObjectIdentityOrdering(Rule):
    """D005: ``id()``/``hash()`` of an object used as an ordering key.

    ``id()`` is an address — different every run; ``hash()`` of most
    objects is derived from it (or salted).  Using either as a sort or
    tie-break key makes ordering a function of the allocator, not the
    world.  Use an explicit sequence number (``sim.ids``) instead.
    """

    code = "D005"
    title = "id()/hash() used as an ordering key"
    hint = "tie-break on an explicit per-world sequence number (sim.ids)"

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            is_ordering = (
                (isinstance(node.func, ast.Name)
                 and node.func.id in _ORDERING_CALLS)
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"))
            if not is_ordering:
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if isinstance(kw.value, ast.Name) \
                        and kw.value.id in ("id", "hash"):
                    yield self.violation(
                        node, f"ordering key is builtin {kw.value.id} — "
                              f"address-dependent")
                elif isinstance(kw.value, ast.Lambda):
                    ident = _contains_identity_call(kw.value.body)
                    if ident is not None:
                        yield self.violation(
                            node, f"ordering key calls {ident}() — "
                                  f"address-dependent")


# -- D006 ----------------------------------------------------------------------

_PROCESS_SPAWN_CALLS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.Process",
    "multiprocessing.Manager",
    "multiprocessing.Queue",
    "multiprocessing.Pipe",
    "multiprocessing.get_context",
    "os.fork",
})


class UnsanctionedProcessFanout(Rule):
    """D006: process-pool primitives outside :class:`WorldRunner`.

    A raw pool reintroduces everything the determinism contract forbids:
    completion-order result collection, inherited global state, and
    unhashed per-world outputs.  :class:`repro.scale.WorldRunner` is the
    one audited call site — it pins the start method, returns results in
    spec order, and decision-hashes every world so serial/parallel
    equivalence stays checkable.  Its own pool lines carry the pragma;
    everywhere else the import or call is a finding.
    """

    code = "D006"
    title = "process fan-out bypassing repro.scale.WorldRunner"
    hint = ("fan seeded worlds out through repro.scale.WorldRunner (the "
            "audited, hash-verified pool call site)")

    def check(self, module: ast.Module,
              ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        yield self.violation(
                            node, f"import of {alias.name!r}: spawn "
                                  f"processes via repro.scale.WorldRunner")
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0 \
                    and node.module.split(".")[0] == "multiprocessing":
                yield self.violation(
                    node, f"import from {node.module!r}: spawn processes "
                          f"via repro.scale.WorldRunner")
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve_call(node)
                if resolved in _PROCESS_SPAWN_CALLS:
                    yield self.violation(
                        node, f"{resolved}() spawns worker processes "
                              f"outside the sanctioned WorldRunner")


ALL_RULES: tuple[Rule, ...] = (
    ModuleStateFactory(),
    WallClockAccess(),
    UnseededRandomness(),
    SetOrderIteration(),
    ObjectIdentityOrdering(),
    UnsanctionedProcessFanout(),
)


def check_module(module: ast.Module, ctx: ModuleContext) -> list[Violation]:
    """Run every rule over one parsed module; violations in (line, col,
    code) order.  Selection happens at report time, so cached violations
    serve any ``--select``/``--ignore``."""
    out = [v for rule in ALL_RULES for v in rule.check(module, ctx)]
    out.sort(key=lambda v: (v.line, v.col, v.code))
    return out
