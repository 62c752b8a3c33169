"""Per-module fact extraction: the analyzer's one pass over each file.

One :class:`ModuleFacts` is the complete, JSON-serializable summary of
everything both rule families need to know about one source file, taken
from a single ``ast.parse``:

- **Determinism violations** — the raw hits of the per-file D-rules
  (:mod:`repro.analysis.rules`), run on the same tree and
  :class:`~repro.analysis.rules.ModuleContext`, each tagged with its
  enclosing ``def`` so its baseline key needs no line number.
- **Topic sinks** — string literals (and f-string templates) flowing
  into ``bus.publish(...)``/``broker.route(...)`` on the publish side
  and ``broker.bind(...)``/``topic_matches(...)`` on the subscribe side.
  Literals are resolved through one level of local constant propagation
  (``topic = "a.b"; bus.publish(..., topic, ...)``) and through
  literal-returning helper functions (``TelemetryPublisher.topic_for``),
  so the analyzer sees the topics the runtime actually emits.
- **Metric sinks** — ``registry.counter/gauge/histogram("name")`` and
  ``registry.stats("prefix", {...})`` declarations, each with its kind,
  so drift and kind-collision checks can run project-wide.
- **Resilience facts** — ``resilient_call(...)`` invocations (and
  whether they carry a ``deadline=``), plus syntactic retry loops
  (``while``/``for`` + swallowed ``except`` + re-iteration).
- **Class facts** — which attributes each class mutates in place outside
  ``__init__``, whether it provides a merge protocol
  (``merge_from``/``state``/``merge_state``/``merge``), its bases, and
  which classes it instantiates (the reachability edges C004 walks).
- **String occurrences** — every string constant (plus ``Load``-context
  subscript keys), the read-side universe for metric-drift checks.
- **Pragmas and statement spans** — enough source geometry to apply the
  ``# detlint: ignore[...]`` rule (:meth:`ModuleFacts.suppressed`) from
  cached facts without re-reading the file.

Everything here is syntactic and module-local; the cross-module joins
live in :mod:`repro.analysis.contracts.rules` over the assembled
:class:`~repro.analysis.contracts.project.ProjectIndex`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

from repro.analysis.rules import (MUTATING_METHODS, SCOPES, ModuleContext,
                                  Violation, call_terminal, check_module,
                                  walk_scope)

__all__ = ["FACTS_VERSION", "ModuleFacts", "TopicFact", "MetricFact",
           "ResilienceFact", "ClassFact", "extract_facts", "parse_error_facts"]

#: Bump whenever the extraction output changes shape or semantics — the
#: incremental cache discards entries recorded under a different version.
FACTS_VERSION = 6

#: A formatted (non-literal) f-string segment: matches any one topic
#: segment.  Kept as a string marker so facts stay JSON-round-trippable.
ANY_SEGMENT = "\x00"

_PRAGMA = re.compile(r"#\s*detlint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")

# (attribute name, positional index, keyword name) triples locating the
# topic argument of each known sink.  ``MessageBus.publish(broker, src,
# topic, message)`` puts the topic third; ``Broker.route(topic, env)``
# and ``topic_matches(pattern, topic)`` lead with it.
_PUBLISH_SINKS = (("publish", 2, "topic"), ("route", 0, "topic"))
_SUBSCRIBE_SINKS = (("bind", 1, "pattern"), ("topic_matches", 0, "pattern"))

_METRIC_SINKS = frozenset({"counter", "gauge", "histogram"})

#: Accessors that consume a metric rather than emit to it:
#: ``registry.gauge("x").value`` is a read site, ``.set()`` an emission.
_METRIC_READS = frozenset({"value", "mean", "summary", "quantile",
                           "percentiles"})

_MERGE_PROTOCOL = frozenset({"merge_from", "state", "merge_state", "merge"})


@dataclass
class TopicFact:
    """One topic literal flowing into a publish- or subscribe-side sink.

    ``segments`` is the dot-split topic with :data:`ANY_SEGMENT` marking
    f-string placeholders; ``None`` means the argument never resolved to
    a literal (a *dynamic* topic, treated as matching everything).
    """

    topic: str                       # rendered template ("" when dynamic)
    segments: Optional[list[str]]    # None = dynamic / unresolvable
    line: int
    col: int
    sink: str                        # "publish" | "route" | "bind" | ...
    func: str = ""                   # enclosing def / class.def


@dataclass
class MetricFact:
    """One metric-name declaration (``kind`` distinguishes the family).

    ``stats("prefix", {...})`` expands to one fact per key with
    ``kind="stats"`` and ``name="prefix.<key>"``.
    """

    kind: str
    name: str
    line: int
    col: int
    func: str = ""
    #: True when the factory call is immediately dereferenced with a
    #: read accessor (``.value``, ``.summary()``, ...) — a consumption
    #: site, not an emission.
    read: bool = False


@dataclass
class ResilienceFact:
    """A ``resilient_call`` invocation or a syntactic bare retry loop."""

    kind: str                        # "resilient_call" | "retry_loop"
    line: int
    col: int
    func: str = ""
    has_deadline: bool = False


@dataclass
class ClassFact:
    """Merge-protocol-relevant summary of one class definition."""

    name: str
    line: int
    col: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    mutated_attrs: list[str] = field(default_factory=list)
    mutation_line: int = 0
    has_merge: bool = False
    instantiates: list[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything one file contributes to the whole-program analysis."""

    path: str
    module: str
    version: int = FACTS_VERSION
    publishes: list[TopicFact] = field(default_factory=list)
    subscribes: list[TopicFact] = field(default_factory=list)
    metrics: list[MetricFact] = field(default_factory=list)
    resilience: list[ResilienceFact] = field(default_factory=list)
    classes: list[ClassFact] = field(default_factory=list)
    instantiated: list[str] = field(default_factory=list)
    strings: dict[str, int] = field(default_factory=dict)
    load_subscripts: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    #: line -> codes a pragma suppresses on it (``[]`` = every code).
    pragmas: dict[str, list[str]] = field(default_factory=dict)
    stmt_spans: list[list[int]] = field(default_factory=list)
    parse_error: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleFacts":
        out = cls(path=data["path"], module=data["module"],
                  version=data.get("version", 0))
        out.publishes = [TopicFact(**d) for d in data.get("publishes", ())]
        out.subscribes = [TopicFact(**d) for d in data.get("subscribes", ())]
        out.metrics = [MetricFact(**d) for d in data.get("metrics", ())]
        out.resilience = [ResilienceFact(**d)
                          for d in data.get("resilience", ())]
        out.classes = [ClassFact(**d) for d in data.get("classes", ())]
        out.instantiated = list(data.get("instantiated", ()))
        out.strings = dict(data.get("strings", {}))
        out.load_subscripts = list(data.get("load_subscripts", ()))
        out.violations = [Violation(**d) for d in data.get("violations", ())]
        out.pragmas = {k: list(v) for k, v in data.get("pragmas", {}).items()}
        out.stmt_spans = [list(span) for span in data.get("stmt_spans", ())]
        out.parse_error = data.get("parse_error")
        return out

    # -- pragma resolution (works entirely from cached facts) --------------

    def stmt_start(self, line: int) -> int:
        """First line of the innermost multi-line statement covering
        ``line`` (or ``line`` itself)."""
        best = line
        best_span = None
        for start, end in self.stmt_spans:
            if start <= line <= end:
                if best_span is None or (end - start) < best_span:
                    best, best_span = start, end - start
        return best

    def suppressed(self, line: int, code: str) -> bool:
        """The one pragma rule, for every rule family: a pragma counts
        on the flagged line, on a comment-only line directly above it,
        or on the first line of the enclosing wrapped statement and the
        comment-only line above that."""
        for cand in (line, self.stmt_start(line)):
            codes = self.pragmas.get(str(cand))
            if codes is not None and (not codes or code in codes):
                return True
        return False


def parse_error_facts(path: str, module: str, line: int,
                      message: str) -> ModuleFacts:
    """Facts for a file that failed to parse (carried as a finding)."""
    facts = ModuleFacts(path=path, module=module)
    facts.parse_error = {"line": max(1, int(line or 1)), "message": message}
    return facts


# -- literal resolution --------------------------------------------------------


def _literal_template(node: ast.expr) -> Optional[str]:
    """Render a Constant/JoinedStr to a topic template, placeholders as
    :data:`ANY_SEGMENT`; ``None`` when the expression is not literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              str):
                parts.append(value.value)
            else:
                parts.append(ANY_SEGMENT)
        return "".join(parts)
    return None


def _template_segments(template: str) -> list[str]:
    """Dot-split a template; any segment touched by a placeholder becomes
    :data:`ANY_SEGMENT` wholesale (``lab-{i}.xrd`` -> ``["\\0", "xrd"]``)."""
    return [ANY_SEGMENT if ANY_SEGMENT in seg else seg
            for seg in template.split(".")]


class _FunctionScope:
    """Local single-assignment constants within one function body."""

    def __init__(self, fn: ast.AST) -> None:
        self.constants: dict[str, Optional[str]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                template = _literal_template(node.value)
                if name in self.constants:
                    self.constants[name] = None   # reassigned: not constant
                else:
                    self.constants[name] = template

    def lookup(self, name: str) -> Optional[str]:
        return self.constants.get(name)


def _literal_return_functions(module: ast.Module) -> dict[str, str]:
    """Map of function names (bare and ``Class.name``) whose body returns
    exactly one string literal/f-string — e.g. ``topic_for``."""
    out: dict[str, str] = {}

    def harvest(fn: ast.AST, qualifier: str = "") -> None:
        returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
        if len(returns) != 1 or returns[0].value is None:
            return
        template = _literal_template(returns[0].value)
        if template is None:
            return
        out[fn.name] = template
        if qualifier:
            out[f"{qualifier}.{fn.name}"] = template

    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            harvest(node)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    harvest(sub, node.name)
    return out


def _resolve_topic_arg(node: ast.expr, scope: Optional[_FunctionScope],
                       literal_fns: dict[str, str]) -> Optional[str]:
    """Best-effort template for a topic argument expression."""
    template = _literal_template(node)
    if template is not None:
        return template
    if isinstance(node, ast.Name) and scope is not None:
        return scope.lookup(node.id)
    if isinstance(node, ast.Call):
        terminal = None
        if isinstance(node.func, ast.Name):
            terminal = node.func.id
        elif isinstance(node.func, ast.Attribute):
            terminal = node.func.attr
        if terminal is not None and terminal in literal_fns:
            return literal_fns[terminal]
    return None


def _resolve_dict_arg(node: ast.expr,
                      scope: Optional[_FunctionScope],
                      fn: Optional[ast.AST]) -> Optional[list[str]]:
    """String keys of a dict-literal argument (directly or through one
    local single assignment)."""
    if isinstance(node, ast.Name) and fn is not None:
        assigns = [n for n in ast.walk(fn)
                   if isinstance(n, ast.Assign) and len(n.targets) == 1
                   and isinstance(n.targets[0], ast.Name)
                   and n.targets[0].id == node.id]
        if len(assigns) == 1:
            node = assigns[0].value
    if not isinstance(node, ast.Dict):
        return None
    keys = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
    return keys


# -- extraction ----------------------------------------------------------------


def _sink_arg(call: ast.Call, index: int, keyword: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    return None


def _always_exits(body: list[ast.stmt]) -> bool:
    """Does every path through ``body`` raise, return or break?

    Only top-level statements and ``if`` branches count: a ``break`` in a
    nested loop leaves that loop, and a nested def runs elsewhere.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Raise, ast.Return, ast.Break)):
            return True
        if isinstance(stmt, ast.If) and _always_exits(stmt.body) \
                and _always_exits(stmt.orelse):
            return True
    return False


def _handler_continues(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Continue) for node in ast.walk(handler))


def _is_while_true(loop: ast.AST) -> bool:
    return isinstance(loop, ast.While) \
        and isinstance(loop.test, ast.Constant) and loop.test.value is True


def _class_name_candidates(call: ast.Call,
                           ctx: ModuleContext) -> Optional[str]:
    """Resolved (or bare) name when a call looks like instantiation."""
    resolved = ctx.resolve_call(call)
    terminal = call_terminal(call)
    if terminal is None or not terminal[:1].isupper():
        return None
    return resolved or terminal


def _enclosing_functions(module: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualname, node) for every def, methods qualified by class."""
    out: list[tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                out.append((qual, child))
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}" if prefix
                      else child.name)
            else:
                visit(child, prefix)

    visit(module, "")
    return out


def _self_mutations(fn: ast.AST) -> dict[str, int]:
    """``self.<attr>`` container mutations inside one function body:
    attr name -> first line."""
    out: dict[str, int] = {}

    def record(attr: str, line: int) -> None:
        if attr not in out:
            out[attr] = line

    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            target = node.func.value
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                record(target.attr, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript) \
                        and isinstance(tgt.value, ast.Attribute) \
                        and isinstance(tgt.value.value, ast.Name) \
                        and tgt.value.value.id == "self":
                    record(tgt.value.attr, node.lineno)
    return out


def _extract_class(node: ast.ClassDef, ctx: ModuleContext) -> ClassFact:
    fact = ClassFact(name=node.name, line=node.lineno, col=node.col_offset)
    for base in node.bases:
        resolved = ctx.resolve(base)
        if resolved is not None:
            fact.bases.append(resolved)
        elif isinstance(base, ast.Name):
            fact.bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            fact.bases.append(base.attr)
    mutated: dict[str, int] = {}
    for sub in node.body:
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fact.methods.append(sub.name)
        if sub.name in ("__init__", "__new__"):
            continue
        for attr, line in _self_mutations(sub).items():
            if attr not in mutated:
                mutated[attr] = line
    fact.mutated_attrs = sorted(mutated)
    fact.mutation_line = min(mutated.values()) if mutated else 0
    fact.has_merge = bool(_MERGE_PROTOCOL.intersection(fact.methods))
    seen: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            cand = _class_name_candidates(sub, ctx)
            if cand is not None and cand != node.name and cand not in seen:
                seen.add(cand)
                fact.instantiates.append(cand)
    return fact


def _harvest_strings(nodes: list[ast.AST]) -> tuple[dict[str, int],
                                                    list[str]]:
    strings: dict[str, int] = {}
    load_subscripts: list[str] = []
    for node in nodes:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings[node.value] = strings.get(node.value, 0) + 1
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            load_subscripts.append(node.slice.value)
    return strings, load_subscripts


def _harvest_pragmas(source: str) -> dict[str, list[str]]:
    """Key each pragma by the line it covers: its own line, or the line
    below when the pragma sits on a comment-only line."""
    covered: dict[str, list[str]] = {}
    for line_no, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA.search(text)
        if m is None:
            continue
        codes = [c.strip() for c in (m.group("codes") or "").split(",")
                 if c.strip()]
        key = str(line_no + 1 if text.lstrip().startswith("#") else line_no)
        if key in covered:     # trailing pragma plus one directly above
            old = covered[key]
            codes = sorted({*old, *codes}) if old and codes else []
        covered[key] = codes
    return covered


def _harvest_stmt_spans(nodes: list[ast.AST]) -> list[list[int]]:
    spans: list[list[int]] = []
    simple = (ast.Expr, ast.Assign, ast.AnnAssign, ast.AugAssign,
              ast.Return, ast.Raise, ast.Assert, ast.Delete)
    for node in nodes:
        if isinstance(node, simple):
            end = getattr(node, "end_lineno", None) or node.lineno
            if end > node.lineno:
                spans.append([node.lineno, end])
    return spans


def extract_facts(source: str, path: str, module: str) -> ModuleFacts:
    """Parse one file once and extract its :class:`ModuleFacts`, D-rule
    violations included.

    Raises ``SyntaxError`` on unparsable input — the project indexer
    converts that into :func:`parse_error_facts` so a broken file is a
    finding, not a crash.
    """
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(tree)
    facts = ModuleFacts(path=path, module=module)
    literal_fns = _literal_return_functions(tree)

    functions = _enclosing_functions(tree)
    scope_cache: dict[int, _FunctionScope] = {}
    read_wrapped = {id(attr.value) for attr in ctx.nodes
                    if isinstance(attr, ast.Attribute)
                    and attr.attr in _METRIC_READS
                    and isinstance(attr.value, ast.Call)}

    def owner_of(line: int) -> tuple[str, Optional[ast.AST]]:
        best: tuple[str, Optional[ast.AST]] = ("", None)
        best_size = None
        for qual, fn in functions:
            end = getattr(fn, "end_lineno", fn.lineno)
            if fn.lineno <= line <= end:
                size = end - fn.lineno
                if best_size is None or size < best_size:
                    best, best_size = (qual, fn), size
        return best

    def scope_for(fn: Optional[ast.AST]) -> Optional[_FunctionScope]:
        if fn is None:
            return None
        key = id(fn)
        if key not in scope_cache:
            scope_cache[key] = _FunctionScope(fn)
        return scope_cache[key]

    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        terminal = call_terminal(node)
        if terminal is None:
            continue
        qual, fn = owner_of(node.lineno)

        # -- topic sinks ---------------------------------------------------
        for sinks, bucket in ((_PUBLISH_SINKS, facts.publishes),
                              (_SUBSCRIBE_SINKS, facts.subscribes)):
            for attr, index, keyword in sinks:
                if terminal != attr:
                    continue
                arg = _sink_arg(node, index, keyword)
                if arg is None:
                    continue
                template = _resolve_topic_arg(arg, scope_for(fn),
                                              literal_fns)
                if template is None:
                    # ``.publish``/``.bind`` are overloaded verbs across
                    # the codebase (mesh indexes publish dict entries),
                    # so an arbitrary expression at the topic position
                    # must not poison the whole-program match.  Record a
                    # *dynamic* topic (matches everything) only when the
                    # argument is self-evidently a topic: a name or call
                    # with "topic" in it that local propagation and
                    # literal-return resolution both failed to pin down.
                    topicish = (
                        (isinstance(arg, ast.Name)
                         and "topic" in arg.id.lower())
                        or (isinstance(arg, ast.Call)
                            and "topic" in (call_terminal(arg) or "").lower()
                            ))
                    if topicish and attr in ("publish", "route"):
                        bucket.append(TopicFact(
                            topic="", segments=None, line=node.lineno,
                            col=node.col_offset, sink=attr, func=qual))
                    continue
                bucket.append(TopicFact(
                    topic=template, segments=_template_segments(template),
                    line=node.lineno, col=node.col_offset, sink=attr,
                    func=qual))

        # -- metric sinks --------------------------------------------------
        if terminal in _METRIC_SINKS and isinstance(node.func,
                                                    ast.Attribute):
            arg = _sink_arg(node, 0, "name")
            if arg is not None and isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, str):
                facts.metrics.append(MetricFact(
                    kind=terminal, name=arg.value, line=node.lineno,
                    col=node.col_offset, func=qual,
                    read=id(node) in read_wrapped))
        elif terminal == "stats" and isinstance(node.func, ast.Attribute):
            prefix_arg = _sink_arg(node, 0, "prefix")
            initial_arg = _sink_arg(node, 1, "initial")
            if prefix_arg is not None and isinstance(prefix_arg,
                                                     ast.Constant) \
                    and isinstance(prefix_arg.value, str) \
                    and initial_arg is not None:
                keys = _resolve_dict_arg(initial_arg, scope_for(fn), fn)
                for key in keys or ():
                    facts.metrics.append(MetricFact(
                        kind="stats", name=f"{prefix_arg.value}.{key}",
                        line=node.lineno, col=node.col_offset, func=qual))

        # -- resilience sinks ----------------------------------------------
        if terminal == "resilient_call":
            has_deadline = any(
                kw.arg == "deadline"
                and not (isinstance(kw.value, ast.Constant)
                         and kw.value.value is None)
                for kw in node.keywords)
            facts.resilience.append(ResilienceFact(
                kind="resilient_call", line=node.lineno,
                col=node.col_offset, func=qual, has_deadline=has_deadline))

    # -- retry loops -------------------------------------------------------
    for node in ctx.nodes:
        if not isinstance(node, (ast.For, ast.While)):
            continue
        qual, _fn = owner_of(node.lineno)
        # A try inside a nested loop belongs to the *innermost* loop —
        # the outer loop would otherwise double-report the same pattern.
        for sub in walk_scope(node, (*SCOPES, ast.For, ast.While)):
            if not isinstance(sub, ast.Try):
                continue
            for handler in sub.handlers:
                if _always_exits(handler.body):
                    continue
                if _handler_continues(handler) or _is_while_true(node):
                    facts.resilience.append(ResilienceFact(
                        kind="retry_loop", line=node.lineno,
                        col=node.col_offset, func=qual))
                    break
            else:
                continue
            break

    # -- classes and instantiations ----------------------------------------
    class_spans: list[tuple[int, int]] = []
    for node in ctx.nodes:
        if isinstance(node, ast.ClassDef):
            facts.classes.append(_extract_class(node, ctx))
            class_spans.append((node.lineno,
                                getattr(node, "end_lineno", node.lineno)))
    seen_inst: set[str] = set()
    for node in ctx.nodes:
        if isinstance(node, ast.Call):
            if any(start <= node.lineno <= end
                   for start, end in class_spans):
                continue
            cand = _class_name_candidates(node, ctx)
            if cand is not None and cand not in seen_inst:
                seen_inst.add(cand)
                facts.instantiated.append(cand)

    facts.strings, facts.load_subscripts = _harvest_strings(ctx.nodes)
    facts.violations = [replace(v, func=owner_of(v.line)[0])
                        for v in check_module(tree, ctx)]
    facts.pragmas = _harvest_pragmas(source)
    facts.stmt_spans = _harvest_stmt_spans(ctx.nodes)
    return facts
