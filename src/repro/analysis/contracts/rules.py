"""The one rule table, the one :class:`Finding` type, and both families.

:func:`run_rules` runs every selected rule over a
:class:`~repro.analysis.contracts.project.ProjectIndex`:

- **D-rules** (D000–D006, :mod:`repro.analysis.rules`) are per-file.
  Their raw violations were found during fact extraction; here they are
  only filtered, keyed and pragma-resolved.  They are reported for every
  scanned file (program and references) outside
  ``[tool.detlint] exclude``.
- **C-rules** (C001–C004) are whole-program string-contract checks over
  the *program* files: a publish in one module is only correct relative
  to a bind in some *other* module, and a metric name
  is only alive if something on the read side (a report, a perf gate, a
  test) ever mentions it.

Rule summary
------------
====  ========================================================  ========
D000  file does not parse                                       error
D00x  determinism hazards (see :mod:`repro.analysis.rules`)     error
C001  publish/subscribe topic mismatch                          error/warn
C002  metric-name drift (never read) / kind collision           warn/error
C003  resilience hygiene (no Deadline; bare retry loops)        warn
C004  per-shard class mutates state without a merge protocol    error
====  ========================================================  ========

Matching uses :func:`repro.comm.bus.topic_matches` (the iterative NFA
``Broker.route`` runs) as the oracle whenever both sides are concrete,
and a small template NFA with the same semantics when either side
carries f-string placeholder segments (a placeholder publish segment
matches any one pattern segment and vice versa — *may-match* semantics,
so the rules stay conservative: a finding means no instantiation can
ever match).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.analysis.contracts.facts import (ANY_SEGMENT, ModuleFacts,
                                            TopicFact)
from repro.analysis.contracts.project import DetlintConfig, ProjectIndex
from repro.analysis.rules import ALL_RULES
from repro.comm.bus import topic_matches

__all__ = ["Finding", "RULES", "enabled_codes", "run_rules",
           "template_matches"]

#: Pseudo-rule for files that fail to parse: a finding with the syntax
#: error's own line, so one broken file cannot hide its own debt.
PARSE_ERROR = "D000"

#: code -> (title, hint): the one rule table, rendered by ``--list-rules``
#: and embedded in SARIF output.
RULES: dict[str, tuple[str, str]] = {
    PARSE_ERROR: ("unparsable file",
                  "fix the syntax error; an unparsable file is invisible "
                  "to every other rule"),
    **{rule.code: (rule.title, rule.hint) for rule in ALL_RULES},
    "C001": ("publish/subscribe topic mismatch",
             "bind a queue whose pattern matches the published topic (or "
             "delete the dead publish / unmatched binding)"),
    "C002": ("metric-name drift",
             "read the metric in a report, perf gate, or test — or delete "
             "the emission; never reuse one name across metric kinds"),
    "C003": ("resilience hygiene",
             "pass deadline=Deadline(sim, budget) to resilient_call, or "
             "move ad-hoc retry loops onto repro.resilience primitives"),
    "C004": ("shard/merge safety",
             "implement merge_from()/state() so per-shard instances can "
             "be recombined (see MetricsRegistry.merge_state)"),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, located, pragma-resolved and fingerprinted.

    ``key`` is the *stable identity* used by the baseline ratchet:
    line numbers churn on unrelated edits, so the fingerprint is built
    from the rule code, the file, and a rule-specific key (topic string,
    metric name, class qualname, or a D-finding's enclosing ``def``)
    instead.
    """

    code: str
    severity: str               # "error" | "warn"
    path: str
    line: int
    col: int
    message: str
    hint: str
    key: str
    suppressed: bool = False

    @property
    def fingerprint(self) -> str:
        return f"{self.code}:{self.path}:{self.key}"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["fingerprint"] = self.fingerprint
        return data

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col + 1}: {self.code} "
                f"[{self.severity}] {self.message}{mark}\n"
                f"    hint: {self.hint}")


def _finding(code: str, severity: str, facts: ModuleFacts, line: int,
             col: int, message: str, key: str) -> Finding:
    return Finding(
        code=code, severity=severity, path=facts.path, line=line, col=col,
        message=message, hint=RULES[code][1], key=key,
        suppressed=facts.suppressed(line, code))


# -- topic matching ------------------------------------------------------------


def template_matches(pattern_segments: list[str],
                     topic_segments: list[str]) -> bool:
    """May-match between a pattern and a topic template.

    Same NFA as :func:`repro.comm.bus.topic_matches`, extended with
    :data:`ANY_SEGMENT` placeholders on either side: a placeholder topic
    segment can take any value, so it satisfies any single-segment
    pattern position; a placeholder pattern segment is a runtime literal
    that matches exactly one topic segment.
    """
    pat = pattern_segments
    n_pat = len(pat)

    def close(states: set[int]) -> set[int]:
        frontier = list(states)
        while frontier:
            pi = frontier.pop()
            if pi < n_pat and pat[pi] == "#" and pi + 1 not in states:
                states.add(pi + 1)
                frontier.append(pi + 1)
        return states

    states = close({0})
    for seg in topic_segments:
        nxt: set[int] = set()
        for pi in states:
            if pi >= n_pat:
                continue
            p = pat[pi]
            if p == "#":
                nxt.add(pi)
            elif p == "*" or p == ANY_SEGMENT or seg == ANY_SEGMENT \
                    or p == seg:
                nxt.add(pi + 1)
        if not nxt:
            return False
        states = close(nxt)
    return n_pat in states


def _topics_match(pattern: TopicFact, topic: TopicFact) -> bool:
    if pattern.segments is None or topic.segments is None:
        return True     # a dynamic side may match anything: conservative
    if ANY_SEGMENT not in pattern.topic and ANY_SEGMENT not in topic.topic:
        return topic_matches(pattern.topic, topic.topic)
    return template_matches(pattern.segments, topic.segments)


# -- D000-D006: per-file determinism rules -------------------------------------


def _check_determinism(index: ProjectIndex, codes: tuple[str, ...],
                       config: DetlintConfig) -> list[Finding]:
    out: list[Finding] = []
    for facts in (*index.program, *index.references):
        if config.excludes_path(facts.path):
            continue
        if facts.parse_error is not None:
            if PARSE_ERROR in codes:
                out.append(_finding(
                    PARSE_ERROR, "error", facts,
                    int(facts.parse_error["line"]), 0,
                    f"file does not parse: {facts.parse_error['message']}",
                    key="parse"))
            continue
        # Key: enclosing def + "#n" on repeats — line-free, file-unique.
        repeats: dict[tuple[str, str], int] = {}
        for v in facts.violations:
            n = repeats.get((v.code, v.func), 0)
            repeats[(v.code, v.func)] = n + 1
            if v.code in codes:
                out.append(_finding(
                    v.code, "error", facts, v.line, v.col, v.message,
                    key=(v.func or "<module>") + (f"#{n}" if n else "")))
    return out


# -- C001: publish/subscribe topic mismatch ------------------------------------


def _check_topics(index: ProjectIndex) -> list[Finding]:
    publishes: list[tuple[ModuleFacts, TopicFact]] = []
    subscribes: list[tuple[ModuleFacts, TopicFact]] = []
    for facts in index.modules():
        publishes.extend((facts, t) for t in facts.publishes)
        subscribes.extend((facts, t) for t in facts.subscribes)
    out: list[Finding] = []

    for facts, pub in publishes:
        if pub.segments is None:
            continue            # dynamic: cannot be judged statically
        if any(_topics_match(sub, pub) for _, sub in subscribes):
            continue
        where = f" (in {pub.func})" if pub.func else ""
        out.append(_finding(
            "C001", "error", facts, pub.line, pub.col,
            f"published topic {pub.topic!r}{where} is matched by no "
            f"subscribe/bind pattern anywhere in the program — every "
            f"message routed to it is dropped",
            key=f"pub:{pub.topic}"))

    # The bus implementation itself forwards every topic (``broker.route``
    # inside ``MessageBus.publish``) — that *dynamic* fact is middleware
    # plumbing, not an origin, and would mask every dead binding.
    origin_publishes = [
        (facts, pub) for facts, pub in publishes
        if not (pub.segments is None and facts.module == "repro.comm.bus")]

    for facts, sub in subscribes:
        if sub.segments is None:
            continue
        if any(_topics_match(sub, pub) for _, pub in origin_publishes):
            continue
        where = f" (in {sub.func})" if sub.func else ""
        out.append(_finding(
            "C001", "warn", facts, sub.line, sub.col,
            f"subscription pattern {sub.topic!r}{where} can never match "
            f"any published topic — the binding is dead",
            key=f"sub:{sub.topic}"))
    return out


# -- C002: metric-name drift ---------------------------------------------------


def _check_metrics(index: ProjectIndex) -> list[Finding]:
    out: list[Finding] = []
    emits: dict[str, list[tuple[ModuleFacts, str, int, int, bool]]] = {}
    for facts in index.modules():
        for m in facts.metrics:
            emits.setdefault(m.name, []).append(
                (facts, m.kind, m.line, m.col, m.read))

    for name in sorted(emits):
        sites = emits[name]
        # -- kind collision: one name, several metric families ------------
        kinds = sorted({"counter" if kind == "stats" else kind
                        for _, kind, _, _, _ in sites})
        if len(kinds) > 1:
            facts, _, line, col, _ = sites[-1]
            out.append(_finding(
                "C002", "error", facts, line, col,
                f"metric name {name!r} is used as {' and '.join(kinds)} — "
                f"MetricsRegistry.merge_state would double-register it "
                f"under conflicting families",
                key=f"collision:{name}"))
        # -- drift: emitted but never read --------------------------------
        factory_sites = [(f, k, ln, c) for f, k, ln, c, read in sites
                         if k != "stats" and not read]
        if not factory_sites:
            # stats() dicts are read through their StatsDict keys; the
            # full dotted name never appears at the read site, so the
            # drift check only covers the factory families.
            continue
        if any(read for *_, read in sites):
            continue        # an in-program read accessor consumes it
        occurrences = index.string_occurrences(name)
        if occurrences <= len(factory_sites):
            facts, kind, line, col = factory_sites[0]
            out.append(_finding(
                "C002", "warn", facts, line, col,
                f"{kind} {name!r} is emitted but never read by any "
                f"report, stats surface, perf gate, or test",
                key=f"unread:{name}"))
    return out


# -- C003: resilience hygiene --------------------------------------------------


def _check_resilience(index: ProjectIndex) -> list[Finding]:
    out: list[Finding] = []
    for facts in index.modules():
        if facts.module.startswith("repro.resilience"):
            continue            # the resilience kernel is the sanctioned home
        per_func: dict[str, int] = {}
        for r in facts.resilience:
            if r.kind == "resilient_call" and not r.has_deadline:
                n = per_func.get(f"d:{r.func}", 0)
                per_func[f"d:{r.func}"] = n + 1
                suffix = f"#{n}" if n else ""
                out.append(_finding(
                    "C003", "warn", facts, r.line, r.col,
                    f"resilient_call in {r.func or facts.module} has no "
                    f"deadline= — retries can consume unbounded simulated "
                    f"time",
                    key=f"nodeadline:{r.func}{suffix}"))
            elif r.kind == "retry_loop":
                n = per_func.get(f"r:{r.func}", 0)
                per_func[f"r:{r.func}"] = n + 1
                suffix = f"#{n}" if n else ""
                out.append(_finding(
                    "C003", "warn", facts, r.line, r.col,
                    f"bare retry loop in {r.func or facts.module} "
                    f"(loop + swallowed except + re-invoke) outside "
                    f"repro.resilience — use resilient_call/RetryPolicy",
                    key=f"retry:{r.func}{suffix}"))
    return out


# -- C004: shard/merge safety --------------------------------------------------

#: BFS roots: the classes whose instances fan out per shard / per worker
#: and are later recombined.  Instantiation edges are walked from here.
SHARD_ROOTS = ("repro.data.shard.ShardedDiscoveryIndex",
               "repro.scale.runner.WorldBatch")

#: How many instantiation hops from a root still count as "stored
#: per-shard".  Depth 3 covers root -> shard component -> its parts.
SHARD_REACH_DEPTH = 3


def _has_merge_transitive(index: ProjectIndex, qual: str,
                          seen: Optional[set[str]] = None) -> bool:
    seen = seen or set()
    if qual in seen:
        return False
    seen.add(qual)
    table = index.classes()
    entry = table.get(qual)
    if entry is None:
        return False
    _, cls = entry
    if cls.has_merge:
        return True
    for base in cls.bases:
        base_qual = index.resolve_class(base)
        if base_qual is not None \
                and _has_merge_transitive(index, base_qual, seen):
            return True
    return False


def _check_shard_merge(index: ProjectIndex) -> list[Finding]:
    table = index.classes()
    reached: dict[str, int] = {}
    frontier: list[tuple[str, int]] = []
    for root in SHARD_ROOTS:
        qual = index.resolve_class(root)
        if qual is not None:
            frontier.append((qual, 0))
    while frontier:
        qual, depth = frontier.pop()
        if qual in reached and reached[qual] <= depth:
            continue
        reached[qual] = depth
        if depth >= SHARD_REACH_DEPTH:
            continue
        entry = table.get(qual)
        if entry is None:
            continue
        _, cls = entry
        for inst in cls.instantiates:
            inst_qual = index.resolve_class(inst)
            if inst_qual is not None:
                frontier.append((inst_qual, depth + 1))

    out: list[Finding] = []
    for qual in sorted(reached):
        entry = table.get(qual)
        if entry is None:
            continue
        facts, cls = entry
        if not cls.mutated_attrs:
            continue
        if _has_merge_transitive(index, qual):
            continue
        attrs = ", ".join(cls.mutated_attrs[:4])
        out.append(_finding(
            "C004", "error", facts, cls.line, cls.col,
            f"class {cls.name} is stored per-shard (reachable from "
            f"{'/'.join(r.rsplit('.', 1)[-1] for r in SHARD_ROOTS)}) and "
            f"mutates collective state ({attrs}) but implements no "
            f"merge_from()/state() protocol",
            key=f"merge:{qual}"))
    return out


# -- entry point ---------------------------------------------------------------


def enabled_codes(config: DetlintConfig) -> tuple[str, ...]:
    """Codes ``config`` turns on: ``select`` (empty = all) minus
    ``ignore``.  D000 reports even when not selected — an unparsable
    file hides every other finding — unless ignored by name.  Raises
    ``ValueError`` on a code that is not in :data:`RULES`."""
    unknown = [c for c in (*config.select, *config.ignore) if c not in RULES]
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
    return tuple(c for c in RULES
                 if (not config.select or c in config.select
                     or c == PARSE_ERROR) and c not in config.ignore)


def run_rules(index: ProjectIndex,
              config: Optional[DetlintConfig] = None) -> list[Finding]:
    """Run both rule families over the project (``ValueError`` on an
    unknown rule code in ``config``)."""
    config = config or DetlintConfig()
    codes = enabled_codes(config)
    findings = _check_determinism(index, codes, config)
    for code, check in (("C001", _check_topics), ("C002", _check_metrics),
                        ("C003", _check_resilience),
                        ("C004", _check_shard_merge)):
        if code in codes:
            findings.extend(check(index))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.key))
    return findings
