"""Trace and metrics export in stable, diff-able formats.

Traces export as JSON-lines (one :class:`~repro.obs.trace.TraceEvent` per
line) with sorted keys and fixed separators, so "same seed, same bytes"
holds file-for-file.  Metrics export as a plain JSON snapshot, optionally
filtered to one site — the form the benchmarks print.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.obs.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

_JSON_KW = {"sort_keys": True, "separators": (",", ":"),
            "ensure_ascii": True}


def _event_obj(ev: TraceEvent) -> dict[str, Any]:
    return {"seq": ev.seq, "t": ev.t, "kind": ev.kind, "name": ev.name,
            "span": ev.span, "parent": ev.parent, "attrs": ev.attrs}


def to_jsonl(events: "Iterable[TraceEvent] | Tracer") -> str:
    """Serialize a trace (or a tracer's events) to JSON-lines text."""
    events = getattr(events, "events", events)
    lines = [json.dumps(_event_obj(ev), **_JSON_KW) for ev in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events: "Iterable[TraceEvent] | Tracer", path: str) -> int:
    """Write a JSON-lines trace to ``path``; returns the event count."""
    text = to_jsonl(events)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text.count("\n")


def load_jsonl(path: str) -> list[TraceEvent]:
    """Read a JSON-lines trace back into :class:`TraceEvent` objects."""
    out: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out.append(TraceEvent(seq=obj["seq"], t=obj["t"],
                                  kind=obj["kind"], name=obj["name"],
                                  span=obj.get("span"),
                                  parent=obj.get("parent"),
                                  attrs=obj.get("attrs", {})))
    return out


class TraceSpillWriter:
    """Incremental JSONL spill: one event per line, written as emitted.

    This is how a bounded :class:`~repro.obs.trace.Tracer` keeps a
    *complete* record without unbounded memory — the ring holds the hot
    tail for inspection while every event streams to disk the moment it
    is emitted.  The file is opened lazily (a tracer configured with a
    spill path but never used creates nothing) and the output format is
    exactly :func:`to_jsonl`'s, so :func:`load_jsonl` reads it back and
    "same seed, same bytes" holds for spilled traces too.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.events_written = 0
        self._fh = None

    def write(self, event: TraceEvent) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        self._fh.write(json.dumps(_event_obj(event), **_JSON_KW))
        self._fh.write("\n")
        self.events_written += 1

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceSpillWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def metrics_snapshot(registry: "MetricsRegistry",
                     site: Optional[str] = None) -> dict[str, Any]:
    """Per-site (or global) metrics snapshot."""
    return registry.snapshot(site=site)
