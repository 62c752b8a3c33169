"""Append-only audit trail for security decisions.

Every zero-trust verification lands here, giving experiments (and
post-incident forensics inside examples) a queryable record of who did
what, where, and whether it was allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class AuditEntry:
    """One immutable audit record."""

    time: float
    subject: str
    institution: str
    action: str
    resource: str
    decision: str
    reason: str
    site: str = ""


class AuditLog:
    """Append-only log with simple querying.

    Entries cannot be removed or mutated; the only write operation is
    :meth:`record`.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None) -> None:
        self.sim = sim
        self.capacity = capacity
        self._entries: list[AuditEntry] = []
        self.dropped = 0

    def record(self, subject: str, institution: str, action: str,
               resource: str, decision: str, reason: str = "",
               site: str = "") -> AuditEntry:
        entry = AuditEntry(time=self.sim.now, subject=subject,
                           institution=institution, action=action,
                           resource=resource, decision=decision,
                           reason=reason, site=site)
        if self.capacity is not None and len(self._entries) >= self.capacity:
            # Bounded logs drop the oldest entry (ring-buffer semantics)
            # but remember how much history was lost.
            self._entries.pop(0)
            self.dropped += 1
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[AuditEntry]:
        """A defensive copy of all retained entries."""
        return list(self._entries)

    def query(self, *, subject: Optional[str] = None,
              action: Optional[str] = None,
              decision: Optional[str] = None,
              since: Optional[float] = None,
              predicate: Optional[Callable[[AuditEntry], bool]] = None
              ) -> list[AuditEntry]:
        """Filter entries by any combination of fields."""
        out = []
        for e in self._entries:
            if subject is not None and e.subject != subject:
                continue
            if action is not None and e.action != action:
                continue
            if decision is not None and e.decision != decision:
                continue
            if since is not None and e.time < since:
                continue
            if predicate is not None and not predicate(e):
                continue
            out.append(e)
        return out

    def denial_rate(self) -> float:
        """Fraction of retained decisions that were denials."""
        if not self._entries:
            return 0.0
        denied = sum(1 for e in self._entries if e.decision == "deny")
        return denied / len(self._entries)
