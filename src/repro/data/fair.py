"""FAIR scoring and autonomous FAIR governance (M6, refs [34, 21]).

:func:`fair_score` grades one record against concrete, checkable proxies
of the FAIR principles.  :class:`FairGovernor` is the "agent that actively
enforces FAIR in near real time": it audits records as they land in a mesh
node, auto-annotates what it can (via the metadata extractor), assigns
licenses from institutional defaults, and reports compliance over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.data.metadata import MetadataExtractor
from repro.data.record import DataRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.provenance import ProvenanceGraph
    from repro.data.schema import SchemaRegistry


@dataclass
class FairReport:
    """Per-principle subscores in [0, 1] plus the overall mean."""

    findable: float
    accessible: float
    interoperable: float
    reusable: float

    @property
    def overall(self) -> float:
        return (self.findable + self.accessible + self.interoperable
                + self.reusable) / 4.0

    def gaps(self) -> list[str]:
        out = []
        for name in ("findable", "accessible", "interoperable", "reusable"):
            if getattr(self, name) < 1.0:
                out.append(name)
        return out


def fair_score(record: DataRecord, *, indexed: bool = False,
               schemas: Optional["SchemaRegistry"] = None,
               provenance: Optional["ProvenanceGraph"] = None) -> FairReport:
    """Grade a record's FAIRness.

    - **Findable**: has a global id (always true by construction), rich
      metadata, and presence in a discovery index.
    - **Accessible**: a retrievable payload and a declared access class.
    - **Interoperable**: a registered schema and units on its quantities.
    - **Reusable**: license, provenance entity with good completeness, and
      a quality assessment.
    """
    findable = 0.4  # record_id exists by construction
    if record.metadata.get("technique") not in (None, "", "unknown"):
        findable += 0.3
    if indexed:
        findable += 0.3

    accessible = 0.5 if record.raw is not None or record.values else 0.0
    if record.sensitivity:
        accessible += 0.5

    interoperable = 0.0
    if record.schema_id and (schemas is None or record.schema_id in schemas):
        interoperable += 0.6
    units = record.metadata.get("units") or record.metadata.get("quantities")
    if units:
        interoperable += 0.4

    reusable = 0.0
    if record.license:
        reusable += 0.4
    if provenance is not None and record.provenance_id:
        reusable += 0.3 * provenance.completeness(record.provenance_id)
    elif record.provenance_id:
        reusable += 0.15
    if record.quality is not None:
        reusable += 0.3

    clamp = lambda v: min(1.0, round(v, 6))
    return FairReport(findable=clamp(findable), accessible=clamp(accessible),
                      interoperable=clamp(interoperable),
                      reusable=clamp(reusable))


class FairGovernor:
    """Autonomous FAIR-compliance agent attached to a mesh node.

    On :meth:`audit`, the governor scores the record, then repairs what it
    can without a human:

    - missing technique metadata -> run the metadata extractor;
    - missing license -> apply the institutional default;
    - missing schema -> adopt the best matching registered schema.

    The before/after scores feed E9's governance curve.
    """

    #: The institutional license applied to unlicensed records.
    DEFAULT_LICENSE = "CC-BY-4.0"

    def __init__(self) -> None:
        self.extractor = MetadataExtractor()
        self.history: list[tuple[float, float, float]] = []  # (t, before, after)
        self.stats = {"audits": 0, "repairs": 0}

    def audit(self, record: DataRecord, *, time: float = 0.0,
              indexed: bool = False,
              schemas: Optional["SchemaRegistry"] = None,
              provenance: Optional["ProvenanceGraph"] = None) -> FairReport:
        """Score, repair, re-score one record; returns the final report."""
        self.stats["audits"] += 1
        before = fair_score(record, indexed=indexed, schemas=schemas,
                            provenance=provenance).overall
        repaired = False

        if record.metadata.get("technique") in (None, "", "unknown"):
            ann = self.extractor.extract(record.raw, record.values)
            if ann.technique != "unknown":
                record.metadata.update(ann.as_metadata())
                repaired = True
        if not record.license:
            record.license = self.DEFAULT_LICENSE
            repaired = True
        if not record.schema_id and schemas is not None:
            match = self._best_schema(record, schemas)
            if match is not None:
                record.schema_id = match
                repaired = True

        if repaired:
            self.stats["repairs"] += 1
        report = fair_score(record, indexed=indexed, schemas=schemas,
                            provenance=provenance)
        self.history.append((time, before, report.overall))
        return report

    @staticmethod
    def _best_schema(record: DataRecord,
                     schemas: "SchemaRegistry") -> Optional[str]:
        """Adopt the registered schema covering the most record fields."""
        best_id, best_cover = None, 0
        for schema_id in schemas.schema_ids():
            schema = schemas.get(schema_id)
            cover = sum(1 for f in schema.fields if f.name in record.values)
            required_ok = all(f.name in record.values
                              for f in schema.fields if f.required)
            if required_ok and cover > best_cover:
                best_id, best_cover = schema_id, cover
        return best_id

    def mean_improvement(self) -> float:
        """Average FAIR-score gain per audited record."""
        if not self.history:
            return 0.0
        return sum(after - before for _, before, after in self.history) \
            / len(self.history)
